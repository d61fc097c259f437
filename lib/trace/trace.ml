open Simcore

type message = {
  m_kind : string;
  m_txn : int option;
  m_priority : int option;
  m_src : int;
  m_dst : int;
  m_src_dc : int;
  m_dst_dc : int;
  m_bytes : int;
  m_enqueue : Sim_time.t;
  m_depart : Sim_time.t;
  m_deliver : Sim_time.t;
  mutable m_dequeue : Sim_time.t option;
}

type span_phase = Begin | End | Instant

type blame = {
  bl_blocker : int;  (** blocker attempt id, [-1] when the wait has no blocking txn *)
  bl_blocker_high : bool;  (** blocker priority class; meaningful iff [bl_blocker >= 0] *)
  bl_key : int;  (** contended key, [-1] when not key-shaped *)
  bl_node : int;  (** node (or link destination) where the wait happened, [-1] if n/a *)
}

let no_blame = { bl_blocker = -1; bl_blocker_high = false; bl_key = -1; bl_node = -1 }

type span = {
  s_txn : int;
  s_name : string;
  s_phase : span_phase;
  s_tid : int;
  s_at : Sim_time.t;
  s_blame : blame option;
}

type fault = { f_name : string; f_at : Sim_time.t }
type event = Message of message | Span of span | Fault of fault

type t = {
  mutable on : bool;
  mutable events : event array;  (** in push order, at [0, n_events) *)
  mutable n_events : int;
}

let create () = { on = false; events = [||]; n_events = 0 }
let enable t = t.on <- true
let enabled t = t.on

(* ------------------------------------------------------------------ *)
(* JSON: the value type and printer behind every document the repository
   writes, so its syntax (escaping, separators, line breaks) lives here. *)

type json =
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Seq of json Seq.t
  | Obj of (string * json) list

let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

(* Members are separated by [sep], ",\n" at the top level only; an object
   element of a list starts a line, and a list holding any closes on one.
   The buffer goes to [oc] between elements once past 64 KiB, so a [Seq]
   list streams. *)
let output_json oc v =
  let b = Buffer.create 65536 in
  let add = Buffer.add_string b in
  let escape = function
    | '"' -> add "\\\""
    | '\\' -> add "\\\\"
    | '\n' -> add "\\n"
    | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
    | c -> Buffer.add_char b c
  in
  let str s = add "\""; String.iter escape s; add "\"" in
  let rec value ?(sep = ",") = function
    | Int i -> add (string_of_int i)
    | Float f -> add (json_float f)
    | Str s -> str s
    | List l -> elements (List.to_seq l)
    | Seq s -> elements s
    | Obj members ->
        add "{";
        List.iteri (fun i (k, v) -> if i > 0 then add sep; str k; add ":"; value v) members;
        add "}"
  and elements s =
    let element broke i v =
      let obj = match v with Obj _ -> true | _ -> false in
      if i > 0 then add ",";
      if obj then add "\n";
      value v;
      if Buffer.length b >= 65536 then (Buffer.output_buffer oc b; Buffer.clear b);
      broke || obj
    in
    add "[";
    add (if Seq.fold_lefti element false s then "\n]" else "]")
  in
  value ~sep:",\n" v;
  add "\n";
  Buffer.output_buffer oc b

(* ------------------------------------------------------------------ *)
(* Chrome trace viewer (chrome://tracing, Perfetto) JSON.

   Message deliveries are complete ("X") events on pid 0, one thread per
   destination node, spanning network enqueue to delivery; the CPU
   completion time, when known, rides in args. Transaction lifecycle spans
   are async ("b"/"e"/"n") events on pid 1, keyed by transaction id. All
   timestamps are simulated microseconds. *)

let us t = Int (Sim_time.to_us t)
let ints kvs = Obj (List.map (fun (k, v) -> (k, Int v)) kvs)
let some k = function Some v -> [ (k, v) ] | None -> []
let only cond members = if cond then members else []

(* A Chrome event: its name, category and phase, then [rest]. *)
let event name cat ph rest = Obj (("name", Str name) :: ("cat", Str cat) :: ("ph", Str ph) :: rest)

let event_json = function
  | Message m ->
      event m.m_kind "msg" "X"
        [ ("ts", us m.m_enqueue); ("dur", us (Sim_time.sub m.m_deliver m.m_enqueue));
          ("pid", Int 0); ("tid", Int m.m_dst);
          ( "args",
            ints
              ([ ("src", m.m_src); ("dst", m.m_dst); ("src_dc", m.m_src_dc); ("dst_dc", m.m_dst_dc);
                 ("bytes", m.m_bytes); ("depart_us", Sim_time.to_us m.m_depart) ]
              @ some "cpu_done_us" (Option.map Sim_time.to_us m.m_dequeue)
              @ some "txn" m.m_txn @ some "priority" m.m_priority) ) ]
  | Span s ->
      let ph = match s.s_phase with Begin -> "b" | End -> "e" | Instant -> "n" in
      let args b =
        Obj
          (only (b.bl_key >= 0) [ ("key", Int b.bl_key) ]
          @ only (b.bl_blocker >= 0)
              [ ("blocker", Int b.bl_blocker);
                ("blocker_class", Str (if b.bl_blocker_high then "high" else "low")) ]
          @ only (b.bl_node >= 0) [ ("node", Int b.bl_node) ])
      in
      event s.s_name "txn" ph
        ([ ("id", Int s.s_txn); ("ts", us s.s_at); ("pid", Int 1); ("tid", Int s.s_tid) ]
        @ some "args" (Option.map args s.s_blame))
  | Fault f ->
      event f.f_name "fault" "i"
        [ ("s", Str "g"); ("ts", us f.f_at); ("pid", Int 2); ("tid", Int 0) ]

let push t ev =
  let n = t.n_events in
  if n = Array.length t.events then t.events <- Array.append t.events (Array.make (max 1024 n) ev);
  t.events.(n) <- ev;
  t.n_events <- n + 1

let message t ~kind ?txn ?priority ~src ~dst ~src_dc ~dst_dc ~bytes ~enqueue ~depart
    ~deliver () =
  if not t.on then None
  else begin
    let m =
      {
        m_kind = kind;
        m_txn = txn;
        m_priority = priority;
        m_src = src;
        m_dst = dst;
        m_src_dc = src_dc;
        m_dst_dc = dst_dc;
        m_bytes = bytes;
        m_enqueue = enqueue;
        m_depart = depart;
        m_deliver = deliver;
        m_dequeue = None;
      }
    in
    push t (Message m);
    Some m
  end

let set_dequeue m at = m.m_dequeue <- Some at

let span ?blame t ~txn ~name ~phase ~tid ~at =
  if t.on then
    push t
      (Span
         { s_txn = txn; s_name = name; s_phase = phase; s_tid = tid; s_at = at; s_blame = blame })

let span_begin t ~txn ~name ~at = span t ~txn ~name ~phase:Begin ~tid:0 ~at
let span_end ?blame t ~txn ~name ~at = span ?blame t ~txn ~name ~phase:End ~tid:0 ~at
let instant t ?(tid = 0) ~txn ~name ~at () = span t ~txn ~name ~phase:Instant ~tid ~at

(* Fault events live on their own process track and are not messages, so
   the invariant "sum over kinds equals messages_sent" keeps holding under
   fault injection. *)
let fault t ~name ~at = if t.on then push t (Fault { f_name = name; f_at = at })

let blame_suffix = function
  | None -> ""
  | Some b ->
      let buf = Buffer.create 24 in
      if b.bl_key >= 0 then Buffer.add_string buf (Printf.sprintf " key=%d" b.bl_key);
      if b.bl_blocker >= 0 then
        Buffer.add_string buf
          (Printf.sprintf " blocked-by=%d(%s)" b.bl_blocker
             (if b.bl_blocker_high then "high" else "low"));
      if b.bl_node >= 0 then Buffer.add_string buf (Printf.sprintf " node=%d" b.bl_node);
      Buffer.contents buf

let span_label (s : span) =
  let name =
    match s.s_phase with
    | Begin -> s.s_name ^ ":begin"
    | End -> s.s_name ^ ":end"
    | Instant -> s.s_name
  in
  name ^ blame_suffix s.s_blame

let iter_events t f = Array.iteri (fun i ev -> if i < t.n_events then f ev) t.events

let kind_counts t =
  let counts = Hashtbl.create 32 in
  iter_events t (function
    | Message m ->
        Hashtbl.replace counts m.m_kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts m.m_kind))
    | Span _ | Fault _ -> ());
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [] |> List.sort compare

let total_messages t = List.fold_left (fun n (_, k) -> n + k) 0 (kind_counts t)

let event_count t = t.n_events

let write_chrome_trace t ?(extra = []) oc =
  let process pid name =
    Obj
      [ ("name", Str "process_name"); ("ph", Str "M"); ("pid", Int pid);
        ("args", Obj [ ("name", Str name) ]) ]
  in
  let counts = List.map (fun (k, n) -> ("messages." ^ k, n)) (kind_counts t) in
  let other_data =
    List.map (fun (k, n) -> (k, string_of_int n)) (("total_messages", total_messages t) :: counts)
  in
  let processes = [ process 0 "network"; process 1 "transactions"; process 2 "faults" ] in
  let events = Seq.map event_json (Seq.take t.n_events (Array.to_seq t.events)) in
  output_json oc
    (Obj
       [ ("displayTimeUnit", Str "ms");
         ("otherData", Obj (List.map (fun (k, v) -> (k, Str v)) (other_data @ extra)));
         ("traceEvents", Seq (Seq.append (List.to_seq processes) events)) ])
