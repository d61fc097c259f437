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
  mutable events : event list;  (** reversed; reversed back on output *)
  mutable n_events : int;
  mutable txn_index : (int, span list ref) Hashtbl.t option;
      (** built on a {!txn_events} lookup: per-txn spans, most-recent-first
          (same convention as [events]); a push drops it *)
}

let create () = { on = false; events = []; n_events = 0; txn_index = None }
let enable t = t.on <- true
let enabled t = t.on

(* ------------------------------------------------------------------ *)
(* Chrome trace viewer (chrome://tracing, Perfetto) JSON.

   Message deliveries are complete ("X") events on pid 0, one thread per
   destination node, spanning network enqueue to delivery; the CPU
   completion time, when known, rides in args. Transaction lifecycle spans
   are async ("b"/"e"/"n") events on pid 1, keyed by transaction id. All
   timestamps are simulated microseconds. *)

let json_escape s =
  (* Kind and span names are controlled identifiers, but escape anyway so a
     future caller cannot produce invalid JSON. *)
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let write_msg_event oc first (m : message) =
  if not !first then output_string oc ",\n";
  first := false;
  Printf.fprintf oc
    "{\"name\":\"%s\",\"cat\":\"msg\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":0,\"tid\":%d,\"args\":{\"src\":%d,\"dst\":%d,\"src_dc\":%d,\"dst_dc\":%d,\"bytes\":%d,\"depart_us\":%d"
    (json_escape m.m_kind) (Sim_time.to_us m.m_enqueue)
    (Sim_time.to_us (Sim_time.sub m.m_deliver m.m_enqueue))
    m.m_dst m.m_src m.m_dst m.m_src_dc m.m_dst_dc m.m_bytes (Sim_time.to_us m.m_depart);
  (match m.m_dequeue with
  | Some d -> Printf.fprintf oc ",\"cpu_done_us\":%d" (Sim_time.to_us d)
  | None -> ());
  (match m.m_txn with Some id -> Printf.fprintf oc ",\"txn\":%d" id | None -> ());
  (match m.m_priority with Some p -> Printf.fprintf oc ",\"priority\":%d" p | None -> ());
  output_string oc "}}"

let write_span_event oc first (s : span) =
  if not !first then output_string oc ",\n";
  first := false;
  let ph = match s.s_phase with Begin -> "b" | End -> "e" | Instant -> "n" in
  Printf.fprintf oc
    "{\"name\":\"%s\",\"cat\":\"txn\",\"ph\":\"%s\",\"id\":%d,\"ts\":%d,\"pid\":1,\"tid\":%d"
    (json_escape s.s_name) ph s.s_txn (Sim_time.to_us s.s_at) s.s_tid;
  (match s.s_blame with
  | Some b ->
      output_string oc ",\"args\":{";
      let first_arg = ref true in
      let field k v =
        if not !first_arg then output_string oc ",";
        first_arg := false;
        Printf.fprintf oc "\"%s\":%s" k v
      in
      if b.bl_key >= 0 then field "key" (string_of_int b.bl_key);
      if b.bl_blocker >= 0 then begin
        field "blocker" (string_of_int b.bl_blocker);
        field "blocker_class" (if b.bl_blocker_high then "\"high\"" else "\"low\"")
      end;
      if b.bl_node >= 0 then field "node" (string_of_int b.bl_node);
      output_string oc "}"
  | None -> ());
  output_string oc "}"

let write_fault_event oc first (f : fault) =
  if not !first then output_string oc ",\n";
  first := false;
  Printf.fprintf oc
    "{\"name\":\"%s\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\"ts\":%d,\"pid\":2,\"tid\":0}"
    (json_escape f.f_name) (Sim_time.to_us f.f_at)

let write_event oc first = function
  | Message m -> write_msg_event oc first m
  | Span s -> write_span_event oc first s
  | Fault f -> write_fault_event oc first f

let index_span idx (s : span) =
  match Hashtbl.find_opt idx s.s_txn with
  | Some r -> r := s :: !r
  | None -> Hashtbl.replace idx s.s_txn (ref [ s ])

let push t ev =
  t.n_events <- t.n_events + 1;
  t.events <- ev :: t.events;
  if Option.is_some t.txn_index then t.txn_index <- None

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

(* The checker (and the blame profiler's tail exemplars) look up transactions
   one at a time, so a full O(events) scan per lookup was quadratic over a
   counterexample cycle. Lookups come after the run, so the index is built
   by a single pass over the buffer on the first lookup after a push. *)
let txn_index t =
  match t.txn_index with
  | Some idx -> idx
  | None ->
      let idx = Hashtbl.create 256 in
      (* [t.events] is most-recent-first; [index_span] conses, so walking
         oldest-first keeps each per-txn list most-recent-first too. *)
      List.iter (function Span s -> index_span idx s | _ -> ()) (List.rev t.events);
      t.txn_index <- Some idx;
      idx

let txn_events t ~txn =
  match Hashtbl.find_opt (txn_index t) txn with
  | None -> []
  | Some spans ->
      (* most-recent-first, so a left fold that conses yields chronological
         order. *)
      List.fold_left (fun acc s -> (span_label s, s.s_at) :: acc) [] !spans

let iter_events t f = List.iter f (List.rev t.events)

let kind_counts t =
  let counts = Hashtbl.create 32 in
  List.iter
    (function
      | Message m ->
          Hashtbl.replace counts m.m_kind
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts m.m_kind))
      | Span _ | Fault _ -> ())
    t.events;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [] |> List.sort compare

let total_messages t =
  List.fold_left (fun n -> function Message _ -> n + 1 | Span _ | Fault _ -> n) 0 t.events

let event_count t = t.n_events

let other_data t extra =
  ("total_messages", string_of_int (total_messages t))
  :: List.map (fun (k, n) -> ("messages." ^ k, string_of_int n)) (kind_counts t)
  @ extra

let write_other_data t ~extra oc =
  let first = ref true in
  List.iter
    (fun (k, v) ->
      if not !first then output_string oc ",";
      first := false;
      Printf.fprintf oc "\"%s\":\"%s\"" (json_escape k) (json_escape v))
    (other_data t extra)

let write_chrome_trace t ?(extra = []) oc =
  output_string oc "{\"displayTimeUnit\":\"ms\",\n\"otherData\":{";
  write_other_data t ~extra oc;
  output_string oc "},\n\"traceEvents\":[\n";
  output_string oc
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"network\"}},\n";
  output_string oc
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"transactions\"}},\n";
  output_string oc
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"faults\"}}";
  let first = ref false in
  iter_events t (write_event oc first);
  output_string oc "\n]}\n"
