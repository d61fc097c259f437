open Simcore
module Net = Netsim.Network
module Msg = Netsim.Msg

type config = unit

let default_config = ()
let max_hold = Sim_time.us 800
let max_msgs = 64
let max_bytes = 48 * 1024
let cut_priority = 1
let marginal_cpu_pct = 10

type flush_reason = Idle | Timer | Size_cap | Byte_cap | Cut_through

(* A queued message plus the time it arrived at the batcher, for hold-time
   accounting and the retroactive "batching" attribution span. *)
type pending = { p_item : Net.batch_item; p_at : Sim_time.t }

type conn = {
  c_src : int;
  c_dst : int;
  mutable q : pending list;  (* newest first *)
  mutable q_len : int;
  mutable q_bytes : int;
  mutable timer : Engine.handle option;
}

type stats = {
  s_envelopes : int;
  s_messages : int;
  s_held : int;
  s_hold_us : int;
  s_occupancy : int array;
  s_flushes : (string * int) list;
}

type t = {
  net : Net.t;
  engine : Engine.t;
  msg_cost_us : int;
  conns : (int * int, conn) Hashtbl.t;
  occupancy : int array;  (* index: envelope size, clamped to max_msgs *)
  mutable held : int;  (* messages that waited (flushed with hold > 0) *)
  mutable hold_us : int;
  mutable pending_msgs : int;
  mutable f_idle : int;
  mutable f_timer : int;
  mutable f_size : int;
  mutable f_bytes : int;
  mutable f_cut : int;
}

let cancel_timer t conn =
  match conn.timer with
  | Some h ->
      Engine.cancel t.engine h;
      conn.timer <- None
  | None -> ()

let flush t conn ~reason =
  cancel_timer t conn;
  match conn.q with
  | [] -> ()
  | rev ->
      let msgs = List.rev rev in
      let n = conn.q_len in
      conn.q <- [];
      conn.q_len <- 0;
      conn.q_bytes <- 0;
      t.pending_msgs <- t.pending_msgs - n;
      let now = Engine.now t.engine in
      let trace = Net.trace t.net in
      let recording = Trace.enabled trace in
      List.iter
        (fun p ->
          let held_us = Sim_time.to_us (Sim_time.sub now p.p_at) in
          if held_us > 0 then begin
            t.held <- t.held + 1;
            t.hold_us <- t.hold_us + held_us;
            (* Retroactive span: the attribution engine charges the wait
               between enqueue and flush to the "batching" segment. *)
            match Msg.txn p.p_item.Net.bi_msg with
            | Some txn when recording ->
                Trace.span_begin trace ~txn ~name:"batching" ~at:p.p_at;
                (* Blame identity: the link's destination node — batching
                   delay belongs to a connection, not to a blocking txn. *)
                Trace.span_end trace ~txn ~name:"batching" ~at:now
                  ~blame:{ Trace.no_blame with bl_node = conn.c_dst }
            | _ -> ()
          end)
        msgs;
      t.occupancy.(min n max_msgs) <- t.occupancy.(min n max_msgs) + 1;
      (match reason with
      | Idle -> t.f_idle <- t.f_idle + 1
      | Timer -> t.f_timer <- t.f_timer + 1
      | Size_cap -> t.f_size <- t.f_size + 1
      | Byte_cap -> t.f_bytes <- t.f_bytes + 1
      | Cut_through -> t.f_cut <- t.f_cut + 1);
      (* The first message pays the full per-RPC CPU cost; the rest ride at
         the marginal rate — the receive-side half of the amortization. *)
      let cpu_cost =
        Sim_time.us
          (t.msg_cost_us + ((n - 1) * t.msg_cost_us * marginal_cpu_pct / 100))
      in
      Net.send_batch t.net ~src:conn.c_src ~dst:conn.c_dst ~cpu_cost
        (List.map (fun p -> p.p_item) msgs)

let conn_of t ~src ~dst =
  match Hashtbl.find_opt t.conns (src, dst) with
  | Some c -> c
  | None ->
      let c = { c_src = src; c_dst = dst; q = []; q_len = 0; q_bytes = 0; timer = None } in
      Hashtbl.replace t.conns (src, dst) c;
      c

(* Flush policy, evaluated on every enqueue:
   - a high-priority message cuts the batch boundary: the connection
     flushes immediately with the newcomer riding the just-sealed
     envelope, so priority traffic never waits out a hold timer;
   - full batches (count or bytes) flush;
   - otherwise, the first message onto an empty queue flushes immediately
     when the path is idle (link transmission queue empty and the
     destination CPU unoccupied — batching would only add latency), and
     arms the hold timer when the path is busy, growing the batch while
     the bottleneck works off its backlog (Little's-law adaptivity). *)
let enqueue t ~src ~dst msg f =
  let conn = conn_of t ~src ~dst in
  let now = Engine.now t.engine in
  let was_empty = conn.q_len = 0 in
  conn.q <- { p_item = { Net.bi_msg = msg; bi_f = f }; p_at = now } :: conn.q;
  conn.q_len <- conn.q_len + 1;
  conn.q_bytes <- conn.q_bytes + Msg.bytes msg + Net.batch_frame_bytes;
  t.pending_msgs <- t.pending_msgs + 1;
  let cut = match Msg.priority msg with Some p -> p >= cut_priority | None -> false in
  if cut then flush t conn ~reason:Cut_through
  else if conn.q_len >= max_msgs then flush t conn ~reason:Size_cap
  else if conn.q_bytes >= max_bytes then flush t conn ~reason:Byte_cap
  else if was_empty then begin
    let src_dc = Net.dc_of t.net src and dst_dc = Net.dc_of t.net dst in
    let path_idle =
      Net.link_queue_us t.net ~src_dc ~dst_dc ~now = 0 && Net.cpu_depth t.net ~node:dst = 0
    in
    if path_idle then flush t conn ~reason:Idle
    else
      conn.timer <-
        Some
          (Engine.schedule_after t.engine max_hold (fun () ->
               conn.timer <- None;
               flush t conn ~reason:Timer))
  end

let create ~net () =
  let engine = Net.engine net in
  let t =
    {
      net;
      engine;
      msg_cost_us = Sim_time.to_us (Net.config net).Net.msg_cost;
      conns = Hashtbl.create 256;
      occupancy = Array.make (max_msgs + 1) 0;
      held = 0;
      hold_us = 0;
      pending_msgs = 0;
      f_idle = 0;
      f_timer = 0;
      f_size = 0;
      f_bytes = 0;
      f_cut = 0;
    }
  in
  Net.set_batcher net (enqueue t);
  t

let pending t = t.pending_msgs

let stats t =
  {
    s_envelopes = Net.envelopes_sent t.net;
    s_messages = Net.batched_messages t.net;
    s_held = t.held;
    s_hold_us = t.hold_us;
    s_occupancy = Array.copy t.occupancy;
    s_flushes =
      [
        ("idle", t.f_idle);
        ("timer", t.f_timer);
        ("size", t.f_size);
        ("bytes", t.f_bytes);
        ("cut", t.f_cut);
      ];
  }

let mean_occupancy s =
  if s.s_envelopes = 0 then 0. else float_of_int s.s_messages /. float_of_int s.s_envelopes
