open Simcore

type config = {
  msg_cost : Sim_time.t;
  cv_override : float option;
  loss : float;
}

let default_config =
  {
    (* ~25us of CPU per RPC spread over the 8-12 cores of the paper's
       machines, modelled as a single faster queueing station. *)
    msg_cost = Sim_time.us 3;
    cv_override = None;
    loss = 0.0;
  }

(* Minimum TCP retransmission timeout. *)
let rto_floor = Sim_time.ms 200.

let wan_bandwidth_mbps = 1000.
let mathis_flows = 16.
let header_bytes = 96
let pareto_threshold = 0.005

type batch_item = { bi_msg : Msg.t; bi_f : unit -> unit }

type t = {
  engine : Engine.t;
  rng : Rng.t;
  topo : Topology.t;
  node_dc : int array;
  cpus : Cpu.t array;
  config : config;
  trace : Trace.t;
  mutable batcher : (src:int -> dst:int -> Msg.t -> (unit -> unit) -> unit) option;
      (** when set (by [Rpc.Batcher.create]), {!send} diverts every message
          between two distinct nodes through it; [None] keeps the unbatched
          path byte-identical *)
  mutable envelopes : int;
  mutable batched_msgs : int;
  mutable faults_on : bool;
      (** set when a fault schedule is installed; protocols consult it to
          arm failover watchdogs (zero-cost in fault-free runs) *)
  node_down : bool array;  (** per node: messages to/from it are dropped *)
  dc_cut : bool array array;  (** directed DC pair: link partitioned *)
  mutable drops : int;
  link_free_at : Sim_time.t array array;  (** directed DC pair queue *)
  link_rate : float array array;  (** bytes per microsecond *)
  n_nodes : int;  (** packs a connection as [src * n_nodes + dst] *)
  fifo_last : Int_table.t;
      (** per packed (src, dst) connection: last scheduled delivery, for
          TCP-like per-connection ordering *)
  stall_until : Int_table.t;
      (** per connection: end of the current loss-recovery stall; a pipe is
          stalled at most once per RTO (SACK repairs all losses in a
          window together) *)
  mutable next_prune : Sim_time.t;
      (** next sweep of the per-connection tables; see [prune] *)
  mutable depart : Sim_time.t;
      (** departure time of the message [wire] last put on a link, read by
          the caller's trace *)
  mutable messages : int;
  mutable bytes : int;
  kind_msgs : int array;  (** per {!Msg.index}, then [dropped_slot] *)
  kind_bytes : int array;
  link_msgs : int array array;  (** per directed DC pair *)
  mutable retrans : int;
      (** cross-DC messages that lost a packet and paid (or joined) a
          retransmission stall *)
}

let mss_bytes = 1460.
let mathis_c = 1.22

(* Effective capacity of a directed DC link in bytes per microsecond. *)
let effective_rate config topo a b =
  let base = wan_bandwidth_mbps *. 1e6 /. 8. /. 1e6 in
  if config.loss <= 0.0 || a = b then base
  else begin
    let rtt_s = Topology.rtt_ms topo a b /. 1e3 in
    let per_flow = mathis_c *. mss_bytes /. (rtt_s *. sqrt config.loss) in
    let tcp = mathis_flows *. per_flow /. 1e6 in
    Float.min base tcp
  end

let create ~engine ~rng ~topo ~node_dc ~cpus ?(config = default_config)
    ?(trace = Trace.create ()) () =
  let n = Topology.n_dcs topo in
  let link_rate =
    Array.init n (fun a -> Array.init n (fun b -> effective_rate config topo a b))
  in
  {
    engine;
    rng;
    topo;
    node_dc;
    cpus;
    config;
    trace;
    batcher = None;
    envelopes = 0;
    batched_msgs = 0;
    faults_on = false;
    node_down = Array.make (Array.length node_dc) false;
    dc_cut = Array.make_matrix n n false;
    drops = 0;
    link_free_at = Array.make_matrix n n Sim_time.zero;
    link_rate;
    n_nodes = Array.length node_dc;
    fifo_last = Int_table.create ~capacity:4096 ();
    stall_until = Int_table.create ~capacity:4096 ();
    next_prune = Sim_time.seconds 1.;
    depart = Sim_time.zero;
    messages = 0;
    bytes = 0;
    kind_msgs = Array.make (Msg.n_kinds + 1) 0;
    kind_bytes = Array.make (Msg.n_kinds + 1) 0;
    link_msgs = Array.make_matrix n n 0;
    retrans = 0;
  }

let engine t = t.engine
let dc_of t node = t.node_dc.(node)
let trace t = t.trace

(* --- fault injection --- *)

let set_faults_active t on = t.faults_on <- on
let faults_active t = t.faults_on

let set_node_down t ~node ~down =
  t.faults_on <- true;
  t.node_down.(node) <- down

let node_is_down t node = t.node_down.(node)

let set_dc_cut t ~a ~b ~cut =
  t.faults_on <- true;
  t.dc_cut.(a).(b) <- cut;
  t.dc_cut.(b).(a) <- cut

let dropped t = t.drops

let sample_owd t ~src_dc ~dst_dc =
  let mean = Topology.owd_ms t.topo src_dc dst_dc in
  let cv =
    match t.config.cv_override with
    | Some cv when src_dc <> dst_dc -> cv
    | _ ->
        if src_dc = dst_dc then 0.001
        else t.topo.Topology.link_cv.(src_dc).(dst_dc)
  in
  let sampled =
    if cv <= 0.0 then mean
    else if cv <= pareto_threshold then
      Rng.normal t.rng ~mean ~stddev:(mean *. cv)
    else Rng.pareto t.rng ~mean ~cv
  in
  (* A message can never beat light: floor at 80% of the topological mean. *)
  let floored = Float.max sampled (0.8 *. mean) in
  Sim_time.ms (Float.max floored 0.02)

(* A message that loses a packet stalls its connection for one RTO; losses
   during an ongoing stall are repaired within it (SACK-style), so a pipe
   pays at most one RTO per recovery window and high-rate connections stay
   stable under small loss rates. *)
let retrans_delay t ~conn ~src_dc ~dst_dc =
  if t.config.loss <= 0.0 || src_dc = dst_dc then Sim_time.zero
  else if not (Rng.bernoulli t.rng ~p:t.config.loss) then Sim_time.zero
  else begin
    t.retrans <- t.retrans + 1;
    let rtt = Sim_time.ms (Topology.rtt_ms t.topo src_dc dst_dc) in
    let rto = Sim_time.max rto_floor (Sim_time.add rtt rtt) in
    let now = Engine.now t.engine in
    let until = Int_table.find_default t.stall_until conn Sim_time.zero in
    if until > now then Sim_time.zero (* repaired within the current stall *)
    else begin
      Int_table.set t.stall_until conn (Sim_time.add now rto);
      rto
    end
  end

let transmission_depart t ~src_dc ~dst_dc ~bytes =
  let now = Engine.now t.engine in
  if src_dc = dst_dc then now
  else begin
    let rate = t.link_rate.(src_dc).(dst_dc) in
    let tx = Sim_time.us (int_of_float (Float.ceil (float_of_int bytes /. rate))) in
    let start = Sim_time.max now t.link_free_at.(src_dc).(dst_dc) in
    let depart = Sim_time.add start tx in
    t.link_free_at.(src_dc).(dst_dc) <- depart;
    depart
  end

(* The per-connection tables only influence scheduling through entries in
   the future: a new message's raw arrival is strictly after [now] (the
   one-way delay is floored at 20us even same-node / intra-DC), so a
   [fifo_last] entry at or before [now] can never reorder it, and a
   [stall_until] entry at or before [now] is replaced on the next loss.
   Sweeping such dead entries out once per simulated second bounds both
   tables by the number of connections active within the last second,
   instead of every (src, dst) pair ever used. *)
let prune_interval = Sim_time.seconds 1.

let prune t ~now =
  let alive v = v > now in
  Int_table.filter_values t.fifo_last alive;
  Int_table.filter_values t.stall_until alive;
  t.next_prune <- Sim_time.add now prune_interval

(* What [wire] returns for a message that fault injection drops. *)
let no_arrival = -1

(* The wire model, shared by single messages and batch envelopes: the
   fault drop check, the table sweep, then the departure, propagation and
   retransmission draws (in that order — it is part of every seed's
   output) and, when [fifo], the per-connection ordering clamp. A dead
   sender cannot transmit, a dead receiver cannot hear, and a partitioned
   link delivers nothing: such a message gets [no_arrival]. Otherwise the
   result is its arrival time, and [t.depart] holds its departure. *)
let wire t ~src ~dst ~src_dc ~dst_dc ~bytes ~fifo =
  if t.faults_on && (t.node_down.(src) || t.node_down.(dst) || t.dc_cut.(src_dc).(dst_dc))
  then no_arrival
  else begin
    let now = Engine.now t.engine in
    if now >= t.next_prune then prune t ~now;
    if src = dst then begin
      t.depart <- now;
      Sim_time.add now (Sim_time.us 20)
    end
    else begin
      let conn = (src * t.n_nodes) + dst in
      let depart = transmission_depart t ~src_dc ~dst_dc ~bytes in
      let owd = sample_owd t ~src_dc ~dst_dc in
      let retrans = retrans_delay t ~conn ~src_dc ~dst_dc in
      t.depart <- depart;
      let arrival = Sim_time.add depart (Sim_time.add owd retrans) in
      if not fifo then arrival
      else begin
        let last = Int_table.find_default t.fifo_last conn Sim_time.zero in
        let ordered = if last >= arrival then Sim_time.add last (Sim_time.us 1) else arrival in
        Int_table.set t.fifo_last conn ordered;
        ordered
      end
    end
  end

(* The ledger's slot for messages fault injection dropped. *)
let dropped_slot = Msg.n_kinds

(* Account one message that [wire] returned [arrival] for: always in the
   ledger, and in the trace when it is enabled (then the result is its
   trace record). A dropped message counts under its own kind ["dropped"],
   so per-kind counts still sum to [messages_sent]. *)
let account t msg ~src ~dst ~src_dc ~dst_dc ~bytes ~arrival =
  let dropped = arrival = no_arrival in
  let k = if dropped then dropped_slot else Msg.index msg in
  t.kind_msgs.(k) <- t.kind_msgs.(k) + 1;
  t.kind_bytes.(k) <- t.kind_bytes.(k) + bytes;
  let row = t.link_msgs.(src_dc) in
  row.(dst_dc) <- row.(dst_dc) + 1;
  if not (Trace.enabled t.trace) then None
  else begin
    let now = Engine.now t.engine in
    Trace.message t.trace
      ~kind:(if dropped then "dropped" else Msg.label msg)
      ?txn:(Msg.txn msg) ?priority:(Msg.priority msg) ~src ~dst ~src_dc ~dst_dc ~bytes
      ~enqueue:now
      ~depart:(if dropped then now else t.depart)
      ~deliver:(if dropped then now else arrival)
      ()
  end

let deliver t ~src ~dst ~msg ~to_cpu f =
  let src_dc = t.node_dc.(src) and dst_dc = t.node_dc.(dst) in
  let bytes = Msg.bytes msg + header_bytes in
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + bytes;
  (* RPC transports (gRPC over TCP) deliver in order per connection; probes
     (to_cpu = false) model UDP and may reorder. *)
  let arrival = wire t ~src ~dst ~src_dc ~dst_dc ~bytes ~fifo:to_cpu in
  let h = account t msg ~src ~dst ~src_dc ~dst_dc ~bytes ~arrival in
  if arrival = no_arrival then t.drops <- t.drops + 1
  else begin
    let f =
      match h with
      | None -> f
      | Some h ->
          fun () ->
            Trace.set_dequeue h (Engine.now t.engine);
            f ()
    in
    (* An isolated message's handler is the event itself. *)
    ignore
      (Engine.schedule_at t.engine arrival
         (if to_cpu then fun () -> Cpu.submit t.cpus.(dst) ~cost:t.config.msg_cost f else f))
  end

let send t ~src ~dst ~msg f =
  match t.batcher with
  | Some enqueue when src <> dst -> enqueue ~src ~dst msg f
  | _ -> deliver t ~src ~dst ~msg ~to_cpu:true f

let send_isolated t ~src ~dst ~msg f = deliver t ~src ~dst ~msg ~to_cpu:false f

(* --- batch envelopes --- *)

let set_batcher t enqueue = t.batcher <- Some enqueue

(* Per-message framing inside an envelope (length prefix + kind tag); the
   header is paid once per envelope instead of once per message — that is
   the wire-level amortization batching buys. *)
let batch_frame_bytes = 4

(* Account an envelope's messages in order, its header charged to the
   first; the result is their trace records, [] with tracing off (a loop
   rather than a closure, so an untraced envelope allocates nothing). *)
let rec account_batch t ~src ~dst ~src_dc ~dst_dc ~arrival ~header acc = function
  | [] -> acc
  | m :: rest ->
      let bytes = Msg.bytes m.bi_msg + batch_frame_bytes + header in
      let acc =
        match account t m.bi_msg ~src ~dst ~src_dc ~dst_dc ~bytes ~arrival with
        | Some h -> h :: acc
        | None -> acc
      in
      account_batch t ~src ~dst ~src_dc ~dst_dc ~arrival ~header:0 acc rest

(* One coalesced envelope on the (src, dst) connection: a single
   transmission-queue occupancy, one propagation sample, one loss draw and
   one CPU job for the whole batch, with [cpu_cost] supplied by the caller
   (the batcher charges the first message full price and later ones a
   marginal cost). Every inner message is still accounted individually,
   with the envelope's wire bytes distributed so per-kind counts and bytes
   keep summing exactly to [messages_sent] / [bytes_sent]; a dropped
   envelope vanishes whole. *)
let send_batch t ~src ~dst ~cpu_cost msgs =
  match msgs with
  | [] -> ()
  | _ ->
      let src_dc = t.node_dc.(src) and dst_dc = t.node_dc.(dst) in
      let n = List.length msgs in
      let payload =
        List.fold_left (fun acc m -> acc + Msg.bytes m.bi_msg + batch_frame_bytes) 0 msgs
      in
      let bytes = payload + header_bytes in
      t.messages <- t.messages + n;
      t.bytes <- t.bytes + bytes;
      t.envelopes <- t.envelopes + 1;
      t.batched_msgs <- t.batched_msgs + n;
      let arrival = wire t ~src ~dst ~src_dc ~dst_dc ~bytes ~fifo:true in
      let handles =
        account_batch t ~src ~dst ~src_dc ~dst_dc ~arrival ~header:header_bytes [] msgs
      in
      if arrival = no_arrival then t.drops <- t.drops + n
      else
        ignore
          (Engine.schedule_at t.engine arrival (fun () ->
               Cpu.submit t.cpus.(dst) ~cost:cpu_cost (fun () ->
                   (match handles with
                   | [] -> ()
                   | hs ->
                       let d = Engine.now t.engine in
                       List.iter (fun h -> Trace.set_dequeue h d) hs);
                   List.iter (fun m -> m.bi_f ()) msgs)))

let envelopes_sent t = t.envelopes
let batched_messages t = t.batched_msgs
let config t = t.config
let cpu_depth t ~node = Cpu.pending_jobs t.cpus.(node)

let messages_sent t = t.messages
let bytes_sent t = t.bytes

(* --- traffic ledger --- *)

type ledger = {
  l_messages : int;
  l_bytes : int;
  l_kind_msgs : int array;
  l_kind_bytes : int array;
  l_links : int array array;
}

let ledger t =
  {
    l_messages = t.messages;
    l_bytes = t.bytes;
    l_kind_msgs = Array.copy t.kind_msgs;
    l_kind_bytes = Array.copy t.kind_bytes;
    l_links = Array.map Array.copy t.link_msgs;
  }

let no_traffic =
  {
    l_messages = 0;
    l_bytes = 0;
    l_kind_msgs = Array.make (Msg.n_kinds + 1) 0;
    l_kind_bytes = Array.make (Msg.n_kinds + 1) 0;
    l_links = [||];
  }

let add_ledgers a b =
  let n = max (Array.length a.l_links) (Array.length b.l_links) in
  (* Runs on smaller topologies count zero on the links they lack. *)
  let link l i j = if max i j < Array.length l.l_links then l.l_links.(i).(j) else 0 in
  {
    l_messages = a.l_messages + b.l_messages;
    l_bytes = a.l_bytes + b.l_bytes;
    l_kind_msgs = Array.map2 ( + ) a.l_kind_msgs b.l_kind_msgs;
    l_kind_bytes = Array.map2 ( + ) a.l_kind_bytes b.l_kind_bytes;
    l_links = Array.init n (fun i -> Array.init n (fun j -> link a i j + link b i j));
  }

let ledger_totals l = (l.l_messages, l.l_bytes)

let by_kind l =
  List.init (Msg.n_kinds + 1) (fun k ->
      let label = if k = dropped_slot then "dropped" else Msg.index_label k in
      (label, l.l_kind_msgs.(k), l.l_kind_bytes.(k)))
  |> List.filter (fun (_, n, _) -> n > 0)

let by_link l =
  let n = Array.length l.l_links in
  List.init n Fun.id
  |> List.concat_map (fun src -> List.init n (fun dst -> ((src, dst), l.l_links.(src).(dst))))
  |> List.filter (fun (_, n) -> n > 0)

let mean_owd t ~src ~dst =
  Sim_time.ms (Topology.owd_ms t.topo t.node_dc.(src) t.node_dc.(dst))

let fifo_entries t = Int_table.length t.fifo_last
let stall_entries t = Int_table.length t.stall_until
let retransmissions t = t.retrans

let link_queue_us t ~src_dc ~dst_dc ~now =
  Sim_time.to_us
    (Sim_time.max Sim_time.zero (Sim_time.sub t.link_free_at.(src_dc).(dst_dc) now))

let max_link_busy t =
  Array.fold_left
    (fun acc row -> Array.fold_left Sim_time.max acc row)
    Sim_time.zero t.link_free_at
