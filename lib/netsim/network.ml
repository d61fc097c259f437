open Simcore

type config = {
  msg_cost : Sim_time.t;
  cv_override : float option;
  loss : float;
  rto_floor : Sim_time.t;
  wan_bandwidth_mbps : float;
  mathis_flows : float;
  header_bytes : int;
  pareto_threshold : float;
}

let default_config =
  {
    (* ~25us of CPU per RPC spread over the 8-12 cores of the paper's
       machines, modelled as a single faster queueing station. *)
    msg_cost = Sim_time.us 3;
    cv_override = None;
    loss = 0.0;
    rto_floor = Sim_time.ms 200.;
    wan_bandwidth_mbps = 1000.;
    mathis_flows = 16.;
    header_bytes = 96;
    pareto_threshold = 0.005;
  }

type batch_item = {
  bi_kind : string;
  bi_txn : int option;
  bi_priority : int option;
  bi_bytes : int;
  bi_f : unit -> unit;
}

type batch_sink =
  kind:string ->
  txn:int option ->
  priority:int option ->
  src:int ->
  dst:int ->
  bytes:int ->
  (unit -> unit) ->
  unit

type t = {
  engine : Engine.t;
  rng : Rng.t;
  topo : Topology.t;
  node_dc : int array;
  cpus : Cpu.t array;
  config : config;
  trace : Trace.t;
  mutable batch_sink : batch_sink option;
      (** when set (by [Rpc.Batcher.install]), [Rpc.send] diverts through it
          instead of calling {!send}; [None] keeps the unbatched path
          byte-identical *)
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
  mutable messages : int;
  mutable bytes : int;
  mutable retrans : int;
      (** cross-DC messages that lost a packet and paid (or joined) a
          retransmission stall *)
}

let mss_bytes = 1460.
let mathis_c = 1.22

(* Effective capacity of a directed DC link in bytes per microsecond. *)
let effective_rate config topo a b =
  let base = config.wan_bandwidth_mbps *. 1e6 /. 8. /. 1e6 in
  if config.loss <= 0.0 || a = b then base
  else begin
    let rtt_s = Topology.rtt_ms topo a b /. 1e3 in
    let per_flow = mathis_c *. mss_bytes /. (rtt_s *. sqrt config.loss) in
    let tcp = config.mathis_flows *. per_flow /. 1e6 in
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
    batch_sink = None;
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
    messages = 0;
    bytes = 0;
    retrans = 0;
  }

let engine t = t.engine
let topology t = t.topo
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
    else if cv <= t.config.pareto_threshold then
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
    let rto = Sim_time.max t.config.rto_floor (Sim_time.add rtt rtt) in
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

let deliver t ?(kind = "other") ?txn ?priority ~src ~dst ~bytes ~to_cpu f =
  let src_dc = t.node_dc.(src) and dst_dc = t.node_dc.(dst) in
  let bytes = bytes + t.config.header_bytes in
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + bytes;
  if
    t.faults_on
    && (t.node_down.(src) || t.node_down.(dst) || t.dc_cut.(src_dc).(dst_dc))
  then begin
    (* A dead sender cannot transmit, a dead receiver cannot hear, and a
       partitioned link delivers nothing: the message vanishes. Traced under
       its own kind so per-kind counts still sum to [messages_sent]. *)
    t.drops <- t.drops + 1;
    if Trace.enabled t.trace then begin
      let now = Engine.now t.engine in
      ignore
        (Trace.message t.trace ~kind:"dropped" ?txn ?priority ~src ~dst ~src_dc ~dst_dc
           ~bytes ~enqueue:now ~depart:now ~deliver:now ())
    end
  end
  else begin
  let now = Engine.now t.engine in
  if now >= t.next_prune then prune t ~now;
  let conn = (src * t.n_nodes) + dst in
  let depart, arrival =
    if src = dst then (now, Sim_time.add now (Sim_time.us 20))
    else begin
      let depart = transmission_depart t ~src_dc ~dst_dc ~bytes in
      let owd = sample_owd t ~src_dc ~dst_dc in
      let retrans = retrans_delay t ~conn ~src_dc ~dst_dc in
      (depart, Sim_time.add depart (Sim_time.add owd retrans))
    end
  in
  (* RPC transports (gRPC over TCP) deliver in order per connection; probes
     (to_cpu = false) model UDP and may reorder. *)
  let arrival =
    if to_cpu && src <> dst then begin
      let last = Int_table.find_default t.fifo_last conn Sim_time.zero in
      let ordered = if last >= arrival then Sim_time.add last (Sim_time.us 1) else arrival in
      Int_table.set t.fifo_last conn ordered;
      ordered
    end
    else arrival
  in
  let f =
    if not (Trace.enabled t.trace) then f
    else
      match
        Trace.message t.trace ~kind ?txn ?priority ~src ~dst ~src_dc ~dst_dc ~bytes
          ~enqueue:now ~depart ~deliver:arrival ()
      with
      | None -> f
      | Some h ->
          fun () ->
            Trace.set_dequeue h (Engine.now t.engine);
            f ()
  in
  ignore
    (Engine.schedule_at t.engine arrival (fun () ->
         if to_cpu then Cpu.submit t.cpus.(dst) ~cost:t.config.msg_cost f
         else f ()))
  end

let send t ?kind ?txn ?priority ~src ~dst ~bytes f =
  deliver t ?kind ?txn ?priority ~src ~dst ~bytes ~to_cpu:true f

let send_isolated t ?kind ?txn ?priority ~src ~dst ~bytes f =
  deliver t ?kind ?txn ?priority ~src ~dst ~bytes ~to_cpu:false f

(* --- batch envelopes --- *)

let set_batch_sink t sink = t.batch_sink <- sink
let batch_sink t = t.batch_sink

(* Per-message framing inside an envelope (length prefix + kind tag); the
   header is paid once per envelope instead of once per message — that is
   the wire-level amortization batching buys. *)
let batch_frame_bytes = 4

(* One coalesced envelope on the (src, dst) connection: a single
   transmission-queue occupancy, one propagation sample, one loss draw and
   one CPU job for the whole batch, with [cpu_cost] supplied by the caller
   (the batcher charges the first message full price and later ones a
   marginal cost). Every inner message is still traced individually, with
   the envelope's wire bytes distributed so per-kind counts and bytes keep
   summing exactly to [messages_sent] / [bytes_sent]. *)
let send_batch t ~src ~dst ~cpu_cost msgs =
  match msgs with
  | [] -> ()
  | _ ->
      let src_dc = t.node_dc.(src) and dst_dc = t.node_dc.(dst) in
      let n = List.length msgs in
      let payload =
        List.fold_left (fun acc m -> acc + m.bi_bytes + batch_frame_bytes) 0 msgs
      in
      let bytes = payload + t.config.header_bytes in
      let msg_bytes i m =
        m.bi_bytes + batch_frame_bytes + if i = 0 then t.config.header_bytes else 0
      in
      t.messages <- t.messages + n;
      t.bytes <- t.bytes + bytes;
      t.envelopes <- t.envelopes + 1;
      t.batched_msgs <- t.batched_msgs + n;
      if
        t.faults_on
        && (t.node_down.(src) || t.node_down.(dst) || t.dc_cut.(src_dc).(dst_dc))
      then begin
        (* The whole envelope vanishes together, like the single-message
           path: traced per inner message under kind "dropped". *)
        t.drops <- t.drops + n;
        if Trace.enabled t.trace then begin
          let now = Engine.now t.engine in
          List.iteri
            (fun i m ->
              ignore
                (Trace.message t.trace ~kind:"dropped" ?txn:m.bi_txn ?priority:m.bi_priority
                   ~src ~dst ~src_dc ~dst_dc ~bytes:(msg_bytes i m) ~enqueue:now ~depart:now
                   ~deliver:now ()))
            msgs
        end
      end
      else begin
        let now = Engine.now t.engine in
        if now >= t.next_prune then prune t ~now;
        let conn = (src * t.n_nodes) + dst in
        let depart, arrival =
          if src = dst then (now, Sim_time.add now (Sim_time.us 20))
          else begin
            let depart = transmission_depart t ~src_dc ~dst_dc ~bytes in
            let owd = sample_owd t ~src_dc ~dst_dc in
            let retrans = retrans_delay t ~conn ~src_dc ~dst_dc in
            (depart, Sim_time.add depart (Sim_time.add owd retrans))
          end
        in
        let arrival =
          if src <> dst then begin
            let last = Int_table.find_default t.fifo_last conn Sim_time.zero in
            let ordered =
              if last >= arrival then Sim_time.add last (Sim_time.us 1) else arrival
            in
            Int_table.set t.fifo_last conn ordered;
            ordered
          end
          else arrival
        in
        let handles =
          if not (Trace.enabled t.trace) then []
          else
            List.mapi
              (fun i m ->
                Trace.message t.trace ~kind:m.bi_kind ?txn:m.bi_txn ?priority:m.bi_priority
                  ~src ~dst ~src_dc ~dst_dc ~bytes:(msg_bytes i m) ~enqueue:now ~depart
                  ~deliver:arrival ())
              msgs
            |> List.filter_map Fun.id
        in
        ignore
          (Engine.schedule_at t.engine arrival (fun () ->
               Cpu.submit t.cpus.(dst) ~cost:cpu_cost (fun () ->
                   (match handles with
                   | [] -> ()
                   | hs ->
                       let d = Engine.now t.engine in
                       List.iter (fun h -> Trace.set_dequeue h d) hs);
                   List.iter (fun m -> m.bi_f ()) msgs)))
      end

let envelopes_sent t = t.envelopes
let batched_messages t = t.batched_msgs
let config t = t.config
let cpu_depth t ~node = Cpu.pending_jobs t.cpus.(node)

let messages_sent t = t.messages
let bytes_sent t = t.bytes

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
