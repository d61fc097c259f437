open Simcore
open Txnkit

type config = {
  rate_tps : float;
  duration : Sim_time.t;
  warmup : Sim_time.t;
  cooldown : Sim_time.t;
  high_fraction : float;
  max_retries : int;
  drain : Sim_time.t;
  seed : int;
  partial_abort : bool;
}

let default_config =
  {
    rate_tps = 50.;
    duration = Sim_time.seconds 20.;
    warmup = Sim_time.seconds 5.;
    cooldown = Sim_time.seconds 5.;
    high_fraction = 0.1;
    max_retries = 100;
    drain = Sim_time.seconds 40.;
    seed = 1;
    partial_abort = false;
  }

type result = {
  high_latencies_ms : float array;
  low_latencies_ms : float array;
  commit_log : (float * float * bool) array;
  committed_high : int;
  committed_low : int;
  failed : int;
  unfinished : int;
  total_attempts : int;
  total_aborts : int;
  spec_aborts : int;
  partial_restarts : int;
  keys_reused : int;
  keys_validated : int;
  goodput_high_tps : float;
  goodput_low_tps : float;
  window_seconds : float;
}

type state = {
  mutable next_id : int;
  mutable attempts : int;
  mutable aborts : int;
  mutable failed : int;
  mutable inflight : int;
  mutable partial_restarts : int;
  mutable keys_reused : int;
  mutable keys_validated : int;
  high : float Vec.t;
  low : float Vec.t;
  log : (float * float * bool) Vec.t;
  mutable committed_high : int;
  mutable committed_low : int;
}

let run (cluster : Cluster.t) (system : System.t) ~(gen : Gen.t) config =
  (* Negated comparisons so NaN is rejected too. *)
  if not (config.rate_tps > 0.) then
    invalid_arg (Printf.sprintf "Driver.run: rate_tps %g is not positive" config.rate_tps);
  if not (config.high_fraction >= 0. && config.high_fraction <= 1.) then
    invalid_arg
      (Printf.sprintf "Driver.run: high_fraction %g is outside [0, 1]" config.high_fraction);
  let engine = cluster.Cluster.engine in
  let trace = Netsim.Network.trace cluster.Cluster.net in
  let rng = Rng.create ~seed:(config.seed * 7919) in
  let st =
    {
      next_id = 1;
      attempts = 0;
      aborts = 0;
      failed = 0;
      inflight = 0;
      partial_restarts = 0;
      keys_reused = 0;
      keys_validated = 0;
      high = Vec.create ();
      low = Vec.create ();
      log = Vec.create ();
      committed_high = 0;
      committed_low = 0;
    }
  in
  let window_start = config.warmup in
  let window_end = Sim_time.sub config.duration config.cooldown in
  let in_window born = born >= window_start && born < window_end in
  let fresh_id () =
    let id = st.next_id in
    st.next_id <- id + 1;
    id
  in
  let n_clients = Array.length cluster.Cluster.clients in
  let client_cursor = ref 0 in
  let record_commit (txn : Txn.t) =
    let latency_ms = Sim_time.to_ms (Sim_time.sub (Engine.now engine) txn.Txn.born) in
    (* The full log ignores the measurement window: recovery-time analysis
       needs commits before, during and after a fault. *)
    Vec.push st.log
      (Sim_time.to_seconds txn.Txn.born, latency_ms, txn.Txn.priority = Txn.High);
    if in_window txn.Txn.born then begin
      match txn.Txn.priority with
      | Txn.High ->
          Vec.push st.high latency_ms;
          st.committed_high <- st.committed_high + 1
      | Txn.Low ->
          Vec.push st.low latency_ms;
          st.committed_low <- st.committed_low + 1
    end
  in
  let recorder = cluster.Cluster.recorder in
  let metrics = cluster.Cluster.metrics in
  let m_on = Metrics.Registry.enabled metrics in
  if m_on then
    List.iter
      (fun (name, read) -> Metrics.Registry.cumulative metrics name read)
      [
        ("txn.commits", fun () -> Vec.length st.log);
        ("txn.aborts", fun () -> st.aborts);
        ("pa.partial_restarts", fun () -> st.partial_restarts);
        ("pa.keys_reused", fun () -> st.keys_reused);
        ("pa.keys_validated", fun () -> st.keys_validated);
      ];
  (* Attempt lineage per logical transaction: retries get fresh attempt ids,
     so the trace alone cannot reconnect them; the attribution engine needs
     the driver to record which attempts made up each transaction. *)
  let note_finished (txn : Txn.t) history =
    if m_on && in_window txn.Txn.born then
      Metrics.Registry.note_txn metrics
        {
          Metrics.Registry.born = txn.Txn.born;
          finished = Engine.now engine;
          high = txn.Txn.priority = Txn.High;
          attempts = List.rev history;
        }
  in
  let rec attempt (txn : Txn.t) ~tries ~history ~reused =
    st.attempts <- st.attempts + 1;
    (* Each attempt gets its own span on the trace's transaction track;
       retries show up as consecutive spans under fresh attempt ids. *)
    let span_name =
      match txn.Txn.priority with Txn.High -> "attempt:high" | Txn.Low -> "attempt:low"
    in
    if Trace.enabled trace then
      Trace.span_begin trace ~txn:txn.Txn.id ~name:span_name ~at:(Engine.now engine);
    (* Real-time bounds for the history checker are the client-visible
       invocation and response instants of this attempt — the only interval
       strict serializability is entitled to. *)
    Check.Recorder.start recorder ~txn:txn.Txn.id ~at:(Engine.now engine);
    let a_start = Engine.now engine in
    system.System.submit txn ~on_done:(fun ~committed ->
        (* What the attempt actually reused: claims the servers validated
           (values omitted from replies), not claims merely made — so a
           mispredicted prefix never inflates the accounting. *)
        (* Two reuse counters, both reported: [claimed] is the resumed
           prefix — reads this attempt took from the checkpoint instead of
           re-issuing (the wasted-work view's basis) — and [validated] is
           the subset some server confirmed current and omitted from a
           reply. An attempt aborted before any serve keeps claimed > 0,
           validated = 0: it resumed, but nothing shipped. *)
        let validated = Txn.pa_reused txn in
        if validated > 0 then st.keys_validated <- st.keys_validated + validated;
        let history =
          if m_on then
            {
              Metrics.Registry.a_txn = txn.Txn.id;
              a_start;
              a_end = Engine.now engine;
              a_committed = committed;
              a_reads = Array.length txn.Txn.read_set;
              a_reused = reused;
            }
            :: history
          else history
        in
        if Trace.enabled trace then begin
          Trace.span_end trace ~txn:txn.Txn.id ~name:span_name ~at:(Engine.now engine);
          (* Name the attempt's async track with its class and final outcome
             — "txn 42 [high, committed]" — so Perfetto search/filter works
             without cross-referencing the CSVs. *)
          Trace.instant trace ~txn:txn.Txn.id
            ~name:
              (Printf.sprintf "txn %d [%s, %s]" txn.Txn.id
                 (match txn.Txn.priority with Txn.High -> "high" | Txn.Low -> "low")
                 (if committed then "committed" else "aborted"))
            ~at:(Engine.now engine) ()
        end;
        if committed then begin
          Check.Recorder.committed recorder ~txn:txn.Txn.id ~at:(Engine.now engine);
          st.inflight <- st.inflight - 1;
          note_finished txn history;
          record_commit txn
        end
        else begin
          Check.Recorder.aborted recorder ~txn:txn.Txn.id;
          (* A deterministic (queue-oriented) system resolves contention by
             planning, so an abort can only be a failover timeout. Outside
             fault windows one attempt must always suffice. *)
          if system.System.deterministic && not (Cluster.failover_active cluster) then
            failwith
              (Printf.sprintf "%s: deterministic system aborted attempt %d without faults"
                 system.System.name txn.Txn.id);
          st.aborts <- st.aborts + 1;
          if tries + 1 >= config.max_retries then begin
            st.inflight <- st.inflight - 1;
            if in_window txn.Txn.born then st.failed <- st.failed + 1
          end
          else begin
            (* Immediate retry with a fresh attempt id; keys, priority, birth
               time and wound timestamp are preserved. The record itself is
               reused across attempts — protocols snapshot the id at
               submission, so mutating it here cannot confuse still-in-flight
               messages from the aborted attempt. *)
            txn.Txn.id <- fresh_id ();
            (* Roll the partial-abort prefix cache over to the new attempt:
               the retry claims the validated prefix instead of re-reading
               it. Returns 0 (and stays inert) with the cache off. *)
            let claimed = Txn.pa_prepare_retry txn ~next_attempt:txn.Txn.id in
            if claimed > 0 then begin
              st.partial_restarts <- st.partial_restarts + 1;
              st.keys_reused <- st.keys_reused + claimed
            end;
            attempt txn ~tries:(tries + 1) ~history ~reused:claimed
          end
        end)
  in
  let spawn () =
    let client = cluster.Cluster.clients.(!client_cursor) in
    client_cursor := (!client_cursor + 1) mod n_clients;
    let born = Engine.now engine in
    let id = fresh_id () in
    let priority = if Rng.bernoulli rng ~p:config.high_fraction then Txn.High else Txn.Low in
    let txn =
      gen.Gen.make ~rng ~id ~client ~born ~wound_ts:((Sim_time.to_us born * 1024) + (id land 1023))
        ~priority
    in
    if config.partial_abort then Txn.enable_pa txn;
    st.inflight <- st.inflight + 1;
    attempt txn ~tries:0 ~history:[] ~reused:0
  in
  let rec arrival_loop () =
    let gap = Rng.exponential rng ~mean:(1e6 /. config.rate_tps) in
    let next = Sim_time.add (Engine.now engine) (Sim_time.us (int_of_float gap)) in
    if next < config.duration then
      ignore
        (Engine.schedule_at engine next (fun () ->
             spawn ();
             arrival_loop ()))
  in
  arrival_loop ();
  let horizon = Sim_time.add config.duration config.drain in
  Metrics.Registry.run_sampler metrics ~engine ~until:horizon;
  Engine.run_until engine horizon;
  let window_seconds = Sim_time.to_seconds (Sim_time.sub window_end window_start) in
  {
    high_latencies_ms = Vec.to_array st.high;
    low_latencies_ms = Vec.to_array st.low;
    commit_log = Vec.to_array st.log;
    committed_high = st.committed_high;
    committed_low = st.committed_low;
    failed = st.failed;
    unfinished = st.inflight;
    total_attempts = st.attempts;
    total_aborts = st.aborts;
    spec_aborts = (match system.System.spec_aborts with Some f -> f () | None -> 0);
    partial_restarts = st.partial_restarts;
    keys_reused = st.keys_reused;
    keys_validated = st.keys_validated;
    goodput_high_tps = float_of_int st.committed_high /. window_seconds;
    goodput_low_tps = float_of_int st.committed_low /. window_seconds;
    window_seconds;
  }

let p95_high r =
  if Array.length r.high_latencies_ms = 0 then nan
  else Simstats.Percentile.p95 r.high_latencies_ms

let p95_low r =
  if Array.length r.low_latencies_ms = 0 then nan
  else Simstats.Percentile.p95 r.low_latencies_ms
