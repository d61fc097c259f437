(* TCP-model and tracing tests for Netsim.Network: per-connection FIFO
   ordering, SACK-style single-stall-per-RTO loss recovery, Mathis capacity
   reduction, per-connection table pruning, the traffic ledger, and the
   Msg/Trace layer. *)

open Simcore
open Netsim

let make_net ?(config = Network.default_config) ?trace () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:99 in
  let topo = Topology.azure5 in
  (* two nodes per DC *)
  let node_dc = Array.init 10 (fun i -> i / 2) in
  let cpus = Array.init 10 (fun _ -> Cpu.create engine) in
  let net = Network.create ~engine ~rng ~topo ~node_dc ~cpus ~config ?trace () in
  (engine, net)

(* A [Control] envelope with a [bytes]-byte payload. *)
let sized bytes = Msg.make Msg.Control ~bytes

(* Whatever the delay samples, loss pattern, and FIFO clamping do, messages
   on one connection must be delivered in send order. *)
let test_fifo_monotone =
  QCheck.Test.make ~name:"per-connection deliveries stay in send order" ~count:50
    QCheck.(list_of_size Gen.(1 -- 40) (pair (0 -- 200_000) (1 -- 20_000)))
    (fun sends ->
      let config =
        { Network.default_config with loss = 0.05; cv_override = Some 0.5 }
      in
      let engine, net = make_net ~config () in
      let sends = List.sort compare sends in
      let n = List.length sends in
      let order = ref [] in
      List.iteri
        (fun i (at, bytes) ->
          ignore
            (Engine.schedule_at engine (Sim_time.us at) (fun () ->
                 Network.send net ~src:0 ~dst:8 ~msg:(sized bytes) (fun () ->
                     order := i :: !order))))
        sends;
      Engine.run engine;
      List.rev !order = List.init n Fun.id)

(* With certain loss, a burst on one connection pays exactly one RTO: the
   first message opens a stall window and SACK repairs the rest inside it.
   A message sent after the window expires opens a new one. *)
let test_single_stall_per_rto () =
  let config =
    { Network.default_config with loss = 1.0; cv_override = Some 0.001 }
  in
  let engine, net = make_net ~config () in
  let delays_ms = ref [] in
  let probe () =
    let sent = Engine.now engine in
    Network.send_isolated net ~src:0 ~dst:2 ~msg:(sized 100) (fun () ->
        delays_ms := Sim_time.to_ms (Sim_time.sub (Engine.now engine) sent) :: !delays_ms)
  in
  for _ = 1 to 10 do
    probe ()
  done;
  ignore (Engine.schedule_at engine (Sim_time.seconds 1.) probe);
  Engine.run engine;
  Alcotest.(check int) "all delivered" 11 (List.length !delays_ms);
  let base = Sim_time.to_ms (Network.mean_owd net ~src:0 ~dst:2) in
  let stalled = List.filter (fun d -> d > base +. 100.) !delays_ms in
  (* One per recovery window: the burst at t=0 and the probe at t=1s. *)
  Alcotest.(check int) "one stall per window" 2 (List.length stalled)

(* Mathis: loss caps a WAN link's effective rate, so the same burst keeps
   the link busy longer than on a loss-free network. *)
let test_mathis_capacity () =
  let lossy = { Network.default_config with loss = 0.02 } in
  let engine_l, net_l = make_net ~config:lossy () in
  for _ = 1 to 50 do
    Network.send net_l ~src:0 ~dst:8 ~msg:(sized 50_000) (fun () -> ())
  done;
  Engine.run engine_l;
  let engine_n, net_n = make_net () in
  for _ = 1 to 50 do
    Network.send net_n ~src:0 ~dst:8 ~msg:(sized 50_000) (fun () -> ())
  done;
  Engine.run engine_n;
  if Network.max_link_busy net_l <= Network.max_link_busy net_n then
    Alcotest.failf "lossy link not slower: busy %dus vs %dus"
      (Network.max_link_busy net_l) (Network.max_link_busy net_n)

(* The per-connection FIFO / stall tables hold only entries that can still
   affect scheduling; dead ones are swept about once per simulated second,
   so the tables are bounded by recently-active connections, not by every
   pair ever used. *)
let test_connection_tables_pruned () =
  let config = { Network.default_config with loss = 0.3 } in
  let engine, net = make_net ~config () in
  for src = 0 to 9 do
    for dst = 0 to 9 do
      if src <> dst then Network.send net ~src ~dst ~msg:(sized 100) (fun () -> ())
    done
  done;
  let mid_entries = ref 0 in
  ignore
    (Engine.schedule_at engine (Sim_time.ms 500.) (fun () ->
         mid_entries := Network.fifo_entries net));
  ignore
    (Engine.schedule_at engine (Sim_time.seconds 5.) (fun () ->
         Network.send net ~src:0 ~dst:8 ~msg:(sized 100) (fun () -> ())));
  Engine.run engine;
  Alcotest.(check int) "all pairs tracked while live" 90 !mid_entries;
  (* The t=5s send sweeps everything from t=0 (all delivered within ~1s)
     and re-adds only its own connection. *)
  if Network.fifo_entries net > 1 then
    Alcotest.failf "fifo table not pruned: %d entries" (Network.fifo_entries net);
  if Network.stall_entries net > 1 then
    Alcotest.failf "stall table not pruned: %d entries" (Network.stall_entries net)

(* The ledger counts every message without a trace: per-kind counts and
   bytes sum to exactly [messages_sent] / [bytes_sent]. *)
let test_ledger_counts_match_network () =
  let engine, net = make_net () in
  for i = 1 to 20 do
    Network.send net ~src:0 ~dst:8 ~msg:(Msg.vote ~txn:i ()) (fun () -> ());
    Network.send net ~src:8 ~dst:0
      ~msg:(Msg.read_reply ~txn:i ~reads:2 ())
      (fun () -> ());
    Network.send_isolated net ~src:1 ~dst:3 ~msg:(Msg.probe ()) (fun () -> ())
  done;
  Network.send net ~src:2 ~dst:4 ~msg:(sized 100) (fun () -> ());
  Engine.run engine;
  Alcotest.(check bool) "tracing off" false (Trace.enabled (Network.trace net));
  let ledger = Network.ledger net in
  let kinds = Network.by_kind ledger in
  Alcotest.(check int) "per-kind sum = messages_sent" (Network.messages_sent net)
    (List.fold_left (fun acc (_, n, _) -> acc + n) 0 kinds);
  Alcotest.(check (list (pair string int)))
    "kinds counted"
    [ ("read_reply", 20); ("vote", 20); ("control", 1); ("probe", 20) ]
    (List.map (fun (k, n, _) -> (k, n)) kinds);
  (* Wire bytes include the per-message header. *)
  Alcotest.(check int) "bytes accounted" (Network.bytes_sent net)
    (List.fold_left (fun acc (_, _, b) -> acc + b) 0 kinds);
  Alcotest.(check (pair int int)) "totals" (Network.messages_sent net, Network.bytes_sent net)
    (Network.ledger_totals ledger);
  let va_to_sg = Option.value ~default:0 (List.assoc_opt (0, 4) (Network.by_link ledger)) in
  Alcotest.(check int) "VA->SG link count" 20 va_to_sg

(* A sink enabled at network creation sees every message: its own per-kind
   counts, folded from the recorded events, equal the ledger's. *)
let test_trace_sees_every_message () =
  let trace = Trace.create () in
  Trace.enable trace;
  let engine, net = make_net ~trace () in
  for _ = 1 to 5 do
    Network.send net ~src:0 ~dst:2 ~msg:(Msg.vote ()) (fun () -> ())
  done;
  Network.send_isolated net ~src:1 ~dst:3 ~msg:(Msg.probe ()) (fun () -> ());
  Engine.run engine;
  Alcotest.(check int) "per-kind sum = messages_sent" (Network.messages_sent net)
    (Trace.total_messages trace);
  Alcotest.(check (list (pair string int)))
    "kinds = ledger"
    (List.sort compare (List.map (fun (k, n, _) -> (k, n)) (Network.by_kind (Network.ledger net))))
    (Trace.kind_counts trace);
  Alcotest.(check int) "one event per message" 6 (Trace.event_count trace)

(* An untraced isolated message schedules its handler itself: no closure
   wraps it. The 10 words are the wire model's delay draws; a wrapper
   closure would add 7. *)
let test_isolated_send_alloc () =
  let engine, net = make_net () in
  let msg = Msg.probe () and f () = () in
  let send () = Network.send_isolated net ~src:1 ~dst:3 ~msg f in
  send ();
  Engine.run engine;
  let before = Gc.minor_words () in
  send ();
  let words = Gc.minor_words () -. before in
  Engine.run engine;
  if words > 10. then Alcotest.failf "one untraced send_isolated allocates %.0f words" words

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_chrome_trace_output () =
  let trace = Trace.create () in
  Trace.enable trace;
  let engine, net = make_net ~trace () in
  Trace.span_begin trace ~txn:7 ~name:"attempt:low" ~at:Sim_time.zero;
  Network.send net ~src:0 ~dst:8 ~msg:(Msg.vote ~txn:7 ()) (fun () -> ());
  Engine.run engine;
  Trace.instant trace ~tid:8 ~txn:7 ~name:"txn-prepare" ~at:(Engine.now engine) ();
  Trace.span_end trace ~txn:7 ~name:"attempt:low" ~at:(Engine.now engine);
  let file = Filename.temp_file "natto_trace" ".json" in
  let oc = open_out file in
  Trace.write_chrome_trace trace ~extra:[ ("system", "test") ] oc;
  close_out oc;
  let ic = open_in file in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove file;
  List.iter
    (fun needle ->
      if not (contains body needle) then
        Alcotest.failf "trace JSON missing %S" needle)
    [
      "\"traceEvents\"";
      "\"displayTimeUnit\"";
      "\"ph\":\"X\"";
      "\"ph\":\"b\"";
      "\"ph\":\"e\"";
      "\"ph\":\"n\"";
      "\"name\":\"vote\"";
      "\"name\":\"txn-prepare\"";
      "\"system\":\"test\"";
    ]

(* The JSON printer on fixed values: escaping, non-finite floats, empty
   containers, the line rule at depth, and a lazy list printing as the
   equal list. *)
let json_text v =
  let file = Filename.temp_file "natto_json" ".json" in
  Out_channel.with_open_bin file (fun oc -> Trace.output_json oc v);
  let text = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  text

let test_json_printer () =
  let check what want v = Alcotest.(check string) what want (json_text v) in
  check "escapes" "\"q\\\"b\\\\n\\n\\u0001\"\n" (Trace.Str "q\"b\\n\n\001");
  check "escaped keys" "{\"a\\\"b\":1}\n" (Trace.Obj [ ("a\"b", Trace.Int 1) ]);
  check "non-finite floats" "[null,null,null,0.1,1e+06]\n"
    (Trace.List (List.map (fun f -> Trace.Float f) [ nan; infinity; neg_infinity; 0.1; 1e6 ]));
  check "empty containers" "{\"l\":[],\n\"o\":{},\n\"s\":[]}\n"
    (Trace.Obj [ ("l", Trace.List []); ("o", Trace.Obj []); ("s", Trace.Seq Seq.empty) ]);
  let nested =
    Trace.Obj
      [
        ("a", Trace.Int 1);
        ( "b",
          Trace.Obj
            [
              ("c", Trace.List [ Trace.Int 2; Trace.Obj [ ("d", Trace.List [ Trace.Obj [] ]) ] ]);
              ("e", Trace.Str "x");
            ] );
      ]
  in
  check "line rule" "{\"a\":1,\n\"b\":{\"c\":[2,\n{\"d\":[\n{}\n]}\n],\"e\":\"x\"}}\n" nested;
  let items = [ Trace.Obj [ ("k", Trace.Int 1) ]; Trace.Str "s"; Trace.Obj [] ] in
  Alcotest.(check string) "a Seq prints as the equal list"
    (json_text (Trace.Obj [ ("x", Trace.List items) ]))
    (json_text (Trace.Obj [ ("x", Trace.Seq (List.to_seq items)) ]))

(* A disabled sink must not leak memory or time: no counts, no events,
   while the ledger still counts every message. *)
let test_trace_disabled_is_free () =
  let engine, net = make_net () in
  for _ = 1 to 100 do
    Network.send net ~src:0 ~dst:2 ~msg:(Msg.vote ()) (fun () -> ())
  done;
  Engine.run engine;
  let trace = Network.trace net in
  Alcotest.(check bool) "disabled" false (Trace.enabled trace);
  Alcotest.(check int) "no counts" 0 (Trace.total_messages trace);
  Alcotest.(check int) "no events" 0 (Trace.event_count trace);
  Alcotest.(check (list (pair string int)))
    "ledger counts" [ ("vote", 100) ]
    (List.map (fun (k, n, _) -> (k, n)) (Network.by_kind (Network.ledger net)))

(* The typed envelope must agree with the sizing primitives it is built on. *)
let test_envelope_sizes () =
  Alcotest.(check int) "read_prepare"
    (Msg.read_and_prepare_bytes ~reads:2 ~writes:3)
    (Msg.bytes (Msg.read_prepare ~reads:2 ~writes:3 ()));
  Alcotest.(check int) "read_reply"
    (Msg.read_reply_bytes ~reads:4)
    (Msg.bytes (Msg.read_reply ~reads:4 ()));
  Alcotest.(check int) "commit_request"
    (Msg.commit_request_bytes ~writes:5)
    (Msg.bytes (Msg.commit_request ~writes:5 ()));
  Alcotest.(check int) "vote" Msg.vote_bytes (Msg.bytes (Msg.vote ()));
  Alcotest.(check int) "decision"
    (Msg.decision_bytes ~writes:2)
    (Msg.bytes (Msg.decision ~writes:2 ()));
  Alcotest.(check int) "control" Msg.control_bytes
    (Msg.bytes (Msg.control Msg.Commit_notify));
  Alcotest.(check int) "abort decision = control size" Msg.control_bytes
    (Msg.bytes (Msg.decision ~writes:0 ()));
  (* Envelope metadata rides along. *)
  let m = Msg.read_prepare ~txn:42 ~priority:1 ~reads:1 ~writes:1 () in
  Alcotest.(check (option int)) "txn" (Some 42) (Msg.txn m);
  Alcotest.(check (option int)) "priority" (Some 1) (Msg.priority m)

(* The ledger's per-kind slots: one distinct label per index, and a
   message's index names its own label. *)
let test_kind_index () =
  let labels = List.init Msg.n_kinds Msg.index_label in
  Alcotest.(check int) "distinct labels" Msg.n_kinds
    (List.length (List.sort_uniq compare labels));
  List.iter
    (fun m -> Alcotest.(check string) (Msg.label m) (Msg.label m) (Msg.index_label (Msg.index m)))
    [
      Msg.vote (); Msg.probe (); Msg.read_reply ~reads:1 (); Msg.make Msg.Raft_append ~bytes:8;
      Msg.quecc_install_ack ();
    ]

let () =
  Alcotest.run "netsim"
    [
      ( "tcp_model",
        [
          QCheck_alcotest.to_alcotest test_fifo_monotone;
          Alcotest.test_case "single stall per RTO" `Quick test_single_stall_per_rto;
          Alcotest.test_case "mathis capacity" `Quick test_mathis_capacity;
          Alcotest.test_case "tables pruned" `Quick test_connection_tables_pruned;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "counts match network" `Quick test_ledger_counts_match_network;
          Alcotest.test_case "trace sees every message" `Quick test_trace_sees_every_message;
          Alcotest.test_case "chrome trace json" `Quick test_chrome_trace_output;
          Alcotest.test_case "json printer" `Quick test_json_printer;
          Alcotest.test_case "disabled sink is free" `Quick test_trace_disabled_is_free;
          Alcotest.test_case "isolated send allocation" `Quick test_isolated_send_alloc;
          Alcotest.test_case "envelope sizes" `Quick test_envelope_sizes;
          Alcotest.test_case "kind index" `Quick test_kind_index;
        ] );
    ]
