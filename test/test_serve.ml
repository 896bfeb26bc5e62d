(* Tests for the serving layer: sliding-window state (qcheck equivalence
   against batch recompute), incremental line framing and trace
   streaming, the wire protocol, the engine's session lifecycle and
   determinism, escalation dedupe/backpressure, the pool's background
   lane, and an end-to-end daemon run over a real unix socket. *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* -- Sliding window: streaming state == batch recompute -- *)

(* Build a record whose observed window is [v] at time [t]; every other
   field is irrelevant to the sliding window. *)
let record ~time v =
  {
    Abg_trace.Record.time; cwnd = v; in_flight = v;
    acked_bytes = 0.0; rtt = 0.05; min_rtt = 0.05; max_rtt = 0.05;
    ack_rate = 1e6; rtt_gradient = 0.0; delay_gradient = 0.0;
    time_since_loss = 0.0; wmax = v; mss = 1448.0;
  }

let records_of_values values =
  Array.mapi (fun i v -> record ~time:(0.01 *. float_of_int i) v) values

(* The batch reference model: the window is the last [cap] records; the
   in-window losses are the full-stream pairwise detections (the
   {!Abg_trace.Segmentation.infer_loss_times} rule) whose detecting
   index still lies inside the window. *)
let batch_window ~cap values =
  let n = Array.length values in
  let len = Stdlib.min n cap in
  let window = Array.sub values (n - len) len in
  let losses = ref [] in
  for i = 1 to n - 1 do
    let prev = values.(i - 1) and cur = values.(i) in
    if prev > 0.0 && cur < 0.8 *. prev && i >= n - len then
      losses := (0.01 *. float_of_int i) :: !losses
  done;
  (window, Array.of_list (List.rev !losses))

(* Observations: positive values, zeros, and occasional nan/inf — the
   detection comparison must treat non-finite samples as "no loss"
   identically on the streaming and batch sides. *)
let arb_observations =
  QCheck.(
    make
      ~print:(fun (cap, vs) ->
        Printf.sprintf "cap=%d [%s]" cap
          (String.concat ";" (List.map string_of_float (Array.to_list vs))))
      Gen.(
        pair (int_range 2 12)
          (map Array.of_list
             (list_size (int_range 0 60)
                (frequency
                   [
                     (8, float_range 0.0 5000.0);
                     (1, return 0.0);
                     (1, oneofl [ Float.nan; Float.infinity ]);
                   ])))))

let prop_sliding_equals_batch =
  QCheck.Test.make ~name:"sliding state == batch recompute" ~count:500
    arb_observations (fun (cap, values) ->
      let s = Abg_serve.Sliding.create ~capacity:cap in
      Array.iter (fun r -> Abg_serve.Sliding.push s r) (records_of_values values);
      let window, losses = batch_window ~cap values in
      let streamed =
        Array.init (Abg_serve.Sliding.length s) (Abg_serve.Sliding.observed s)
      in
      (* nan <> nan, so compare windows positionally with nan-equality. *)
      let same_window =
        Array.length streamed = Array.length window
        && Array.for_all2
             (fun a b -> a = b || (Float.is_nan a && Float.is_nan b))
             streamed window
      in
      same_window && Abg_serve.Sliding.loss_times s = losses)

(* Window boundaries by hand: a loss detected exactly at the oldest
   in-window index survives; one index older is evicted. *)
let test_sliding_loss_eviction () =
  let s = Abg_serve.Sliding.create ~capacity:3 in
  (* Index:    0      1     2      3      4
     Values: 100 -> 10 -> 100 -> 100 -> 100
     Loss detected at index 1 (10 < 80). Window after 4 pushes covers
     indices [1, 4) = {1,2,3}: loss at 1 is the oldest in-window index.
     After the 5th push the window is {2,3,4}: evicted. *)
  let vs = [| 100.0; 10.0; 100.0; 100.0 |] in
  Array.iter (fun r -> Abg_serve.Sliding.push s r) (records_of_values vs);
  Alcotest.(check int) "loss on boundary survives" 1
    (Array.length (Abg_serve.Sliding.loss_times s));
  Abg_serve.Sliding.push s (record ~time:0.04 100.0);
  Alcotest.(check int) "loss evicted one past boundary" 0
    (Array.length (Abg_serve.Sliding.loss_times s))

let test_sliding_to_trace () =
  let s = Abg_serve.Sliding.create ~capacity:4 in
  let vs = [| 50.0; 60.0; 70.0; 10.0; 20.0; 30.0 |] in
  Array.iter (fun r -> Abg_serve.Sliding.push s r) (records_of_values vs);
  let t = Abg_serve.Sliding.to_trace ~cca_name:"x" ~scenario:"y" s in
  Alcotest.(check int) "trace length = window" 4 (Abg_trace.Trace.length t);
  Alcotest.(check (float 1e-9)) "oldest in-window record" 70.0
    (Abg_trace.Record.observed_cwnd t.Abg_trace.Trace.records.(0));
  Alcotest.(check int) "in-window loss carried" 1
    (Array.length t.Abg_trace.Trace.loss_times)

(* -- Io.Lines: framing is independent of chunk boundaries -- *)

let prop_lines_chunking_invariant =
  (* Any split of the byte stream into chunks yields the same emitted
     lines as feeding it whole. *)
  QCheck.Test.make ~name:"Io.Lines invariant under chunk splits" ~count:300
    QCheck.(
      pair
        (small_list (string_gen_of_size Gen.(int_range 0 8) Gen.printable))
        (small_list small_nat))
    (fun (lines_in, cuts) ->
      let payload = String.concat "\n" lines_in in
      let collect feed_chunks =
        let t = Abg_trace.Io.Lines.create () in
        let out = ref [] in
        let emit n l = out := (n, l) :: !out in
        List.iter (fun c -> Abg_trace.Io.Lines.feed t c emit) feed_chunks;
        Abg_trace.Io.Lines.flush t emit;
        List.rev !out
      in
      let whole = collect [ payload ] in
      let chunks =
        let rec split s = function
          | [] -> [ s ]
          | k :: rest ->
              let k = Stdlib.min k (String.length s) in
              String.sub s 0 k
              :: split (String.sub s k (String.length s - k)) rest
        in
        split payload cuts
      in
      collect chunks = whole)

let test_lines_crlf_and_tail () =
  let t = Abg_trace.Io.Lines.create () in
  let out = ref [] in
  let emit n l = out := (n, l) :: !out in
  Abg_trace.Io.Lines.feed t "a\r\nb\nc" emit;
  Alcotest.(check bool) "tail buffered" true (Abg_trace.Io.Lines.pending t);
  Abg_trace.Io.Lines.flush t emit;
  Alcotest.(check bool) "tail flushed" false (Abg_trace.Io.Lines.pending t);
  Alcotest.(check (list (pair int string)))
    "CR stripped, lines numbered"
    [ (1, "a"); (2, "b"); (3, "c") ]
    (List.rev !out)

(* -- Io.Stream: incremental parse == batch parse -- *)

let sample_trace =
  lazy
    (let cfg =
       Abg_netsim.Config.make ~duration:2.0 ~bandwidth_mbps:8.0 ~rtt_ms:40.0 ()
     in
     Abg_trace.Trace.collect cfg ~name:"reno" (fun ~mss () ->
         Abg_cca.Reno.create ~mss ()))

let test_stream_matches_batch_parse () =
  let t = Lazy.force sample_trace in
  let text = Abg_trace.Io.to_string t in
  let s = Abg_trace.Io.Stream.create () in
  String.split_on_char '\n' text
  |> List.iter (fun line -> ignore (Abg_trace.Io.Stream.push s line));
  let streamed = Abg_trace.Io.Stream.to_trace s in
  let batch = Abg_trace.Io.of_string text in
  Alcotest.(check string) "cca" batch.Abg_trace.Trace.cca_name
    streamed.Abg_trace.Trace.cca_name;
  Alcotest.(check int) "records"
    (Abg_trace.Trace.length batch)
    (Abg_trace.Trace.length streamed);
  Alcotest.(check bool) "records identical" true
    (batch.Abg_trace.Trace.records = streamed.Abg_trace.Trace.records);
  Alcotest.(check (option string)) "cca_name meta" (Some "reno")
    (Abg_trace.Io.Stream.cca_name s)

let test_stream_error_position () =
  let s = Abg_trace.Io.Stream.create () in
  ignore (Abg_trace.Io.Stream.push s "# cca: reno");
  ignore (Abg_trace.Io.Stream.push s "");
  match Abg_trace.Io.Stream.push s "not a record" with
  | _ -> Alcotest.fail "malformed line accepted"
  | exception Invalid_argument msg ->
      (* 1-based position in this session's stream: third line pushed. *)
      Alcotest.(check bool)
        (Printf.sprintf "error names line 3: %s" msg)
        true (String.contains msg '3')

(* -- Protocol -- *)

let test_protocol_parse () =
  let open Abg_serve.Protocol in
  Alcotest.(check bool) "open" true (parse "open s1" = Ok (Open "s1"));
  Alcotest.(check bool) "obs keeps payload whitespace" true
    (parse "obs s1 1.0\t2.0\t3.0" = Ok (Obs ("s1", "1.0\t2.0\t3.0")));
  Alcotest.(check bool) "classify" true (parse "classify s1" = Ok (Classify "s1"));
  Alcotest.(check bool) "close" true (parse "close s1" = Ok (Close "s1"));
  Alcotest.(check bool) "stats" true (parse "stats" = Ok Stats);
  Alcotest.(check bool) "ping" true (parse "ping" = Ok Ping);
  Alcotest.(check bool) "crlf tolerated" true (parse "ping\r" = Ok Ping);
  Alcotest.(check bool) "blank is silent" true (parse "   " = Error "");
  (match parse "open" with
  | Error msg -> Alcotest.(check bool) "missing sid is an error" true (msg <> "")
  | Ok _ -> Alcotest.fail "open without sid accepted");
  match parse "frobnicate s1" with
  | Error msg ->
      Alcotest.(check bool) "unknown command named" true
        (contains_sub ~sub:"frobnicate" msg)
  | Ok _ -> Alcotest.fail "unknown command accepted"

(* -- Engine -- *)

let trace_lines t =
  String.split_on_char '\n' (Abg_trace.Io.to_string t)
  |> List.filter (fun l -> l <> "")

let feed_trace engine sid t =
  List.iter
    (fun l ->
      Alcotest.(check (list string))
        "obs lines are not acked" []
        (Abg_serve.Engine.handle_line engine ("obs " ^ sid ^ " " ^ l)))
    (trace_lines t)

let test_engine_session_lifecycle () =
  let engine = Abg_serve.Engine.create () in
  Alcotest.(check (list string)) "open" [ "ok open a" ]
    (Abg_serve.Engine.handle_line engine "open a");
  (match Abg_serve.Engine.handle_line engine "open a" with
  | [ reply ] ->
      Alcotest.(check bool) "duplicate open is an error" true
        (String.length reply >= 5 && String.sub reply 0 5 = "err a")
  | other ->
      Alcotest.failf "unexpected replies: %s" (String.concat "|" other));
  (match Abg_serve.Engine.handle_line engine "classify nosuch" with
  | [ reply ] ->
      Alcotest.(check bool) "classify unknown sid errors" true
        (String.length reply >= 3 && String.sub reply 0 3 = "err")
  | other ->
      Alcotest.failf "unexpected replies: %s" (String.concat "|" other));
  Alcotest.(check int) "one session" 1 (Abg_serve.Engine.session_count engine);
  (match Abg_serve.Engine.handle_line engine "close a" with
  | [ verdict; ok ] ->
      Alcotest.(check bool) "close reports a verdict" true
        (String.sub verdict 0 7 = "verdict");
      Alcotest.(check string) "close acked" "ok close a" ok
  | other ->
      Alcotest.failf "unexpected replies: %s" (String.concat "|" other));
  Alcotest.(check int) "no sessions" 0 (Abg_serve.Engine.session_count engine)

let test_engine_session_limit () =
  let config =
    { Abg_serve.Engine.default_config with max_sessions = 2 }
  in
  let engine = Abg_serve.Engine.create ~config () in
  ignore (Abg_serve.Engine.handle_line engine "open a");
  ignore (Abg_serve.Engine.handle_line engine "open b");
  match Abg_serve.Engine.handle_line engine "open c" with
  | [ reply ] ->
      Alcotest.(check bool) "session limit enforced" true
        (contains_sub ~sub:"limit" reply)
  | other -> Alcotest.failf "unexpected replies: %s" (String.concat "|" other)

let test_engine_obs_error_has_position () =
  let engine = Abg_serve.Engine.create () in
  ignore (Abg_serve.Engine.handle_line engine "open a");
  ignore (Abg_serve.Engine.handle_line engine "obs a # cca: reno");
  match Abg_serve.Engine.handle_line engine "obs a garbage" with
  | [ reply ] ->
      Alcotest.(check bool) "err echoes sid" true
        (String.sub reply 0 5 = "err a");
      Alcotest.(check bool) "err carries 1-based stream position" true
        (String.contains reply '2')
  | other -> Alcotest.failf "unexpected replies: %s" (String.concat "|" other)

let test_engine_short_window_unknown () =
  let engine = Abg_serve.Engine.create () in
  ignore (Abg_serve.Engine.handle_line engine "open a");
  match Abg_serve.Engine.handle_line engine "classify a" with
  | [ verdict ] ->
      Alcotest.(check bool) "empty window classifies Unknown" true
        (contains_sub ~sub:"Unknown" verdict)
  | other -> Alcotest.failf "unexpected replies: %s" (String.concat "|" other)

let test_engine_verdicts_deterministic () =
  (* Same request stream, two fresh engines: byte-identical replies. *)
  let t = Lazy.force sample_trace in
  let run () =
    let engine = Abg_serve.Engine.create () in
    ignore (Abg_serve.Engine.handle_line engine "open a");
    feed_trace engine "a" t;
    Abg_serve.Engine.handle_line engine "close a"
  in
  Alcotest.(check (list string)) "replayed verdicts identical" (run ()) (run ())

let test_engine_drain_sorted () =
  let engine = Abg_serve.Engine.create () in
  List.iter
    (fun sid -> ignore (Abg_serve.Engine.handle_line engine ("open " ^ sid)))
    [ "zeta"; "alpha"; "mid" ];
  let drained = Abg_serve.Engine.drain engine in
  Alcotest.(check int) "all sessions closed" 0
    (Abg_serve.Engine.session_count engine);
  let closes =
    List.filter_map
      (fun l ->
        if String.length l > 9 && String.sub l 0 9 = "ok close " then
          Some (String.sub l 9 (String.length l - 9))
        else None)
      drained
  in
  Alcotest.(check (list string)) "drain closes in sorted sid order"
    [ "alpha"; "mid"; "zeta" ] closes

(* -- Escalation -- *)

let test_escalate_dedupe_and_cap () =
  let pool = Abg_parallel.Pool.create ~size:0 () in
  Fun.protect ~finally:(fun () -> Abg_parallel.Pool.shutdown pool)
  @@ fun () ->
  let ran = ref [] in
  (* size 0: tasks queue until drain, so [pending] stays observable. *)
  let esc =
    Abg_serve.Escalate.create ~pool ~max_pending:2 (fun ~sid _trace ->
        ran := sid :: !ran)
  in
  let t1 = Abg_serve.Sliding.create ~capacity:8 in
  Array.iter (fun r -> Abg_serve.Sliding.push t1 r)
    (records_of_values [| 1.0; 2.0; 3.0 |]);
  let tr1 = Abg_serve.Sliding.to_trace t1 in
  let t2 = Abg_serve.Sliding.create ~capacity:8 in
  Array.iter (fun r -> Abg_serve.Sliding.push t2 r)
    (records_of_values [| 9.0; 8.0; 7.0 |]);
  let tr2 = Abg_serve.Sliding.to_trace t2 in
  Alcotest.(check bool) "first submit accepted" true
    (Abg_serve.Escalate.submit esc ~sid:"a" tr1 = Abg_serve.Escalate.Submitted);
  Alcotest.(check bool) "identical window deduped" true
    (Abg_serve.Escalate.submit esc ~sid:"b" tr1 = Abg_serve.Escalate.Duplicate);
  Alcotest.(check bool) "second distinct accepted" true
    (Abg_serve.Escalate.submit esc ~sid:"c" tr2 = Abg_serve.Escalate.Submitted);
  let t3 = Abg_serve.Sliding.create ~capacity:8 in
  Array.iter (fun r -> Abg_serve.Sliding.push t3 r)
    (records_of_values [| 4.0; 5.0; 6.0 |]);
  Alcotest.(check bool) "over budget dropped" true
    (Abg_serve.Escalate.submit esc ~sid:"d" (Abg_serve.Sliding.to_trace t3)
    = Abg_serve.Escalate.Dropped);
  Alcotest.(check int) "two pending" 2 (Abg_serve.Escalate.pending esc);
  Abg_serve.Escalate.drain esc;
  Alcotest.(check int) "drain runs everything" 0
    (Abg_serve.Escalate.pending esc);
  Alcotest.(check (list string)) "runner saw both" [ "a"; "c" ]
    (List.sort String.compare !ran)

(* -- Pool background lane -- *)

let test_pool_background_runs_and_isolates_failures () =
  let pool = Abg_parallel.Pool.create ~size:2 () in
  Fun.protect ~finally:(fun () -> Abg_parallel.Pool.shutdown pool)
  @@ fun () ->
  let hits = Atomic.make 0 in
  for _ = 1 to 20 do
    Abg_parallel.Pool.background ~pool (fun () -> Atomic.incr hits)
  done;
  (* A throwing task must be swallowed, not kill a worker. *)
  Abg_parallel.Pool.background ~pool (fun () -> failwith "boom");
  for _ = 1 to 20 do
    Abg_parallel.Pool.background ~pool (fun () -> Atomic.incr hits)
  done;
  Abg_parallel.Pool.drain_background ~pool ();
  Alcotest.(check int) "all background tasks ran" 40 (Atomic.get hits);
  (* Foreground work still functions after background churn. *)
  let doubled = Abg_parallel.Pool.map ~pool (fun x -> x * 2) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "foreground map unaffected" [| 2; 4; 6 |] doubled

let test_pool_background_zero_worker_drain () =
  let pool = Abg_parallel.Pool.create ~size:0 () in
  Fun.protect ~finally:(fun () -> Abg_parallel.Pool.shutdown pool)
  @@ fun () ->
  let hits = ref 0 in
  for _ = 1 to 5 do
    Abg_parallel.Pool.background ~pool (fun () -> incr hits)
  done;
  Alcotest.(check int) "nothing ran without workers" 0 !hits;
  Abg_parallel.Pool.drain_background ~pool ();
  Alcotest.(check int) "drain runs queued tasks on the caller" 5 !hits

(* -- Daemon end-to-end over a unix socket -- *)

(* The daemon runs in a thread, not a forked child: reference warm-up
   uses the domain pool, and forking a multi-domain process is
   unsupported. Process-level semantics (SIGTERM, exit code) are the CI
   smoke test's job, against the real binary; here {!Daemon.request_stop}
   plays the signal's role and a returned [run] plays the clean exit. *)
let test_daemon_end_to_end () =
  let dir = Filename.temp_file "abg-serve" "" in
  Unix.unlink dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "d.sock" in
  let endpoint = Abg_serve.Daemon.Unix_socket socket in
  let drained = ref false in
  let config =
    { Abg_serve.Daemon.default_config with endpoint; log = (fun _ -> ()) }
  in
  let daemon =
    Thread.create
      (fun () ->
        Abg_serve.Daemon.run ~config ();
        drained := true)
      ()
  in
  Fun.protect ~finally:(fun () ->
      Abg_serve.Daemon.request_stop ();
      Thread.join daemon;
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* Wait for the socket to appear (warm-up precedes listen). *)
  let deadline = Unix.gettimeofday () +. 120.0 in
  while (not (Sys.file_exists socket)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  Alcotest.(check bool) "daemon came up" true (Sys.file_exists socket);
  let t = Lazy.force sample_trace in
  let replies = Abg_serve.Client.stream endpoint [ ("f1", t); ("f2", t) ] in
  let vs = Abg_serve.Client.verdicts replies in
  Alcotest.(check int) "one verdict per flow" 2 (List.length vs);
  (match vs with
  | (sid1, n1, d1, v1) :: (sid2, n2, d2, v2) :: _ ->
      Alcotest.(check string) "flow order" "f1" sid1;
      Alcotest.(check string) "flow order" "f2" sid2;
      Alcotest.(check bool) "windows filled" true (n1 > 0 && n1 = n2);
      (* Identical input streams must classify identically. *)
      Alcotest.(check string) "same trace, same verdict" v1 v2;
      Alcotest.(check (float 1e-12)) "same trace, same distance" d1 d2
  | _ -> Alcotest.fail "missing verdicts");
  (* Liveness plus stats shape. *)
  let stats =
    Abg_serve.Client.execute endpoint ~request:"stats\nping\n"
      ~stop_line:(fun l -> l = "ok pong")
  in
  Alcotest.(check bool) "stats line present" true
    (List.exists (fun l -> has_prefix ~prefix:"ok stats " l) stats);
  Alcotest.(check bool) "latency line present" true
    (List.exists (fun l -> has_prefix ~prefix:"ok latency " l) stats);
  (* Graceful shutdown: stop request drains, removes the socket file,
     and [run] returns. *)
  Abg_serve.Daemon.request_stop ();
  Thread.join daemon;
  Alcotest.(check bool) "run returned cleanly" true !drained;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

(* Byte pin of `stream --json`: reply lines through
   [Client.verdicts_json], the rows CI diffs against
   ci/serve-expected.json. *)
let test_stream_json_pinned () =
  let lines =
    [ "ok"; "verdict s0-reno-0 3 0.1 reno"; "verdict s1-cubic-0 12 1e999 unknown (far)" ]
  in
  Alcotest.(check string) "rows"
    "[{\"sid\":\"s0-reno-0\",\"window\":3,\"distance\":\"0x1.999999999999ap-4\",\"verdict\":\"reno\"},{\"sid\":\"s1-cubic-0\",\"window\":12,\"distance\":\"infinity\",\"verdict\":\"unknown (far)\"}]"
    (Abg_util.Json.to_string (Abg_serve.Client.verdicts_json lines))

let qsuite = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "serve-sliding",
      [
        Alcotest.test_case "loss eviction at boundary" `Quick
          test_sliding_loss_eviction;
        Alcotest.test_case "to_trace materializes window" `Quick
          test_sliding_to_trace;
      ]
      @ qsuite [ prop_sliding_equals_batch ] );
    ( "serve-framing",
      [
        Alcotest.test_case "crlf + unterminated tail" `Quick
          test_lines_crlf_and_tail;
        Alcotest.test_case "stream == batch parse" `Quick
          test_stream_matches_batch_parse;
        Alcotest.test_case "stream error position" `Quick
          test_stream_error_position;
        Alcotest.test_case "stream --json rows pinned" `Quick
          test_stream_json_pinned;
      ]
      @ qsuite [ prop_lines_chunking_invariant ] );
    ( "serve-engine",
      [
        Alcotest.test_case "protocol parse" `Quick test_protocol_parse;
        Alcotest.test_case "session lifecycle" `Quick
          test_engine_session_lifecycle;
        Alcotest.test_case "session limit" `Quick test_engine_session_limit;
        Alcotest.test_case "obs error position" `Quick
          test_engine_obs_error_has_position;
        Alcotest.test_case "short window is Unknown" `Quick
          test_engine_short_window_unknown;
        Alcotest.test_case "verdicts deterministic" `Slow
          test_engine_verdicts_deterministic;
        Alcotest.test_case "drain in sorted sid order" `Quick
          test_engine_drain_sorted;
      ] );
    ( "serve-escalate",
      [
        Alcotest.test_case "dedupe + pending cap" `Quick
          test_escalate_dedupe_and_cap;
        Alcotest.test_case "background lane runs, failures isolated" `Quick
          test_pool_background_runs_and_isolates_failures;
        Alcotest.test_case "zero-worker drain" `Quick
          test_pool_background_zero_worker_drain;
      ] );
    ( "serve-daemon",
      [ Alcotest.test_case "end-to-end over unix socket" `Slow
          test_daemon_end_to_end ] );
  ]
