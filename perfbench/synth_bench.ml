(* Workload "synth": Algorithm 1's time-to-handler, in process.

   A closed loop with one caller. Each op is one [Synthesis.run] on a
   pre-collected suite from the [-n 2 -d 6] testbed grid. Ops cycle
   through an interleaved list of three suites — one per sub-DSL family
   the classifier picks — and the run ends on a whole cycle, so every
   run weighs the three equally. The workload seed rotates the cycle.

   The refinement seed is pinned at 42 (the CI seed): refinement cost
   varies by up to 40% between seeds, which would make the spread across
   workload seeds measure the seed, not the code. With it pinned, every
   op's output is checked against the pinned bits below. *)

open Common

let suite_names = [| "reno"; "bic"; "bbr" |]
let refine_seed = 42
let config = { Abg_core.Refinement.default_config with seed = refine_seed }

(* Winning handler (codec form) and distance bits per suite at
   refinement seed 42. The reno winner is the CI-pinned one. *)
let pinned =
  [
    ( "reno",
      "(ite (lt sig:rtt-gradient mac:htcp-diff) (add cwnd mac:reno-inc) \
       mac:reno-inc)",
      Int64.bits_of_float 0x1.ef59817352c4cp+3 );
    ( "bic",
      "(ite (modeq sig:time-since-loss sig:wmax) (div sig:wmax \
       const:0x1.17658623d5a88p+0) mac:reno-inc)",
      Int64.bits_of_float 0x1.921e3b0999b74p+5 );
    ( "bbr",
      "(mul (mul sig:max-rtt (add mac:htcp-diff const:0x1.6666666666666p-1)) \
       (mul sig:ack-rate const:0x1.5c28f5c28f5c3p-1))",
      Int64.bits_of_float 0x1.1a19526be3eccp+6 );
  ]

let collect name =
  let ctor = Option.get (Abg_cca.Registry.find name) in
  Abg_trace.Trace.collect_suite ~duration:6.0 ~n:2 ~name ctor

(* Set-up in a fresh process: the classifier's reference features, the
   one-time work before the first synthesis can start. *)
let child () =
  ignore (Lazy.force Abg_classifier.Gordon.references);
  print_endline "ready"

type sample = {
  suite : int;
  wall : float;
  traced : bool;  (* telemetry on during the op *)
  before : Tel.t;
  after : Tel.t;
  minor_words : float;
  major_collections : int;
}

let run ~exe ~seed ~seconds ~trace =
  let suites = Array.map collect suite_names in
  let order = Array.init 3 (fun i -> (i + (seed mod 3) + 3) mod 3) in
  (* Set-up samples: one before the timed phase and one after every op,
     each in a fresh process; the time they take is kept out of the
     timed phase. *)
  let setups = ref [] and setup_wall = ref 0.0 in
  let take_setup () =
    let dt, _, spent = setup_sample exe [ "--child"; "synth-setup" ] in
    setups := dt :: !setups;
    setup_wall := !setup_wall +. spent
  in
  take_setup ();
  (* Warm-up: the first classification forces the reference features in
     this process too. *)
  let _, gordon_refs_s =
    timed (fun () -> Abg_classifier.Gordon.classify suites.(order.(0)))
  in
  let failed = ref 0 in
  let samples = ref [] in
  let k = ref 0 in
  let t_start = now () in
  setup_wall := 0.0;
  let op_phase () = now () -. t_start -. !setup_wall in
  (* Whole cycles; a traced run alternates telemetry on and off per op,
     so it needs an even number of cycles to see each suite both ways. *)
  let finished () =
    !k > 0
    && !k mod 3 = 0
    && op_phase () >= seconds
    && ((not trace) || !k mod 6 = 0)
  in
  while not (finished ()) do
    let suite = order.(!k mod 3) in
    let traced = (not trace) || !k mod 2 = 0 in
    Abg_obs.Obs.set_enabled traced;
    let g0 = Gc.quick_stat () in
    let before = Tel.take () in
    let t0 = now () in
    let out =
      Abg_core.Synthesis.run ~config ~name:suite_names.(suite) suites.(suite)
    in
    let wall = now () -. t0 in
    let after = Tel.take () in
    let g1 = Gc.quick_stat () in
    Abg_obs.Obs.set_enabled true;
    let name, code, bits = List.nth pinned suite in
    (match out with
    | Some o
      when Abg_fuzz.Codec.encode_num o.Abg_core.Synthesis.handler = code
           && Int64.bits_of_float o.Abg_core.Synthesis.distance = bits ->
        ()
    | Some o ->
        incr failed;
        log "synth: %s returned %s (%s, distance %h)" name
          o.Abg_core.Synthesis.pretty
          (Abg_fuzz.Codec.encode_num o.Abg_core.Synthesis.handler)
          o.Abg_core.Synthesis.distance
    | None ->
        incr failed;
        log "synth: %s returned no handler" name);
    samples :=
      {
        suite;
        wall;
        traced;
        before;
        after;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      }
      :: !samples;
    incr k;
    take_setup ()
  done;
  let elapsed = op_phase () in
  let setups = List.rev !setups in
  let samples = List.rev !samples in
  let on = List.filter (fun s -> s.traced) samples in
  let n_on = float_of_int (List.length on) in
  let c s name = Tel.dc ~before:s.before ~after:s.after name in
  let sp s path = Tel.ds ~before:s.before ~after:s.after path in
  (* Work counters must repeat exactly for every op of the same suite. *)
  let counters_of s = List.map (fun n -> (n, c s n)) work_counter_names in
  let repeat_ok =
    List.for_all
      (fun s ->
        List.for_all
          (fun s' -> s'.suite <> s.suite || counters_of s' = counters_of s)
          on)
      on
  in
  if not repeat_ok then log "synth: work counters differ between repeats";
  let tot name = List.fold_left (fun a s -> a + c s name) 0 on in
  let per_op name = div (float_of_int (tot name)) n_on in
  let span_ms path = 1000.0 *. div (sum (List.map (fun s -> sp s path) on)) n_on in
  (* The suites' ops differ in length (reno about half of bic), so a
     median over all ops would always land on the middle suite. The
     typical op is instead the mean of the three suites' medians, so a
     change to any one suite moves it. *)
  let suite_walls suite =
    List.filter_map (fun s -> if s.suite = suite then Some s.wall else None) samples
  in
  let suite_p50 = List.map (fun suite -> median (suite_walls suite)) [ 0; 1; 2 ] in
  log "synth: %d ops (%d cycles) in %.2fs; p50 %s ms over %s samples; %d set-ups %s"
    (List.length samples) (List.length samples / 3) elapsed
    (String.concat "/"
       (List.mapi (fun i p -> Printf.sprintf "%s %.0f" suite_names.(i) (1000.0 *. p)) suite_p50))
    (String.concat "/"
       (List.map (fun suite -> string_of_int (List.length (suite_walls suite))) [ 0; 1; 2 ]))
    (List.length setups)
    (String.concat " " (List.map (Printf.sprintf "%.3f") setups));
  let end_to_end =
    [
      ("setup_s", median setups);
      ("ops_per_s", float_of_int (List.length samples) /. elapsed);
      ("op_p50_ms", 1000.0 *. mean suite_p50);
      ("peak_rss_mb", self_peak_mb ());
    ]
  in
  (* Attribution: the spans Synthesis.run records for its three stages
     must account for the op's wall time measured here. *)
  let residual =
    List.fold_left
      (fun acc s ->
        let parts =
          sp s "synth/classify" +. sp s "synth/segments" +. sp s "synth/refine"
        in
        Float.max acc (Float.abs (s.wall -. parts) /. s.wall))
      0.0 on
  in
  (* Telemetry overhead: per suite, traced over untraced median wall. *)
  let overhead =
    mean
      (List.filter_map
         (fun suite ->
           let w t =
             List.filter_map
               (fun s -> if s.suite = suite && s.traced = t then Some s.wall else None)
               samples
           in
           match (w true, w false) with
           | [], _ | _, [] -> None
           | a, b -> Some ((median a /. median b) -. 1.0))
         [ 0; 1; 2 ])
  in
  let iter_term_s =
    sum (List.map (fun s -> sp s "synth/refine/iteration" +. sp s "synth/refine/terminal") on)
  in
  let per_layer =
    [
      ("classifier.gordon_refs_s", gordon_refs_s);
      ("classifier.classify_ms", span_ms "synth/classify");
      ("trace.segments_ms", span_ms "synth/segments");
      ("core.refine_ms", span_ms "synth/refine");
      ("refine.enumerate_ms", span_ms "synth/refine/enumerate");
      ("refine.iteration_ms", span_ms "synth/refine/iteration");
      ("refine.terminal_ms", span_ms "synth/refine/terminal");
      ("sat.propagations", per_op "sat.propagations");
      ("sat.conflicts", per_op "sat.conflicts");
      ("enum.returned", per_op "enum.returned");
      ( "enum.pruned_share",
        fdiv (tot "enum.sat.sat" - tot "enum.returned") (tot "enum.sat.sat") );
      ("score.completions", per_op "score.completions");
      ("score.handlers_per_s", div (float_of_int (tot "score.completions")) iter_term_s);
      ("distance.dtw.cells", per_op "distance.dtw.cells");
      ( "distance.dtw.skip_share",
        fdiv
          (tot "distance.dtw.abandoned" + tot "distance.dtw.lb_pruned")
          (tot "distance.dtw.calls") );
      ("gc.minor_mwords", div (sum (List.map (fun s -> s.minor_words) on)) n_on /. 1e6);
      ( "gc.major_collections",
        div (float_of_int (List.fold_left (fun a s -> a + s.major_collections) 0 on)) n_on );
      ("sim.events", per_op "sim.events");
      ("pool.jobs", per_op "pool.jobs");
      ("pool.sequential_maps", per_op "pool.sequential_maps");
      ("obs.overhead_share", overhead);
      ("attribution.residual_share", residual);
    ]
  in
  {
    attempted = List.length samples;
    failed = !failed;
    checks_ok = repeat_ok && ((not trace) || residual <= 0.05);
    metrics =
      (if trace then per_layer else end_to_end);
    (* One op of each suite: every repeat matched it (repeat_ok). *)
    counters =
      List.concat_map
        (fun suite ->
          match List.find_opt (fun s -> s.suite = suite) on with
          | None -> []
          | Some s ->
              List.map (fun (n, v) -> (suite_names.(suite) ^ "." ^ n, v)) (counters_of s))
        [ 0; 1; 2 ];
  }
