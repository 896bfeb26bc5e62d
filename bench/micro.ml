(* Bechamel micro-benchmarks: one per table/figure, measuring the kernel
   operation that dominates that experiment's runtime, so regressions in
   the hot paths are visible without re-running whole syntheses.

   Besides printing, the section writes every estimate to
   BENCH_micro.json (name -> ns/run) in the current directory, so the
   perf trajectory of the hot paths is tracked across PRs. *)

open Bechamel
open Toolkit

let series n = Array.init n (fun i -> float_of_int (i mod 37) +. (0.3 *. float_of_int i))

(* A second series with a different shape, so DTW/Fréchet distances are
   nonzero and a cutoff below them actually abandons. *)
let series_offset n =
  Array.init n (fun i -> float_of_int ((i + 11) mod 29) +. (0.35 *. float_of_int i))

let dtw_test =
  let a = series 128 and b = series_offset 128 in
  Test.make ~name:"table2/fig4: dtw-128"
    (Staged.stage (fun () -> ignore (Abg_distance.Dtw.distance ~band:12 a b)))

let dtw_cutoff_test =
  let a = series 128 and b = series_offset 128 in
  (* Best-so-far threshold at a quarter of the true distance: the scan
     abandons as soon as a row proves the candidate can't beat it. *)
  let cutoff = 0.25 *. Abg_distance.Dtw.distance ~band:12 a b in
  Test.make ~name:"table2/fig4: dtw-128-cutoff"
    (Staged.stage (fun () ->
         ignore (Abg_distance.Dtw.distance ~band:12 ~cutoff a b)))

let euclidean_test =
  let a = series 128 and b = series 128 in
  Test.make ~name:"fig3: euclidean-128"
    (Staged.stage (fun () -> ignore (Abg_distance.Pointwise.euclidean a b)))

let frechet_test =
  (* The production configuration (Metric threads the same Sakoe–Chiba
     band DTW uses); the -full variant keeps the unbanded cost visible. *)
  let a = series 128 and b = series 128 in
  Test.make ~name:"fig3: frechet-128"
    (Staged.stage (fun () -> ignore (Abg_distance.Frechet.distance ~band:12 a b)))

let frechet_full_test =
  let a = series 128 and b = series 128 in
  Test.make ~name:"fig3: frechet-128-full"
    (Staged.stage (fun () -> ignore (Abg_distance.Frechet.distance a b)))

(* The scoring inner loop before and after the hot-path overhaul. The
   "interp" variant replicates the seed implementation: rebuild the env
   and interpret the handler AST for every record. The compiled variant
   is the production path: segment prepared once, handler compiled once,
   then one closure call per record. *)
let replay_tests =
  lazy
    (let segments = Runs.segments_for "reno" in
     let seg = List.hd segments in
     let records = seg.Abg_trace.Segmentation.records in
     let n = Array.length records in
     let handler = Option.get (Abg_core.Fine_tuned.find_fine_tuned "reno") in
     let prepared = Abg_core.Replay.prepare seg in
     let compiled = Abg_core.Replay.compile handler in
     let interp () =
       let out = Array.make n 0.0 in
       let cwnd = ref (Abg_trace.Record.observed_cwnd records.(0)) in
       let env = Abg_dsl.Env.copy Abg_dsl.Env.example in
       for i = 0 to n - 1 do
         Abg_trace.Record.load_env env records.(i) ~cwnd:!cwnd;
         cwnd := Float.min 1e12 (Abg_dsl.Eval.handler handler env);
         out.(i) <- !cwnd
       done;
       out
     in
     ( Test.make ~name:"table2: replay-segment"
         (Staged.stage (fun () ->
              ignore (Abg_core.Replay.synthesize_prepared prepared compiled))),
       Test.make ~name:"table2: replay-segment-interp"
         (Staged.stage (fun () -> ignore (interp ()))) ))

(* Bucket-style scoring: a pool of mostly-losing candidates folded with a
   best-so-far incumbent. With cutoffs, losers abandon their replay sum
   and DTW rows early; without, every candidate pays full price. *)
let bucket_score_tests =
  lazy
    (let prepared =
       List.map Abg_core.Replay.prepare (Runs.segments_for "reno")
     in
     let candidates =
       let open Abg_dsl.Expr in
       List.map
         (fun c -> Add (Cwnd, Mul (Const c, Macro Abg_dsl.Macro.Reno_inc)))
         [ 0.7; 0.1; 0.25; 0.5; 1.0; 1.5; 2.0; 3.0; 5.0; 8.0 ]
       @ [ Mul (Cwnd, Const 2.0); Add (Cwnd, Signal Abg_dsl.Signal.Mss) ]
     in
     let compiled = List.map Abg_core.Replay.compile candidates in
     let fold cutoffs () =
       List.fold_left
         (fun best f ->
           let cut = if cutoffs then best else infinity in
           let d =
             Abg_core.Replay.total_distance_prepared ~cutoff:cut prepared f
           in
           if d < best then d else best)
         infinity compiled
     in
     ( Test.make ~name:"refine: bucket-score-cutoff"
         (Staged.stage (fun () -> ignore (fold true ()))),
       Test.make ~name:"refine: bucket-score-full"
         (Staged.stage (fun () -> ignore (fold false ()))) ))

(* Persistent pool vs. the seed's spawn-per-call chunking, same workload:
   the difference is domain spawn/join overhead per map call. *)
let pool_tests =
  lazy
    (let pool = Abg_parallel.Pool.create ~size:1 () in
     let xs = Array.init 16 (fun i -> i) in
     let f x =
       let acc = ref 0.0 in
       for i = 1 to 2_000 do
         acc := !acc +. (1.0 /. float_of_int (i + x))
       done;
       !acc
     in
     let spawning () =
       (* The seed implementation: spawn one domain per chunk, join all. *)
       let n = Array.length xs in
       let out = Array.make n 0.0 in
       let workers = 2 in
       let chunk = (n + workers - 1) / workers in
       let run lo hi () =
         for i = lo to hi do
           out.(i) <- f xs.(i)
         done
       in
       let handles =
         List.init workers (fun w ->
             let lo = w * chunk in
             let hi = Stdlib.min (lo + chunk - 1) (n - 1) in
             if lo > hi then None else Some (Domain.spawn (run lo hi)))
       in
       List.iter (function Some d -> Domain.join d | None -> ()) handles;
       out
     in
     ( Test.make ~name:"refine: pool-map-persistent"
         (Staged.stage (fun () ->
              ignore (Abg_parallel.Pool.map ~pool ~num_domains:2 f xs))),
       Test.make ~name:"refine: pool-map-spawning"
         (Staged.stage (fun () -> ignore (spawning ()))) ))

(* The reno space holds ~4k canonical sketches and the incremental
   enumerator now clears them faster than the measurement quota: when the
   space runs dry mid-measurement, start a fresh encoder rather than
   timing post-exhaustion no-ops. The ~5 ms rebuild lands once per ~4k
   calls — amortized noise against the per-sketch estimate. *)
let enumerate_test =
  lazy
    (let enc = ref (Abg_enum.Encode.create Abg_dsl.Catalog.reno) in
     Test.make ~name:"sec61: sat-enumerate-sketch"
       (Staged.stage (fun () ->
            match Abg_enum.Encode.next !enc with
            | Some _ -> ()
            | None -> enc := Abg_enum.Encode.create Abg_dsl.Catalog.reno)))

(* The cost of a bucket switch on the shared enumerator: one solve under
   a bucket's assumptions against a warmed instance (some models already
   enumerated and blocked), no decode, no blocking clause. The two
   buckets alternate so every call really changes the assumption list —
   a repeat of the previous list would resume the kept trail and measure
   nearly nothing. This is what the refinement loop pays to probe a
   bucket. *)
let solve_assumptions_test =
  lazy
    (let enc = Abg_enum.Encode.create Abg_dsl.Catalog.reno in
     let b1 = [ Abg_dsl.Component.Op_add; Abg_dsl.Component.Op_mul ] in
     let b2 = [ Abg_dsl.Component.Op_add; Abg_dsl.Component.Op_div ] in
     for _ = 1 to 8 do
       ignore (Abg_enum.Encode.next ~bucket:b1 enc);
       ignore (Abg_enum.Encode.next ~bucket:b2 enc)
     done;
     let flip = ref false in
     Test.make ~name:"sec61: sat-solve-assumptions"
       (Staged.stage (fun () ->
            flip := not !flip;
            ignore
              (Abg_enum.Encode.check_bucket enc (if !flip then b1 else b2)))))

(* Per-sketch cost of the enumeration's static pruning stages, so the
   overhead the analysis adds to every [Encode.next] is visible next to
   the SAT solve it rides on: the abstract-interpretation dead-sketch
   check and the commutative-normal-form dedup lookup, both on a
   representative depth-3 Reno sketch. *)
let analysis_sketch =
  let open Abg_dsl.Expr in
  Add (Cwnd, Mul (Hole 0, Macro Abg_dsl.Macro.Reno_inc))

let absint_prune_test =
  let box = Abg_analysis.Absint.box_for Abg_dsl.Catalog.reno in
  Test.make ~name:"sec61: absint-prune-sketch"
    (Staged.stage (fun () ->
         ignore (Abg_analysis.Absint.prune box analysis_sketch)))

let canonical_intern_test =
  lazy
    (let tbl = Abg_analysis.Canonical.Tbl.create () in
     Test.make ~name:"sec61: canonical-intern-sketch"
       (Staged.stage (fun () ->
            ignore (Abg_analysis.Canonical.Tbl.intern tbl analysis_sketch))))

(* The relational stages the enumerator runs on every conditional sketch:
   the zone-domain guard check (the vacuous/implied walk, priced on the
   Student-5 shape the interval domain cannot decide) and a full
   [Equiv.decide] on a handler pair — the semantic-subsumption /
   translation-validation worst case, structural provers plus the SAT
   guard-skeleton pass. *)
let relint_guard_sketch =
  let open Abg_dsl.Expr in
  Ite
    ( Lt (Div (Macro Abg_dsl.Macro.Vegas_diff, Signal Abg_dsl.Signal.Min_rtt),
          Const 0.0),
      Add (Cwnd, Signal Abg_dsl.Signal.Mss),
      Mul (Const 2.0, Signal Abg_dsl.Signal.Mss) )

let relint_guard_check_test =
  lazy
    (let rel = Abg_analysis.Relint.for_dsl Abg_dsl.Catalog.vegas in
     let guard =
       match relint_guard_sketch with
       | Abg_dsl.Expr.Ite (g, _, _) -> g
       | _ -> assert false
     in
     Test.make ~name:"sec61: relint-guard-check"
       (Staged.stage (fun () ->
            ignore (Abg_analysis.Relint.boolean rel guard))))

let equiv_handler_pair_test =
  lazy
    (let rel = Abg_analysis.Relint.default () in
     let open Abg_dsl.Expr in
     let a =
       Ite
         ( Gt (Signal Abg_dsl.Signal.Rtt, Const 0.05),
           Add (Cwnd, Signal Abg_dsl.Signal.Mss),
           Add (Signal Abg_dsl.Signal.Mss, Cwnd) )
     and b = Add (Cwnd, Signal Abg_dsl.Signal.Mss) in
     Test.make ~name:"sec61: equiv-handler-pair"
       (Staged.stage (fun () ->
            ignore (Abg_analysis.Equiv.decide rel a b))))

let simulate_test =
  Test.make ~name:"table3: simulate-1s-reno"
    (Staged.stage (fun () ->
         let cfg =
           Abg_netsim.Config.make ~duration:1.0 ~bandwidth_mbps:10.0
             ~rtt_ms:50.0 ()
         in
         let cca = Abg_cca.Reno.create ~mss:1448.0 () in
         ignore (Abg_netsim.Sim.run cfg cca)))

(* Whole-suite collection over the parallel pool, cache bypassed so the
   measurement is the simulate+derive cost, not a store lookup. *)
let collect_suite_test =
  let ctor = Option.get (Abg_cca.Registry.find "reno") in
  Test.make ~name:"table3: collect-suite-grid"
    (Staged.stage (fun () ->
         ignore
           (Abg_trace.Trace.collect_suite ~duration:1.0 ~cache:false ~n:4
              ~name:"reno" ctor)))

(* Batch-orchestrator storage primitives: what a run pays per artifact
   (durable blob write, verified read) and per resume (journal replay).
   The write benchmark stores a fresh payload every iteration — the
   content-addressed fast path for an existing digest would otherwise
   turn the measurement into a Sys.file_exists probe. *)
let batch_store_tests =
  lazy
    (let root =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "abagnale-bench-store.%d" (Unix.getpid ()))
     in
     let store = Abg_batch.Store.open_ root in
     let payload = String.init 4096 (fun i -> Char.chr (32 + (i mod 95))) in
     let counter = ref 0 in
     let read_digest = Abg_batch.Store.put store payload in
     ( Test.make ~name:"batch: store-blob-write-4k"
         (Staged.stage (fun () ->
              incr counter;
              ignore
                (Abg_batch.Store.put store
                   (string_of_int !counter ^ payload)))),
       Test.make ~name:"batch: store-blob-read-4k"
         (Staged.stage (fun () ->
              ignore (Abg_batch.Store.get store read_digest))) ))

(* The group-commit write path: the same fresh 4k payload, but staged in
   a deferred store whose pack flush (one append write + one fsync)
   lands every 64 puts — the store half of a 64-entry flush window. 63
   runs stage in memory, the 64th pays the flush, so the estimate is the
   honest amortized per-blob durability cost to hold against
   store-blob-write-4k's fsync-per-blob baseline. *)
let batch_store_amortized_test =
  lazy
    (let root =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "abagnale-bench-store-deferred.%d" (Unix.getpid ()))
     in
     let store = Abg_batch.Store.open_ ~deferred:true root in
     let payload = String.init 4096 (fun i -> Char.chr (32 + (i mod 95))) in
     let counter = ref 0 in
     Test.make ~name:"batch: store-blob-write-4k-amortized"
       (Staged.stage (fun () ->
            incr counter;
            ignore
              (Abg_batch.Store.put store (string_of_int !counter ^ payload));
            if !counter mod 64 = 0 then
              ignore (Abg_batch.Store.flush_staged store))))

let bench_entry i =
  {
    Abg_batch.Journal.job = Digest.to_hex (Digest.string (string_of_int i));
    status =
      (if i mod 16 = 0 then Abg_batch.Journal.Quarantined
       else Abg_batch.Journal.Ok);
    attempts = 1 + (i mod 3);
    result = Some (Digest.to_hex (Digest.string ("r" ^ string_of_int i)));
    error = None;
  }

(* The journal half of the same window: entries accumulate and every
   64th run pays one append_batch (one write, one fsync) for the lot. *)
let batch_journal_append_amortized_test =
  lazy
    (let path =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "abagnale-bench-journal-amortized.%d.jsonl"
            (Unix.getpid ()))
     in
     if Sys.file_exists path then Sys.remove path;
     let journal = Abg_batch.Journal.open_ path in
     let counter = ref 0 in
     let pending = ref [] in
     Test.make ~name:"batch: journal-append-amortized"
       (Staged.stage (fun () ->
            incr counter;
            pending := bench_entry !counter :: !pending;
            if !counter mod 64 = 0 then begin
              Abg_batch.Journal.append_batch journal !pending;
              pending := []
            end)))

(* Resume cost at the ISSUE's 100k-job scale: a journal holding 100k
   settled outcomes behind a checkpoint record plus a 256-line tail —
   the shape a long run has on disk — read back through the fast path.
   The acceptance bar is sub-second. *)
let batch_journal_replay_100k_test =
  lazy
    (let path =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "abagnale-bench-journal-100k.%d.jsonl"
            (Unix.getpid ()))
     in
     if Sys.file_exists path then Sys.remove path;
     let journal = Abg_batch.Journal.open_ path in
     let total = 100_000 and tail = 256 and chunk = 4_096 in
     let settled = ref [] in
     let rec fill i =
       if i < total then begin
         let n = Stdlib.min chunk (total - i) in
         let entries = List.init n (fun k -> bench_entry (i + k)) in
         Abg_batch.Journal.append_batch journal entries;
         settled := List.rev_append entries !settled;
         fill (i + n)
       end
     in
     fill 0;
     Abg_batch.Journal.append_checkpoint journal !settled;
     Abg_batch.Journal.append_batch journal
       (List.init tail (fun k -> bench_entry (total + k)));
     Abg_batch.Journal.close journal;
     Test.make ~name:"batch: journal-replay-100k-checkpointed"
       (Staged.stage (fun () ->
            ignore (Abg_batch.Journal.replay_checkpointed path))))

let batch_journal_replay_test =
  lazy
    (let path =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "abagnale-bench-journal.%d.jsonl" (Unix.getpid ()))
     in
     if Sys.file_exists path then Sys.remove path;
     let journal = Abg_batch.Journal.open_ path in
     for i = 1 to 256 do
       Abg_batch.Journal.append journal
         {
           Abg_batch.Journal.job = Digest.to_hex (Digest.string (string_of_int i));
           status = (if i mod 16 = 0 then Abg_batch.Journal.Quarantined
                     else Abg_batch.Journal.Ok);
           attempts = 1 + (i mod 3);
           result = Some (Digest.to_hex (Digest.string ("r" ^ string_of_int i)));
           error = None;
         }
     done;
     Abg_batch.Journal.close journal;
     Test.make ~name:"batch: journal-replay-256"
       (Staged.stage (fun () -> ignore (Abg_batch.Journal.replay path))))

let classify_features_test =
  lazy
    (let traces = Runs.traces "reno" in
     Test.make ~name:"table3: extract-features"
       (Staged.stage (fun () ->
            ignore (Abg_classifier.Features.extract traces))))

let benchmark test =
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances test in
  let results =
    List.map (fun i -> Analyze.all (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]) i raw)
      instances
  in
  results

(* Estimate, print, and return (name, ns/run) rows for the JSON dump. *)
let measure test =
  let results = benchmark test in
  let rows = ref [] in
  List.iter
    (fun result ->
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
              Printf.printf "%-36s %12.0f ns/run\n%!" name est;
              rows := (name, est) :: !rows
          | _ -> Printf.printf "%-36s (no estimate)\n%!" name)
        result)
    results;
  !rows

(* Run metadata alongside the flat estimate map: what machine and
   configuration produced the numbers, plus the telemetry snapshot of
   the setup phase (trace collection, segment prep) so the workload
   behind the estimates is auditable. BENCH_micro.json itself stays a
   flat name -> ns/run map for cross-PR comparability. *)
let write_meta path =
  let open Abg_util.Json in
  Runs.write_meta path
    [
      ("quota_s", Num 0.5);
      ("limit", Num 200.0);
      ("telemetry_during_measurement", Str "disabled");
      ("setup_telemetry", Abg_obs.Report.document (Abg_obs.Obs.snapshot ()));
    ]

(* One genetic-search generation step at the CI smoke population size:
   ranking, tournament selection, crossover, and mutation for pop 8 —
   the fuzzer's orchestration overhead per generation, exclusive of the
   fitness evaluations themselves (those are simulator runs measured by
   table3: simulate-1s-reno). *)
let fuzz_generation_test =
  lazy
    (let params =
       { Abg_fuzz.Search.default_params with Abg_fuzz.Search.pop = 8 }
     in
     let population = Abg_fuzz.Search.initial_population params in
     let fitness =
       Array.map (fun (g : Abg_fuzz.Genome.t) -> g.(0) +. g.(1)) population
     in
     Test.make ~name:"fuzz: generation-8"
       (Staged.stage (fun () ->
            ignore
              (Abg_fuzz.Search.next_generation params ~gen:0 population
                 fitness))))

let run () =
  Runs.heading "Micro-benchmarks (Bechamel, monotonic clock)";
  let replay_compiled, replay_interp = Lazy.force replay_tests in
  let bucket_cutoff, bucket_full = Lazy.force bucket_score_tests in
  let pool_persistent, pool_spawning = Lazy.force pool_tests in
  let store_write, store_read = Lazy.force batch_store_tests in
  let tests =
    [ dtw_test; dtw_cutoff_test; euclidean_test; frechet_test;
      frechet_full_test; replay_compiled; replay_interp; bucket_cutoff;
      bucket_full; pool_persistent; pool_spawning; Lazy.force enumerate_test;
      Lazy.force solve_assumptions_test;
      absint_prune_test; Lazy.force canonical_intern_test;
      Lazy.force relint_guard_check_test; Lazy.force equiv_handler_pair_test;
      simulate_test;
      collect_suite_test; Lazy.force classify_features_test; store_write;
      store_read; Lazy.force batch_store_amortized_test;
      Lazy.force batch_journal_append_amortized_test;
      Lazy.force batch_journal_replay_test;
      Lazy.force batch_journal_replay_100k_test;
      Lazy.force fuzz_generation_test ]
  in
  (* Estimates are taken with telemetry off: they track the cost of the
     kernel operations themselves, and the disabled path is the one the
     <2% overhead claim in DESIGN.md §7 is measured against. The setup
     snapshot above already captured the instrumented counts. *)
  write_meta "BENCH_micro.meta.json";
  Abg_obs.Obs.set_enabled false;
  let rows =
    Fun.protect
      ~finally:(fun () -> Abg_obs.Obs.set_enabled true)
      (fun () -> List.concat_map measure tests)
  in
  Runs.write_estimates "BENCH_micro.json" rows;
  Printf.printf
    "[micro: wrote %d estimates to BENCH_micro.json, run metadata to \
     BENCH_micro.meta.json]\n"
    (List.length rows);
  print_newline ()
