(* Workload "fuzz": CC-Fuzz-style divergence search, reno vs cubic, in
   process.

   One op is one generation of [Search.run] with [Fuzz_batch.evaluate]
   scoring the population as batch jobs in a fresh run directory under
   the checkout, so every store and journal fsync reaches the disk. A
   round is one whole search (fixed seed, pop, generations and
   duration); the run repeats identical rounds until the time is up,
   clearing the process-wide trace store before each so no round reuses
   another's simulations.

   The search seed is pinned at 7 (the CI seed): the evolved population
   decides how much simulation a generation costs, and across seeds 1-7
   that cost ranged 2.2-3.6 s for the same round size, so a seed-driven
   search would make the spread across workload seeds measure the seed.

   Every round's per-generation best, mean and champion fingerprint
   must equal an in-process reference search that calls
   [Fitness.evaluate] directly. *)

open Common

let params =
  { Abg_fuzz.Search.default_params with generations = 10; pop = 32; seed = 7 }

let duration = 10.0

let fitness =
  { Abg_fuzz.Fitness.kind = Abg_fuzz.Fitness.Divergence; cca = "reno"; cca_b = Some "cubic";
    handler = None }

let batch_spec =
  {
    Abg_batch.Fuzz_batch.fitness = Abg_fuzz.Fitness.Divergence;
    cca = "reno";
    cca_b = Some "cubic";
    handler = None;
    duration;
    scenario_seed = params.seed;
  }

let config_of genome =
  Abg_fuzz.Genome.to_config ~duration ~seed:params.seed genome

(* The grid baseline `abagnale fuzz run` compares its champion against:
   the same fitness on all 25 testbed_grid scenarios. *)
let grid_baseline () =
  Abg_netsim.Config.testbed_grid ~duration ~n:25 ()
  |> List.fold_left (fun acc cfg -> Float.max acc (Abg_fuzz.Fitness.evaluate fitness cfg)) neg_infinity

(* Set-up in a fresh process: open the run directory and evaluate the
   grid baseline. *)
let child = function
  | [ dir ] ->
      mkdir_p dir;
      Printf.printf "ready %h\n%!" (grid_baseline ())
  | _ -> failwith "fuzz-setup DIR"

let fingerprints (r : Abg_fuzz.Search.result) =
  List.map
    (fun (s : Abg_fuzz.Search.gen_stats) ->
      ( Int64.bits_of_float s.best,
        Int64.bits_of_float s.mean,
        Abg_fuzz.Genome.fingerprint s.best_genome ))
    r.history
  @ [ (Int64.bits_of_float r.champion_fitness, 0L,
       Abg_fuzz.Genome.fingerprint r.champion) ]

(* The in-process reference search: [Fitness.evaluate] once per
   distinct genome of a generation (as the batch runs one job per
   distinct genome), timed, from an empty trace store. Returns the
   result and, per call, (generation, seconds, store misses, simulated
   events). *)
let reference_search () =
  Abg_trace.Trace.store_clear ();
  let evals = ref [] in
  let result =
    Abg_fuzz.Search.run ~params ~evaluate:(fun ~gen genomes ->
        let seen = Hashtbl.create 64 in
        Array.map
          (fun g ->
            let key = Abg_fuzz.Genome.fingerprint g in
            match Hashtbl.find_opt seen key with
            | Some v -> v
            | None ->
                let before = Tel.take () in
                let v, dt = timed (fun () -> Abg_fuzz.Fitness.evaluate fitness (config_of g)) in
                let after = Tel.take () in
                evals :=
                  (gen, dt, Tel.dc ~before ~after "trace.store.misses",
                   Tel.dc ~before ~after "sim.events")
                  :: !evals;
                Hashtbl.replace seen key v;
                v)
          genomes)
  in
  (result, List.rev !evals)

let eval_seconds evals = sum (List.map (fun (_, dt, _, _) -> dt) evals)

(* Reference evaluation seconds per generation. *)
let per_gen evals =
  Array.init params.generations (fun g ->
      eval_seconds (List.filter (fun (g', _, _, _) -> g' = g) evals))

type gen = {
  op_s : float;  (* generation wall: evaluate plus the breeding before it *)
  eval_s : float;  (* Fuzz_batch.evaluate *)
  job_s : float;  (* time inside batch jobs (span batch/job) *)
}

type round = {
  traced : bool;
  ref_eval : float array;  (* paired reference evaluation, per generation *)
  wall : float;
  gens : gen list;
  before : Tel.t;
  after : Tel.t;
  minor_words : float;
  major_collections : int;
  ok : bool;
}

let run ~exe ~work ~seed:_ ~seconds ~trace =
  let settings = Abg_batch.Runner.default_settings in
  (* Set-up samples: one before the timed phase and one after every
     round, each in a fresh process; the time they take is kept out of
     the timed phase. *)
  let setups = ref [] and setup_wall = ref 0.0 in
  let take_setup () =
    let dt, line, spent =
      setup_sample exe [ "--child"; "fuzz-setup"; Filename.concat work "setup" ]
    in
    setups := (dt, line) :: !setups;
    setup_wall := !setup_wall +. spent
  in
  take_setup ();
  (* Reference search and baseline, in process and untimed except for the
     per-layer figures. *)
  Abg_trace.Trace.store_clear ();
  let baseline, baseline_s = timed grid_baseline in
  let reference, evals = reference_search () in
  let expected = fingerprints reference in
  let all_evals = ref evals in
  let ref_ok = ref true in
  (* Timed rounds. A traced run alternates telemetry on and off per
     round, so it runs an even number of them. *)
  let rounds = ref [] in
  let t_start = now () in
  setup_wall := 0.0;
  let op_phase () = now () -. t_start -. !setup_wall in
  let finished () =
    let n = List.length !rounds in
    n > 0 && op_phase () >= seconds && ((not trace) || n mod 2 = 0)
  in
  while not (finished ()) do
    let r = List.length !rounds in
    let traced = (not trace) || r mod 2 = 0 in
    (* A traced run pairs every telemetry-on round with a reference
       search run just before it, so the attribution check compares
       work done under the same machine conditions. *)
    let ref_eval =
      if trace && traced && r > 0 then begin
        let result, evals = reference_search () in
        if fingerprints result <> expected then begin
          ref_ok := false;
          log "fuzz: reference search is not repeatable"
        end;
        all_evals := !all_evals @ evals;
        per_gen evals
      end
      else per_gen evals
    in
    let dir = Filename.concat work (Printf.sprintf "round-%03d" r) in
    Abg_trace.Trace.store_clear ();
    Abg_obs.Obs.set_enabled traced;
    let g0 = Gc.quick_stat () in
    let before = Tel.take () in
    let gens = ref [] in
    let t0 = now () in
    let boundary = ref t0 in
    let result =
      Abg_fuzz.Search.run ~params ~evaluate:(fun ~gen genomes ->
          let b = Tel.take () in
          let e0 = now () in
          let v = Abg_batch.Fuzz_batch.evaluate ~dir ~settings batch_spec ~gen genomes in
          let e1 = now () in
          let a = Tel.take () in
          gens :=
            { op_s = e1 -. !boundary; eval_s = e1 -. e0;
              job_s = Tel.ds ~before:b ~after:a "batch/job" }
            :: !gens;
          boundary := now ();
          v)
    in
    let wall = now () -. t0 in
    let after = Tel.take () in
    let g1 = Gc.quick_stat () in
    Abg_obs.Obs.set_enabled true;
    let ok = fingerprints result = expected in
    if not ok then log "fuzz: round %d differs from the reference search" r;
    rounds :=
      { traced; ref_eval; wall; gens = List.rev !gens; before; after;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        ok }
      :: !rounds;
    take_setup ()
  done;
  let elapsed = op_phase () in
  let setups = List.rev !setups in
  let baseline_ok =
    List.for_all (fun (_, l) -> l = Printf.sprintf "ready %h" baseline) setups
  in
  if not baseline_ok then log "fuzz: set-up baselines disagree";
  let rounds = List.rev !rounds in
  let gens = List.concat_map (fun r -> r.gens) rounds in
  let n_gens = List.length gens in
  let on = List.filter (fun r -> r.traced) rounds in
  let on_gens = List.concat_map (fun r -> r.gens) on in
  let n_on = float_of_int (List.length on_gens) in
  let c r name = Tel.dc ~before:r.before ~after:r.after name in
  let tot name = List.fold_left (fun a r -> a + c r name) 0 on in
  let per_op name = div (float_of_int (tot name)) n_on in
  let counters_of r = List.map (fun n -> (n, c r n)) work_counter_names in
  let repeat_ok = List.for_all (fun r -> counters_of r = counters_of (List.hd on)) on in
  if not repeat_ok then log "fuzz: work counters differ between rounds";
  let failed =
    List.fold_left (fun a r -> if r.ok then a else a + List.length r.gens) 0 rounds
  in
  let ops = List.map (fun g -> g.op_s) gens in
  log "fuzz: %d rounds, %d generations in %.2fs; p50 over %d samples; %d set-ups %s"
    (List.length rounds) n_gens elapsed n_gens (List.length setups)
    (String.concat " " (List.map (fun (t, _) -> Printf.sprintf "%.3f" t) setups));
  let end_to_end =
    [
      ("setup_s", median (List.map fst setups));
      ("ops_per_s", float_of_int n_gens /. elapsed);
      ("op_p50_ms", 1000.0 *. median ops);
      ("peak_rss_mb", self_peak_mb ());
    ]
  in
  (* Per generation: reference evaluation (timed outside, paired),
     batch overhead (Fuzz_batch.evaluate minus that evaluation) and
     breeding (generation wall minus Fuzz_batch.evaluate). The three add
     up to the generation by construction, so the check is that the
     outside evaluation fits inside the batch's own time: a negative
     overhead beyond the margin means the outside figures do not add up. *)
  let split r =
    List.mapi
      (fun i g -> (r.ref_eval.(i), g.eval_s -. r.ref_eval.(i), g.op_s -. g.eval_s))
      r.gens
  in
  let residual =
    List.fold_left
      (fun acc r ->
        let parts = split r in
        let op = sum (List.map (fun g -> g.op_s) r.gens) in
        let ev = sum (List.map (fun (e, _, _) -> e) parts)
        and ov = sum (List.map (fun (_, o, _) -> o) parts)
        and br = sum (List.map (fun (_, _, b) -> b) parts) in
        log "fuzz: round: generations %.3fs = reference eval %.3fs + batch overhead \
             %.3fs + breed %.3fs (inside batch jobs %.3fs)"
          op ev ov br (sum (List.map (fun g -> g.job_s) r.gens));
        Float.max acc
          (sum (List.map (fun (_, o, b) -> Float.max 0.0 (-.o) +. Float.max 0.0 (-.b)) parts)
           /. op))
      0.0 on
  in
  let overhead =
    let w t = List.filter_map (fun r -> if r.traced = t then Some r.wall else None) rounds in
    match (w true, w false) with
    | [], _ | _, [] -> 0.0
    | a, b -> (median a /. median b) -. 1.0
  in
  let evals = !all_evals in
  let fresh = List.filter (fun (_, _, misses, _) -> misses > 0) evals in
  let per_layer =
    [
      ("fuzz.grid_baseline_s", baseline_s);
      ("fuzz.eval_ms", 1000.0 *. median (List.map (fun (_, dt, _, _) -> dt) fresh));
      ( "netsim.events_per_s",
        div (float_of_int (List.fold_left (fun a (_, _, _, e) -> a + e) 0 evals)) (eval_seconds evals) );
      ( "trace.store_hit_share",
        fdiv (tot "trace.store.hits") (tot "trace.store.hits" + tot "trace.store.misses") );
      ( "batch.overhead_ms",
        1000.0 *. div (sum (List.concat_map (fun r -> List.map (fun (_, o, _) -> o) (split r)) on)) n_on );
      ("fuzz.breed_ms", 1000.0 *. div (sum (List.map (fun g -> g.op_s -. g.eval_s) on_gens)) n_on);
      ("sim.events", per_op "sim.events");
      ("distance.dtw.cells", per_op "distance.dtw.cells");
      ( "distance.dtw.skip_share",
        fdiv (tot "distance.dtw.abandoned" + tot "distance.dtw.lb_pruned") (tot "distance.dtw.calls") );
      ("gc.minor_mwords", div (sum (List.map (fun r -> r.minor_words) on)) n_on /. 1e6);
      ( "gc.major_collections",
        div (float_of_int (List.fold_left (fun a r -> a + r.major_collections) 0 on)) n_on );
      ("pool.jobs", per_op "pool.jobs");
      ("pool.sequential_maps", per_op "pool.sequential_maps");
      ("obs.overhead_share", overhead);
      ("attribution.residual_share", residual);
    ]
  in
  {
    attempted = n_gens;
    failed;
    checks_ok = baseline_ok && !ref_ok && repeat_ok && ((not trace) || residual <= 0.15);
    metrics = (if trace then per_layer else end_to_end);
    counters = counters_of (List.hd on);
  }
