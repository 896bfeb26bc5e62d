(* The benchmark driver: one workload per invocation.

     main.exe --workload synth|serve|fuzz --seed N --seconds S --trace 0|1

   Run from the repository root (perfbench/run.sh builds and execs it).
   The last stdout line is one JSON object: correct, attempted, failed
   and metrics — the end-to-end metrics with --trace 0, the per-layer
   metrics with --trace 1. Progress and diagnostics go to stderr.

   Every run also records its exact work counters in a ledger keyed by
   a digest of the source tree; a run whose counters differ from an
   earlier run of the same code is reported as incorrect. *)

open Common

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_p50_ms", "ms");
    ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("classifier.gordon_refs_s", "s");
    ("classifier.classify_ms", "ms");
    ("trace.segments_ms", "ms");
    ("core.refine_ms", "ms");
    ("refine.enumerate_ms", "ms");
    ("refine.iteration_ms", "ms");
    ("refine.terminal_ms", "ms");
    ("sat.propagations", "count");
    ("sat.conflicts", "count");
    ("enum.returned", "count");
    ("enum.pruned_share", "ratio");
    ("score.completions", "count");
    ("score.handlers_per_s", "1/s");
    ("distance.dtw.cells", "count");
    ("distance.dtw.skip_share", "ratio");
    ("gc.minor_mwords", "Mword");
    ("gc.major_collections", "count");
    ("sim.events", "count");
    ("classifier.online_refs_s", "s");
    ("serve.op_p99_ms", "ms");
    ("serve.engine_obs_us", "us");
    ("serve.engine_classify_ms", "ms");
    ("serve.daemon_request_us", "us");
    ("serve.daemon_classify_ms", "ms");
    ("serve.queue_wait_ms", "ms");
    ("serve.rss_per_session_kb", "kB");
    ("serve.classifications", "count");
    ("serve.unknown_share", "ratio");
    ("serve.generator_late_ms", "ms");
    ("fuzz.grid_baseline_s", "s");
    ("fuzz.eval_ms", "ms");
    ("netsim.events_per_s", "1/s");
    ("trace.store_hit_share", "ratio");
    ("batch.overhead_ms", "ms");
    ("fuzz.breed_ms", "ms");
    ("pool.jobs", "count");
    ("pool.sequential_maps", "count");
    ("obs.overhead_share", "ratio");
    ("attribution.residual_share", "ratio");
  ]

(* -- Counter ledger -- *)

let state_dir = ".perfbench"
let ledger_path = Filename.concat state_dir "ledger.txt"

(* Digest of everything that decides the program's behaviour. *)
let code_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if
             Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
             || f = "dune"
           then [ p ]
           else [])
  in
  let all = "dune-project" :: List.concat_map files [ "lib"; "bin"; "perfbench" ] in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (fun p -> p ^ "\t" ^ Digest.to_hex (Digest.file p)) all)))

(* Append this run's counters; [false] when an earlier entry for the
   same key disagrees. The synth and fuzz counters are per op and per
   round of pinned work, so the key is the code and workload alone and
   runs with different seeds and lengths are compared. The serve
   counters follow the session assignment and the number of classify
   requests, so its key adds the seed and run length. *)
let ledger_check ~workload ~seed ~seconds counters =
  mkdir_p state_dir;
  let key =
    if workload = "serve" then
      Printf.sprintf "%s %s %d %g" (code_digest ()) workload seed seconds
    else Printf.sprintf "%s %s" (code_digest ()) workload
  in
  let entry =
    String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) counters)
  in
  let earlier =
    if Sys.file_exists ledger_path then
      In_channel.with_open_text ledger_path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter_map (fun l ->
             match String.index_opt l '|' with
             | Some i when String.sub l 0 i = key ->
                 Some (String.sub l (i + 1) (String.length l - i - 1))
             | _ -> None)
    else []
  in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644
    ledger_path (fun oc -> Printf.fprintf oc "%s|%s\n" key entry);
  log "work counters: %s" entry;
  match List.find_opt (( <> ) entry) earlier with
  | None -> true
  | Some other ->
      log "work counters differ from an earlier run of this code: %s" other;
      false

(* -- Entry point -- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload synth|serve|fuzz --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--child"; "synth-setup" ] -> Synth_bench.child ()
  | "--child" :: "fuzz-setup" :: rest -> Fuzz_bench.child rest
  | _ ->
      let rec opts acc = function
        | k :: v :: rest when String.starts_with ~prefix:"--" k ->
            opts ((k, v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let o = opts [] args in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let workload = get "--workload" in
      let seed = int_of_string (get "--seed") in
      let seconds = float_of_string (get "--seconds") in
      let trace = get "--trace" = "1" in
      if not (Sys.file_exists "lib" && Sys.file_exists "bin") then begin
        prerr_endline "run from the repository root";
        exit 2
      end;
      let exe = Sys.executable_name in
      let abagnale = Filename.concat (Sys.getcwd ()) "_build/default/bin/abagnale.exe" in
      let work = Filename.concat state_dir "work" in
      rm_rf work;
      mkdir_p work;
      let out =
        Fun.protect
          ~finally:(fun () -> rm_rf work)
          (fun () ->
            match workload with
            | "synth" -> Synth_bench.run ~exe ~seed ~seconds ~trace
            | "serve" -> Serve_bench.run ~abagnale ~work ~seed ~seconds ~trace
            | "fuzz" -> Fuzz_bench.run ~exe ~work ~seed ~seconds ~trace
            | w ->
                Printf.eprintf "unknown workload %s\n" w;
                exit 2)
      in
      let ledger_ok = ledger_check ~workload ~seed ~seconds out.counters in
      let table = if trace then per_layer else end_to_end in
      List.iter
        (fun (n, _) ->
          if not (List.mem_assoc n table) then failwith ("undeclared metric " ^ n))
        out.metrics;
      let metrics =
        List.map
          (fun (n, u) ->
            (n, Option.value ~default:0.0 (List.assoc_opt n out.metrics), u))
          table
      in
      let correct = out.failed = 0 && out.checks_ok && ledger_ok in
      print_endline
        (result_line ~correct ~attempted:out.attempted ~failed:out.failed metrics)
