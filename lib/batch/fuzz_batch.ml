(** Batch-backed population evaluation for the fuzzer.

    Each generation becomes its own batch run directory
    ([DIR/gen-NNNN]) whose grid is one {!Job.Fuzz_eval} job per
    *distinct* genome (duplicates produced by elitism or converged
    populations share one job). Running a generation is therefore
    resumable, shardable across [--workers], and inherits the
    kill-and-resume ≡ uninterrupted byte-identical contract: a settled
    generation re-runs as a pure journal read, which is also how
    [fuzz resume] and [fuzz report] re-derive a whole search without any
    mutable search state on disk. *)

module Json = Abg_util.Json

type spec = {
  fitness : Abg_fuzz.Fitness.kind;
  cca : string;
  cca_b : string option;
  handler : string option;  (** codec-encoded counterexample target *)
  duration : float;  (** simulated seconds per evaluation *)
  scenario_seed : int;  (** impairment seed shared by every scenario *)
}

let ( / ) = Filename.concat

let gen_dir dir gen = dir / Printf.sprintf "gen-%04d" gen

let job_of_genome spec genome =
  {
    Job.kind =
      Job.Fuzz_eval
        {
          fitness = Abg_fuzz.Fitness.kind_name spec.fitness;
          cca_b = spec.cca_b;
          handler = spec.handler;
          genome = Abg_fuzz.Genome.encode genome;
        };
    cca = spec.cca;
    seed = spec.scenario_seed;
    configs =
      [
        Abg_fuzz.Genome.to_config ~duration:spec.duration
          ~seed:spec.scenario_seed genome;
      ];
  }

(* Fitness of a quarantined (or missing) evaluation: the individual
   loses every tournament but the search keeps moving. *)
let failed_fitness = neg_infinity

(** [evaluate ~dir ~settings spec ~gen genomes] — score one population
    as batch jobs under [gen_dir dir gen], creating the run on first
    touch and resuming it otherwise. Returns fitness per genome, in
    population order. *)
let evaluate ~dir ~settings (spec : spec) ~gen genomes =
  let gdir = gen_dir dir gen in
  let jobs =
    Array.to_list (Array.map (job_of_genome spec) genomes)
    |> List.sort_uniq Job.compare_canonical
  in
  let summary =
    if Sys.file_exists (Runner.grid_path gdir) then
      Runner.resume ~dir:gdir ~settings ()
    else Runner.run ~dir:gdir ~settings jobs
  in
  ignore summary;
  (* Join results back to genomes through the journal family: every
     settled digest maps to its result blob's "value" field. *)
  let store = Store.open_ (Runner.store_path gdir) in
  let values = Hashtbl.create 64 in
  List.iter
    (fun (e : Journal.entry) ->
      match (e.Journal.status, e.Journal.result) with
      | Journal.Ok, Some blob -> (
          match Json.parse (Store.get store blob) with
          | doc -> (
              match Json.member_opt "value" doc with
              | Some v -> Hashtbl.replace values e.Journal.job (Json.hex_float v)
              | None -> ())
          | exception _ -> ())
      | _ -> Hashtbl.replace values e.Journal.job failed_fitness)
    (Runner.settled_entries gdir);
  Array.map
    (fun genome ->
      match Hashtbl.find_opt values (Job.digest (job_of_genome spec genome)) with
      | Some v -> v
      | None -> failed_fitness)
    genomes
