(* CI bench regression gate: hold fresh BENCH_micro.json / BENCH_serve.json
   hot-path estimates against the committed baseline in
   ci/bench-baseline.json.

   Two checks per gated entry, both optional in the baseline:
   - max_ratio: fresh / baseline_ns must not exceed it (catches
     regressions relative to the committed measurement, tolerant of
     machine-to-machine constant factors up to the ratio);
   - max_ns: an absolute ceiling for targets the design commits to
     unconditionally (e.g. serve classify p99 < 10 ms).

   Exit 1 on any violation or missing fresh entry, so the CI job fails.
   Run it after the micro and serve sections:
     dune exec bench/main.exe -- micro serve gate *)

module Json = Abg_util.Json

let of_file path = Json.parse (Abg_batch.Store.read_file path)

let num_field name j =
  match Json.member_opt name j with Some (Json.Num f) -> Some f | _ -> None

let baseline_path = "ci/bench-baseline.json"

(* Flat name -> estimate map of one fresh BENCH_*.json file. *)
let fresh_estimates path =
  if not (Sys.file_exists path) then
    failwith
      (Printf.sprintf
         "bench gate: %s missing — run its bench section first (dune exec \
          bench/main.exe -- micro serve gate)"
         path);
  match of_file path with
  | Json.Obj fields ->
      List.filter_map
        (function name, Json.Num f -> Some (name, f) | _ -> None)
        fields
  | _ -> failwith (Printf.sprintf "bench gate: %s is not a JSON object" path)

let run () =
  Runs.heading "Bench regression gate (vs ci/bench-baseline.json)";
  let baseline = of_file baseline_path in
  let entries =
    match Json.member_opt "entries" baseline with
    | Some (Json.Obj entries) -> entries
    | _ -> failwith "bench gate: baseline has no entries object"
  in
  let fresh =
    fresh_estimates "BENCH_micro.json" @ fresh_estimates "BENCH_serve.json"
  in
  let failures = ref 0 in
  let check name spec =
    match List.assoc_opt name fresh with
    | None ->
        incr failures;
        Printf.printf "FAIL %-32s missing from fresh estimates\n" name
    | Some value ->
        let ratio_verdict =
          match (num_field "baseline_ns" spec, num_field "max_ratio" spec) with
          | Some base, Some max_ratio when base > 0.0 ->
              let ratio = value /. base in
              if ratio > max_ratio then
                Some
                  (false,
                   Printf.sprintf "%.2fx baseline %.0f (limit %.2fx)" ratio
                     base max_ratio)
              else
                Some (true, Printf.sprintf "%.2fx baseline %.0f" ratio base)
          | _ -> None
        in
        let abs_verdict =
          match num_field "max_ns" spec with
          | Some cap ->
              if value > cap then
                Some (false, Printf.sprintf "%.0f ns over cap %.0f ns" value cap)
              else Some (true, Printf.sprintf "under %.0f ns cap" cap)
          | None -> None
        in
        let verdicts = List.filter_map Fun.id [ ratio_verdict; abs_verdict ] in
        let ok = List.for_all fst verdicts in
        if not ok then incr failures;
        Printf.printf "%s %-32s %12.0f ns  %s\n"
          (if ok then "ok  " else "FAIL")
          name value
          (String.concat "; " (List.map snd verdicts))
  in
  List.iter (fun (name, spec) -> check name spec) entries;
  if !failures > 0 then begin
    Printf.printf "[gate: %d regression(s) against %s]\n" !failures
      baseline_path;
    exit 1
  end
  else Printf.printf "[gate: %d entries within budget]\n\n" (List.length entries)
