(** Machine-readable telemetry reports.

    Serializes an {!Obs.snapshot} to a stable JSON document: object keys
    appear in sorted order, integers are printed without an exponent or
    fraction, and the ["counters"] section contains only the
    deterministic counters — so for a fixed seed two runs produce
    byte-identical ["counters"] sections, and CI can diff that section
    against a committed baseline with no tolerance ({!diff_counters}, the
    comparison the [telemetry-gate] CI job runs). *)

module Json = Abg_util.Json

let schema = "abagnale-telemetry/1"

let int_obj kvs =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) kvs)

let document (s : Obs.snapshot) =
  let histogram (sum : Obs.Histogram.summary) =
    Json.Obj
      [
        ("count", Json.Num (float_of_int sum.Obs.Histogram.count));
        ("sum", Json.Num sum.Obs.Histogram.sum);
        ( "buckets",
          int_obj
            (List.map (fun (bk, n) -> (string_of_int bk, n)) sum.Obs.Histogram.nonzero) );
      ]
  in
  let floatcell (total, per_domain) =
    Json.Obj
      (("total", Json.Num total)
      :: List.map
           (fun (slot, v) -> ("domain" ^ string_of_int slot, Json.Num v))
           per_domain)
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("counters", int_obj s.Obs.counters);
      ("volatile", int_obj s.Obs.volatile);
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) s.Obs.gauges));
      ( "histograms",
        Json.Obj (List.map (fun (k, sum) -> (k, histogram sum)) s.Obs.histograms) );
      ( "floatcells",
        Json.Obj
          (List.map
             (fun (k, total, per_domain) -> (k, floatcell (total, per_domain)))
             s.Obs.floatcells) );
    ]

let to_json s = Json.to_string_indented (document s) ^ "\n"

(** [write path] serializes a fresh snapshot to [path]. *)
let write path =
  let oc = open_out path in
  output_string oc (to_json (Obs.snapshot ()));
  close_out oc

(** The ["counters"] section of a telemetry document, as written — the
    deterministic subset a CI gate may diff. *)
let counters_of_json (j : Json.t) =
  match Json.member_opt "counters" j with
  | Some (Json.Obj members) ->
      List.map (fun (k, v) -> (k, Json.int ~ctx:("counter " ^ k) v)) members
  | _ -> raise (Json.Malformed "missing \"counters\" object")

type drift =
  | Missing of string * int  (** in baseline, absent from current *)
  | Unexpected of string * int  (** in current, absent from baseline *)
  | Changed of string * int * int  (** (name, baseline, current) *)

let pp_drift = function
  | Missing (k, v) -> Printf.sprintf "missing   %-40s baseline %d, now absent" k v
  | Unexpected (k, v) -> Printf.sprintf "unexpected %-40s absent from baseline, now %d" k v
  | Changed (k, b, c) -> Printf.sprintf "changed   %-40s baseline %d -> %d" k b c

(** [diff_counters ~baseline ~current] compares the deterministic counter
    sections of two telemetry documents (raw JSON strings). Returns every
    drift, sorted by counter name; [[]] means the sections agree exactly
    (same keys, same values). *)
let diff_counters ~baseline ~current =
  let b = counters_of_json (Json.parse baseline) in
  let c = counters_of_json (Json.parse current) in
  let drifts = ref [] in
  List.iter
    (fun (k, bv) ->
      match List.assoc_opt k c with
      | None -> drifts := Missing (k, bv) :: !drifts
      | Some cv -> if cv <> bv then drifts := Changed (k, bv, cv) :: !drifts)
    b;
  List.iter
    (fun (k, cv) ->
      if not (List.mem_assoc k b) then drifts := Unexpected (k, cv) :: !drifts)
    c;
  List.sort
    (fun a b ->
      let key = function
        | Missing (k, _) | Unexpected (k, _) | Changed (k, _, _) -> k
      in
      compare (key a) (key b))
    !drifts

(** Convenience for report consumers: the value of one deterministic
    counter in a snapshot, 0 when absent. *)
let find_counter (s : Obs.snapshot) name =
  match List.assoc_opt name s.Obs.counters with Some v -> v | None -> 0
