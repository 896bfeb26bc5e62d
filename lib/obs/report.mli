(** Machine-readable telemetry reports: stable JSON serialization of an
    {!Obs.snapshot} (sorted keys; the ["counters"] section is
    byte-identical across runs for a fixed seed) and the counter diff the
    CI telemetry gate runs. *)

val schema : string
(** Schema tag written into every document. *)

val document : Obs.snapshot -> Abg_util.Json.t
(** A snapshot as a JSON tree: ["schema"], ["counters"] (deterministic),
    ["volatile"], ["gauges"], ["histograms"], ["floatcells"]. *)

val to_json : Obs.snapshot -> string
(** {!document} in the indented layout, newline-terminated. *)

val write : string -> unit
(** [write path] serializes a fresh {!Obs.snapshot} to [path]. *)

val counters_of_json : Abg_util.Json.t -> (string * int) list
(** The ["counters"] section of a telemetry document, in document order.
    Raises {!Abg_util.Json.Malformed} if absent or non-integer. *)

(** One difference between two counter sections. *)
type drift =
  | Missing of string * int  (** in baseline, absent from current *)
  | Unexpected of string * int  (** in current, absent from baseline *)
  | Changed of string * int * int  (** (name, baseline, current) *)

val pp_drift : drift -> string

val diff_counters : baseline:string -> current:string -> drift list
(** Compare the deterministic counter sections of two telemetry documents
    (raw JSON strings); [[]] means exact agreement. Raises
    {!Abg_util.Json.Malformed} on a document that is not valid JSON. *)

val find_counter : Obs.snapshot -> string -> int
(** Value of one deterministic counter in a snapshot, 0 when absent. *)
