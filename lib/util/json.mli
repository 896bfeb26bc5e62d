(** JSON: the one tree type, reader and writer of the project.

    Every JSON byte the project persists or prints goes through this
    module — job specs and digests, journal lines, result blobs, the
    serve and fuzz verdict documents, telemetry reports and bench
    estimate files — so the byte contract below is stated once:

    - Strings escape the double quote and the backslash with a
      backslash, newline, carriage return and tab as [\n] [\r] [\t],
      and every other byte below 0x20 as [\u00XX]; all other bytes
      (UTF-8 included) pass through verbatim.
    - Finite numbers print as [%.17g]: exact integers below 1e17 print
      as plain integers, and every finite double round-trips.
    - Non-finite numbers print as [null] (nan) and [1e999] / [-1e999]
      (infinities), so every rendering is valid JSON that {!parse}
      accepts; the infinities parse back to themselves, nan to [Null].
    - Object members keep the caller's order. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Malformed of string
(** Raised by {!parse} on invalid text (the message carries the byte
    offset) and by the accessors on shape mismatches (the message names
    the field). *)

val parse : string -> t
(** The full JSON grammar; a [\uXXXX] escape above 0xFF decodes to
    ['?']. *)

val to_string : t -> string
(** Compact layout, no whitespace and no trailing newline: the canonical
    form of persisted artifacts. *)

val to_string_indented : t -> string
(** One member or element per line, two spaces per nesting level, [": "]
    after keys, no trailing newline: the layout of telemetry reports and
    bench files. *)

val hex : float -> t
(** A float as a bit-exact hex-notation JSON string (["0x1.8p+3"]). *)

val hex_float : t -> float
(** Inverse of {!hex}. *)

(** Accessors; all raise {!Malformed} with [ctx] in the message. *)

val member : ctx:string -> string -> t -> t
val member_opt : string -> t -> t option
val str : ctx:string -> t -> string
val int : ctx:string -> t -> int
(** An integral number of magnitude at most 2{^53}. *)

val list : ctx:string -> t -> t list
