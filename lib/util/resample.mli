(** Time-series resampling: converting irregular per-ACK (time, value)
    traces into fixed-rate series the distance metrics can compare. *)

val linear : times:float array -> values:float array -> n:int -> float array
(** Linear interpolation onto [n] evenly spaced points spanning the time
    range. Requires [times] increasing and non-empty. *)

val hold_fn :
  time:(int -> float) -> value:(int -> float) -> len:int -> n:int -> float array
(** Zero-order hold over the points [(time i, value i)], [i] in
    [0 .. len-1], onto [n] evenly spaced points spanning the time range:
    the value at [t] is the last sample at or before [t], matching the
    step-function semantics of a congestion window. *)

val linear_fn_into :
  time:(int -> float) -> value:(int -> float) -> len:int -> dst:float array ->
  unit
(** {!linear} over the points [(time i, value i)], [i] in [0 .. len-1],
    written into [dst] (length = output size) with no intermediate
    allocation; bit-identical to calling {!linear} on copies. *)
