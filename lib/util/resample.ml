(** Time-series resampling.

    CWND traces are irregular in time (one sample per ACK). The distance
    metrics in [Abg_distance] compare value series; this module converts a
    (time, value) step function to a fixed-rate series by linear
    interpolation or zero-order hold, so two traces collected under
    different ACK clocks become comparable. *)

(** [linear ~times ~values ~n] resamples onto [n] evenly spaced points
    spanning [times.(0) .. times.(last)], interpolating linearly.
    Requires [times] strictly increasing and non-empty. *)
let linear ~times ~values ~n =
  let len = Array.length times in
  assert (len = Array.length values && len > 0 && n > 0);
  if len = 1 then Array.make n values.(0)
  else begin
    let t0 = times.(0) and t1 = times.(len - 1) in
    let span = t1 -. t0 in
    let out = Array.make n 0.0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let t =
        if n = 1 then t0 else t0 +. (span *. float_of_int i /. float_of_int (n - 1))
      in
      while !j < len - 2 && times.(!j + 1) < t do
        incr j
      done;
      let ta = times.(!j) and tb = times.(!j + 1) in
      let va = values.(!j) and vb = values.(!j + 1) in
      let frac = if tb = ta then 0.0 else (t -. ta) /. (tb -. ta) in
      let frac = Float.max 0.0 (Float.min 1.0 frac) in
      out.(i) <- va +. (frac *. (vb -. va))
    done;
    out
  end

(** [hold_fn ~time ~value ~len ~n] resamples the points
    [(time i, value i)], [i] in [0 .. len-1], onto [n] evenly spaced
    points with zero-order hold: the value at time [t] is the last sample
    at or before [t], the semantics of a congestion window, which is a
    step function. Samples are read through accessors, so a caller
    holding an array of records needs no [O(len)] copies. *)
let hold_fn ~time ~value ~len ~n =
  assert (len > 0 && n > 0);
  if len = 1 then Array.make n (value 0)
  else begin
    let t0 = time 0 and t1 = time (len - 1) in
    let span = t1 -. t0 in
    let out = Array.make n 0.0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let t =
        if n = 1 then t0 else t0 +. (span *. float_of_int i /. float_of_int (n - 1))
      in
      while !j < len - 1 && time (!j + 1) <= t do
        incr j
      done;
      out.(i) <- value !j
    done;
    out
  end

(** [linear_fn_into ~time ~value ~len ~dst] is {!linear} over the points
    [(time i, value i)], [i] in [0 .. len-1], written into [dst] (whose
    length is the output [n]) instead of a fresh array. The float results
    are exactly the ones {!linear} computes from materialized copies, so
    the output is bit-identical — this is the zero-allocation resample
    the serving layer runs on every classification query, reading the
    sliding window's ring buffer through [value]. *)
let linear_fn_into ~time ~value ~len ~dst =
  let n = Array.length dst in
  assert (len > 0 && n > 0);
  if len = 1 then Array.fill dst 0 n (value 0)
  else begin
    let t0 = time 0 and t1 = time (len - 1) in
    let span = t1 -. t0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let t =
        if n = 1 then t0 else t0 +. (span *. float_of_int i /. float_of_int (n - 1))
      in
      while !j < len - 2 && time (!j + 1) < t do
        incr j
      done;
      let ta = time !j and tb = time (!j + 1) in
      let va = value !j and vb = value (!j + 1) in
      let frac = if tb = ta then 0.0 else (t -. ta) /. (tb -. ta) in
      let frac = Float.max 0.0 (Float.min 1.0 frac) in
      dst.(i) <- va +. (frac *. (vb -. va))
    done
  end
