(* Tests for Abg_util: PRNG, statistics, units, resampling, JSON, float
   helpers. *)

open Abg_util

let check_float = Alcotest.(check (float 1e-9))
let check_close msg a b = Alcotest.(check (float 1e-6)) msg a b

(* -- Rng -- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 10 (fun _ -> Rng.float a) in
  let ys = List.init 10 (fun _ -> Rng.float b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_float_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_int_range () =
  let rng = Rng.create 8 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (x >= 0 && x < 17)
  done

let test_rng_int_covers () =
  let rng = Rng.create 9 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 5) <- true
  done;
  Array.iter (fun s -> Alcotest.(check bool) "value reached" true s) seen

let test_rng_uniform () =
  let rng = Rng.create 10 in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng 3.0 5.0 in
    Alcotest.(check bool) "in [3,5)" true (x >= 3.0 && x < 5.0)
  done

let test_rng_normal_moments () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Rng.normal rng ~mean:2.0 ~stddev:0.5) in
  let mean = Stats.mean xs in
  let std = Stats.stddev xs in
  Alcotest.(check bool) "mean ~ 2" true (Float.abs (mean -. 2.0) < 0.02);
  Alcotest.(check bool) "std ~ 0.5" true (Float.abs (std -. 0.5) < 0.02)

let test_rng_exponential_positive () =
  let rng = Rng.create 12 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Rng.exponential rng ~rate:2.0 >= 0.0)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 13 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create 14 in
  let a = Array.init 20 (fun i -> i) in
  let s = Rng.sample_without_replacement rng a 8 in
  Alcotest.(check int) "size" 8 (Array.length s);
  let distinct = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 8 (List.length distinct)

let test_rng_split_independent () =
  let rng = Rng.create 15 in
  let child = Rng.split rng in
  let a = Rng.float rng and b = Rng.float child in
  Alcotest.(check bool) "different streams" true (a <> b)

(* Splitting is the fuzzer's per-individual stream derivation: two
   children of one parent must be disjoint streams, and each must be
   individually reproducible from the same parent seed. *)
let test_rng_split_streams () =
  let draw rng n = List.init n (fun _ -> Rng.float rng) in
  let children seed =
    let parent = Rng.create seed in
    let c1 = Rng.split parent in
    let c2 = Rng.split parent in
    (draw c1 64, draw c2 64)
  in
  let a1, a2 = children 1234 in
  let b1, b2 = children 1234 in
  Alcotest.(check (list (float 0.0))) "first child reproducible" a1 b1;
  Alcotest.(check (list (float 0.0))) "second child reproducible" a2 b2;
  Alcotest.(check bool) "sibling streams disjoint" true
    (List.for_all2 (fun x y -> x <> y) a1 a2);
  (* and neither shadows the parent's own continuation *)
  let parent = Rng.create 1234 in
  let _ = Rng.split parent and _ = Rng.split parent in
  Alcotest.(check bool) "parent stream unexhausted" true
    (List.for_all2 (fun x y -> x <> y) (draw parent 64) a1)

(* -- Stats -- *)

let test_stats_mean () = check_close "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_stats_variance () =
  (* Sample variance of 1..5: sum of squared deviations 10, n-1 = 4. *)
  check_close "variance" 2.5 (Stats.variance [| 1.0; 2.0; 3.0; 4.0; 5.0 |])

let test_stats_welford_matches_batch () =
  let xs = Array.init 100 (fun i -> float_of_int (i * i) /. 7.0) in
  let acc = Stats.accumulator () in
  Array.iter (Stats.add acc) xs;
  check_close "mean" (Stats.mean xs) (Stats.mean_of acc);
  check_close "variance" (Stats.variance xs) (Stats.variance_of acc);
  Alcotest.(check int) "count" 100 (Stats.count acc);
  check_close "min" 0.0 (Stats.min_of acc);
  check_close "max" (Stats.mean [| 99.0 *. 99.0 /. 7.0 |]) (Stats.max_of acc)

let test_stats_median_odd () =
  check_close "median" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |])

let test_stats_median_even () =
  check_close "median" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_stats_quantile_bounds () =
  let xs = [| 3.0; 1.0; 4.0; 1.0; 5.0 |] in
  check_close "q0 = min" 1.0 (Stats.quantile xs 0.0);
  check_close "q1 = max" 5.0 (Stats.quantile xs 1.0)

let test_stats_regression () =
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let ys = [| 1.0; 3.0; 5.0; 7.0 |] in
  let slope, intercept = Stats.linear_regression xs ys in
  check_close "slope" 2.0 slope;
  check_close "intercept" 1.0 intercept

let test_stats_pearson_perfect () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close "corr +1" 1.0 (Stats.pearson xs (Array.map (fun x -> (2.0 *. x) +. 1.0) xs));
  check_close "corr -1" (-1.0) (Stats.pearson xs (Array.map (fun x -> -.x) xs))

let test_stats_pearson_constant () =
  check_close "constant series" 0.0
    (Stats.pearson [| 1.0; 1.0; 1.0 |] [| 1.0; 2.0; 3.0 |])

let test_stats_ewma () =
  let out = Stats.ewma 0.5 [| 0.0; 1.0; 1.0 |] in
  check_close "step response" 0.75 out.(2)

let test_stats_diff () =
  Alcotest.(check (array (float 1e-9))) "diff" [| 1.0; 2.0 |]
    (Stats.diff [| 0.0; 1.0; 3.0 |])

let test_stats_argmin () =
  Alcotest.(check int) "argmin" 2
    (Stats.argmin (fun x -> x) [| 3.0; 2.0; 1.0; 4.0 |])

(* -- Units -- *)

let test_units_algebra () =
  let open Units in
  Alcotest.(check bool) "B * s^-1 = rate" true (equal (mul bytes { bytes = 0; seconds = -1 }) rate);
  Alcotest.(check bool) "rate * s = B" true (equal (mul rate seconds) bytes);
  Alcotest.(check bool) "B / B = 1" true (equal (div bytes bytes) dimensionless);
  Alcotest.(check bool) "pow" true (equal (pow seconds 3) { bytes = 0; seconds = 3 })

let test_units_cbrt () =
  let open Units in
  (match cbrt { bytes = 3; seconds = -3 } with
  | Some u -> Alcotest.(check bool) "cbrt ok" true (equal u { bytes = 1; seconds = -1 })
  | None -> Alcotest.fail "expected Some");
  Alcotest.(check bool) "cbrt of bytes fails (the Cubic limitation)" true
    (cbrt bytes = None)

let test_units_domain () =
  let d = Units.domain ~limit:2 in
  Alcotest.(check int) "5x5 domain" 25 (List.length d);
  List.iter
    (fun u ->
      match Units.index_in_domain ~limit:2 u with
      | Some i -> Alcotest.(check bool) "index in range" true (i >= 0 && i < 25)
      | None -> Alcotest.fail "domain member must index")
    d

let test_units_to_string () =
  Alcotest.(check string) "rate" "B*s^-1" (Units.to_string Units.rate);
  Alcotest.(check string) "dimensionless" "1" (Units.to_string Units.dimensionless)

(* -- Resample -- *)

let test_resample_linear_endpoints () =
  let times = [| 0.0; 1.0; 2.0 |] and values = [| 0.0; 10.0; 20.0 |] in
  let out = Resample.linear ~times ~values ~n:5 in
  check_close "first" 0.0 out.(0);
  check_close "last" 20.0 out.(4);
  check_close "middle" 10.0 out.(2)

let test_resample_hold () =
  let times = [| 0.0; 1.0 |] and values = [| 5.0; 9.0 |] in
  let out =
    Resample.hold_fn ~time:(Array.get times) ~value:(Array.get values) ~len:2
      ~n:4
  in
  check_close "held start" 5.0 out.(0);
  check_close "held mid" 5.0 out.(1);
  check_close "switch" 9.0 out.(3)

let test_resample_single_point () =
  let out = Resample.linear ~times:[| 1.0 |] ~values:[| 7.0 |] ~n:3 in
  Alcotest.(check (array (float 1e-9))) "constant" [| 7.0; 7.0; 7.0 |] out

(* -- Floatx -- *)

let test_floatx_approx () =
  Alcotest.(check bool) "close" true (Floatx.approx_equal 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "far" false (Floatx.approx_equal 1.0 1.1)

let test_floatx_clamp () =
  check_close "below" 0.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 (-5.0));
  check_close "above" 1.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 5.0);
  check_close "inside" 0.5 (Floatx.clamp ~lo:0.0 ~hi:1.0 0.5)

let test_floatx_safe_div () =
  check_close "normal" 2.0 (Floatx.safe_div 4.0 2.0);
  check_close "by zero" 0.0 (Floatx.safe_div 4.0 0.0)

let test_floatx_cbrt () =
  check_close "positive" 2.0 (Floatx.cbrt 8.0);
  check_close "negative" (-2.0) (Floatx.cbrt (-8.0))

let test_floatx_fmod () =
  check_close "basic" 1.5 (Floatx.fmod 7.5 2.0);
  check_close "negative" 0.5 (Floatx.fmod (-1.5) 2.0);
  check_close "zero divisor" 0.0 (Floatx.fmod 5.0 0.0)

let test_floatx_log_grid () =
  let g = Floatx.log_grid ~lo:0.1 ~hi:10.0 ~n:3 in
  check_close "lo" 0.1 g.(0);
  check_close "mid" 1.0 g.(1);
  check_close "hi" 10.0 g.(2)

let test_floatx_lin_grid () =
  let g = Floatx.lin_grid ~lo:0.0 ~hi:4.0 ~n:5 in
  check_close "step" 1.0 g.(1)

(* -- Json -- *)

(* Structural equality, except that numbers compare by bits: [-0.] must
   come back as [-0.]. *)
let rec json_equal a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Json.List xs, Json.List ys ->
      List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, v) (k', v') -> k = k' && json_equal v v') xs ys
  | a, b -> a = b

(* Trees over every byte (control chars and bytes >= 0x80 included),
   every non-nan double, exact integers up to 2^53, and both bushy and
   deeply nested shapes. *)
let gen_json =
  let open QCheck.Gen in
  let num =
    oneof
      [
        map float_of_int (int_range (-(1 lsl 53)) (1 lsl 53));
        map
          (fun bits ->
            let f = Int64.float_of_bits bits in
            if Float.is_nan f then 0.5 else f)
          ui64;
        oneofl [ -0.0; 0.0; infinity; neg_infinity; 1e17; 0.1 ];
      ]
  in
  let text = string_size ~gen:char (int_range 0 8) in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) num;
        map (fun s -> Json.Str s) text;
      ]
  in
  let tree =
    sized
    @@ fix (fun self n ->
           if n <= 1 then leaf
           else
             frequency
               [
                 (1, leaf);
                 (2, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 3))));
                 ( 2,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_range 0 4) (pair text (self (n / 3)))) );
               ])
  in
  let deep =
    map2
      (fun depth leaf ->
        let rec nest d j =
          if d = 0 then j
          else nest (d - 1) (if d mod 2 = 0 then Json.List [ j ] else Json.Obj [ ("k", j) ])
        in
        nest depth leaf)
      (int_range 50 400) leaf
  in
  frequency [ (4, tree); (1, deep) ]

let arb_json = QCheck.make ~print:Json.to_string gen_json

let prop_json_roundtrip_compact =
  QCheck.Test.make ~name:"json parse (to_string j) = j" ~count:300 arb_json
    (fun j -> json_equal (Json.parse (Json.to_string j)) j)

let prop_json_roundtrip_indented =
  QCheck.Test.make ~name:"json parse (to_string_indented j) = j" ~count:300
    arb_json (fun j -> json_equal (Json.parse (Json.to_string_indented j)) j)

(* JSON has no nan/infinity literals; every rendering must still parse. *)
let test_json_non_finite () =
  List.iter
    (fun (v, expect) ->
      let text = Json.to_string (Json.List [ Json.Num v ]) in
      match Json.parse text with
      | Json.List [ got ] ->
          Alcotest.(check bool) (text ^ " parses back") true (json_equal expect got)
      | _ -> Alcotest.fail text
      | exception Json.Malformed msg -> Alcotest.fail (text ^ ": " ^ msg))
    [
      (Float.nan, Json.Null);
      (Float.infinity, Json.Num Float.infinity);
      (Float.neg_infinity, Json.Num Float.neg_infinity);
    ]

let test_json_malformed () =
  List.iter
    (fun text ->
      match Json.parse text with
      | exception Json.Malformed _ -> ()
      | _ -> Alcotest.fail ("accepted " ^ text))
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "nan"; "\"open"; "1 2"; "\"\\u12\"" ]

(* Json.int takes exact integers only: int_of_float of 1e19 is 0. *)
let test_json_int_range () =
  Alcotest.(check int) "2^53" (1 lsl 53) (Json.int ~ctx:"t" (Json.Num 0x1p53));
  Alcotest.(check int) "-2^53" (-(1 lsl 53)) (Json.int ~ctx:"t" (Json.Num (-0x1p53)));
  List.iter
    (fun f ->
      match Json.int ~ctx:"t" (Json.Num f) with
      | exception Json.Malformed _ -> ()
      | n -> Alcotest.failf "%h read as %d" f n)
    [ 1e19; -1e19; 0x1p54; 0.5; Float.infinity ]

(* -- QCheck properties -- *)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let x = Rng.int rng n in
      x >= 0 && x < n)

let prop_quantile_bounded =
  QCheck.Test.make ~name:"quantile within min..max" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 30) (float_bound_exclusive 100.0)) (float_bound_inclusive 1.0))
    (fun (xs, q) ->
      let a = Array.of_list xs in
      let v = Stats.quantile a q in
      let mn = Array.fold_left Float.min infinity a in
      let mx = Array.fold_left Float.max neg_infinity a in
      v >= mn -. 1e-9 && v <= mx +. 1e-9)

let prop_fmod_range =
  QCheck.Test.make ~name:"fmod lands in [0, |b|)" ~count:500
    QCheck.(pair (float_range (-100.) 100.) (float_range 0.001 50.0))
    (fun (a, b) ->
      let r = Floatx.fmod a b in
      r >= 0.0 && r < Float.abs b +. 1e-9)

let prop_ewma_bounded =
  QCheck.Test.make ~name:"ewma stays within input range" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 40) (float_range (-10.0) 10.0))
    (fun xs ->
      let a = Array.of_list xs in
      let out = Stats.ewma 0.3 a in
      let mn = Array.fold_left Float.min infinity a in
      let mx = Array.fold_left Float.max neg_infinity a in
      Array.for_all (fun v -> v >= mn -. 1e-9 && v <= mx +. 1e-9) out)

(* -- Parallel pool -- *)

let test_pool_map_matches_sequential () =
  let xs = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int)) "same results" (Array.map f xs)
    (Abg_parallel.Pool.map f xs)

let test_pool_map_forced_domains () =
  let xs = Array.init 37 (fun i -> i) in
  Alcotest.(check (array int)) "multi-domain" (Array.map succ xs)
    (Abg_parallel.Pool.map ~num_domains:4 succ xs)

let test_pool_mapi () =
  let xs = [| "a"; "b"; "c"; "d"; "e" |] in
  let out = Abg_parallel.Pool.mapi ~num_domains:2 (fun i s -> Printf.sprintf "%d%s" i s) xs in
  Alcotest.(check (array string)) "indexed" [| "0a"; "1b"; "2c"; "3d"; "4e" |] out

let test_pool_empty () =
  Alcotest.(check (array int)) "empty" [||] (Abg_parallel.Pool.map succ [||])

let test_pool_map_list () =
  Alcotest.(check (list int)) "list variant" [ 2; 3; 4 ]
    (Abg_parallel.Pool.map_list succ [ 1; 2; 3 ])

let test_pool_explicit_reuse () =
  (* An explicit pool serves many jobs before shutdown; shutdown is
     idempotent. *)
  let pool = Abg_parallel.Pool.create ~size:2 () in
  Alcotest.(check int) "size" 2 (Abg_parallel.Pool.size pool);
  let xs = Array.init 64 (fun i -> i) in
  for _ = 1 to 3 do
    Alcotest.(check (array int)) "reused pool"
      (Array.map (fun x -> x * x) xs)
      (Abg_parallel.Pool.map ~pool ~num_domains:3 (fun x -> x * x) xs)
  done;
  Abg_parallel.Pool.shutdown pool;
  Abg_parallel.Pool.shutdown pool

let test_pool_exception_reraised () =
  let xs = Array.init 50 (fun i -> i) in
  Alcotest.check_raises "re-raises worker exception" Exit (fun () ->
      ignore
        (Abg_parallel.Pool.map ~num_domains:2
           (fun x -> if x = 17 then raise Exit else x)
           xs));
  (* The pool must remain usable after a failed job. *)
  Alcotest.(check (array int)) "usable after failure" (Array.map succ xs)
    (Abg_parallel.Pool.map ~num_domains:2 succ xs)

let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let pool_suite =
  ( "util.pool",
    [
      Alcotest.test_case "matches sequential" `Quick test_pool_map_matches_sequential;
      Alcotest.test_case "forced domains" `Quick test_pool_map_forced_domains;
      Alcotest.test_case "mapi" `Quick test_pool_mapi;
      Alcotest.test_case "empty" `Quick test_pool_empty;
      Alcotest.test_case "map_list" `Quick test_pool_map_list;
      Alcotest.test_case "explicit pool reuse" `Quick test_pool_explicit_reuse;
      Alcotest.test_case "exception re-raise" `Quick test_pool_exception_reraised;
    ] )

let suites =
  [
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "int covers" `Quick test_rng_int_covers;
        Alcotest.test_case "uniform range" `Quick test_rng_uniform;
        Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
        Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "sample w/o replacement" `Quick test_rng_sample_without_replacement;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "split streams" `Quick test_rng_split_streams;
      ]
      @ qcheck [ prop_rng_int_in_bounds ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "variance" `Quick test_stats_variance;
        Alcotest.test_case "welford = batch" `Quick test_stats_welford_matches_batch;
        Alcotest.test_case "median odd" `Quick test_stats_median_odd;
        Alcotest.test_case "median even" `Quick test_stats_median_even;
        Alcotest.test_case "quantile bounds" `Quick test_stats_quantile_bounds;
        Alcotest.test_case "linear regression" `Quick test_stats_regression;
        Alcotest.test_case "pearson perfect" `Quick test_stats_pearson_perfect;
        Alcotest.test_case "pearson constant" `Quick test_stats_pearson_constant;
        Alcotest.test_case "ewma" `Quick test_stats_ewma;
        Alcotest.test_case "diff" `Quick test_stats_diff;
        Alcotest.test_case "argmin" `Quick test_stats_argmin;
      ]
      @ qcheck [ prop_quantile_bounded; prop_ewma_bounded ] );
    ( "util.units",
      [
        Alcotest.test_case "algebra" `Quick test_units_algebra;
        Alcotest.test_case "cbrt" `Quick test_units_cbrt;
        Alcotest.test_case "domain" `Quick test_units_domain;
        Alcotest.test_case "to_string" `Quick test_units_to_string;
      ] );
    ( "util.resample",
      [
        Alcotest.test_case "linear endpoints" `Quick test_resample_linear_endpoints;
        Alcotest.test_case "hold semantics" `Quick test_resample_hold;
        Alcotest.test_case "single point" `Quick test_resample_single_point;
      ] );
    ( "util.json",
      [
        Alcotest.test_case "non-finite numbers parse" `Quick test_json_non_finite;
        Alcotest.test_case "malformed input raises" `Quick test_json_malformed;
        Alcotest.test_case "int accessor range" `Quick test_json_int_range;
      ]
      @ qcheck [ prop_json_roundtrip_compact; prop_json_roundtrip_indented ] );
    ( "util.floatx",
      [
        Alcotest.test_case "approx_equal" `Quick test_floatx_approx;
        Alcotest.test_case "clamp" `Quick test_floatx_clamp;
        Alcotest.test_case "safe_div" `Quick test_floatx_safe_div;
        Alcotest.test_case "cbrt" `Quick test_floatx_cbrt;
        Alcotest.test_case "fmod" `Quick test_floatx_fmod;
        Alcotest.test_case "log_grid" `Quick test_floatx_log_grid;
        Alcotest.test_case "lin_grid" `Quick test_floatx_lin_grid;
      ]
      @ qcheck [ prop_fmod_range ] );
    pool_suite;
  ]
