(* Measurement plumbing shared by the workloads: clocks, order
   statistics, telemetry deltas, child processes and the result line.

   Everything here observes the pipeline from outside: it times calls
   into the libraries and reads the spans and counters they already
   record through Abg_obs. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let div a b = if b = 0.0 then 0.0 else a /. b
let fdiv a b = div (float_of_int a) (float_of_int b)
let sum = List.fold_left ( +. ) 0.0

(* Quantile with linear interpolation between closest ranks — the
   "inclusive" method of Python's statistics.quantiles. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.round (floor pos)) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let mean xs = div (sum xs) (float_of_int (List.length xs))

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* -- /proc readings -- *)

(* [proc_kb pid field] — a "kB" line of /proc/<pid>/status (VmHWM is
   the peak resident set, VmRSS the current one). *)
let proc_kb pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:(field ^ ":") line ->
            Scanf.sscanf
              (String.sub line (String.length field + 1)
                 (String.length line - String.length field - 1))
              " %d" Fun.id
        | _ -> go ()
        | exception End_of_file -> failwith ("no " ^ field ^ " in " ^ path)
      in
      go ())

let self_peak_mb () = float_of_int (proc_kb "self" "VmHWM") /. 1024.0

(* -- Telemetry deltas -- *)

module Tel = struct
  type t = Abg_obs.Obs.snapshot

  let take () = Abg_obs.Obs.snapshot ()

  let counter (s : t) name =
    match List.assoc_opt name s.Abg_obs.Obs.counters with
    | Some v -> v
    | None -> Option.value ~default:0 (List.assoc_opt name s.Abg_obs.Obs.volatile)

  (* Total seconds recorded under a span path ("synth/refine", ...). *)
  let span_s (s : t) path =
    match List.assoc_opt ("span/" ^ path) s.Abg_obs.Obs.histograms with
    | Some h -> h.Abg_obs.Obs.Histogram.sum /. 1e9
    | None -> 0.0

  let dc ~before ~after name = counter after name - counter before name
  let ds ~before ~after path = span_s after path -. span_s before path
end

(* The exact work counters every run records. They count events whose
   totals depend only on the workload's inputs, so any difference
   between runs of the same code is a behaviour change, not noise. *)
let work_counter_names =
  [ "sat.propagations"; "score.completions"; "distance.dtw.cells";
    "sim.events"; "serve.classifications" ]

(* -- Child processes --

   A child's stdout is a pipe read through the trace library's line
   framer; lines are kept so callers can check them after the child
   exits. Every child is waited for. *)

type proc = {
  pid : int;
  out : Unix.file_descr;
  lines : Abg_trace.Io.Lines.t;
  mutable got : string list;  (* newest first *)
  mutable eof : bool;
}

(* Children not yet reaped. If the run dies on an exception, they are
   killed and waited for on the way out. *)
let live = Hashtbl.create 8

let () =
  at_exit (fun () ->
      Hashtbl.iter
        (fun pid () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        live)

let spawn prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin w
      Unix.stderr
  in
  Hashtbl.replace live pid ();
  Unix.close w;
  { pid; out = r; lines = Abg_trace.Io.Lines.create (); got = []; eof = false }

let chunk = Bytes.create 65536

(* Read whatever the pipe holds now (blocking until at least one byte
   or end of file). *)
let pump p =
  if not p.eof then
    match Unix.read p.out chunk 0 (Bytes.length chunk) with
    | 0 ->
        Abg_trace.Io.Lines.flush p.lines (fun _ l -> p.got <- l :: p.got);
        p.eof <- true
    | n ->
        Abg_trace.Io.Lines.feed p.lines (Bytes.sub_string chunk 0 n) (fun _ l ->
            p.got <- l :: p.got)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Block until a line satisfying [pred] arrives; that line. *)
let await p pred =
  let rec go () =
    match List.find_opt pred p.got with
    | Some l -> l
    | None ->
        if p.eof then failwith (Printf.sprintf "child %d exited early" p.pid);
        pump p;
        go ()
  in
  go ()

(* Read to end of file, then reap. The exit status must be 0. *)
let finish p =
  while not p.eof do
    pump p
  done;
  Unix.close p.out;
  let status = snd (Unix.waitpid [] p.pid) in
  Hashtbl.remove live p.pid;
  match status with
  | Unix.WEXITED 0 -> List.rev p.got
  | Unix.WEXITED c -> failwith (Printf.sprintf "child %d exited %d" p.pid c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      failwith (Printf.sprintf "child %d killed by signal %d" p.pid s)

(* [setup_sample prog args] — spawn [prog] once and time it from spawn
   to its "ready" line; the time, the ready line (for callers to check)
   and the whole interval the caller spent, reaping included, so it can
   be kept out of the timed phase.

   Workloads take one sample between cycles, rounds or slices, so the
   samples spread over the whole run instead of sitting in one stretch
   of the machine's speed at its start. *)
let setup_sample prog args =
  let t0 = now () in
  let p = spawn prog args in
  let line = await p (String.starts_with ~prefix:"ready") in
  let dt = now () -. t0 in
  ignore (finish p);
  (dt, line, now () -. t0)

(* -- Files -- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* -- Results -- *)

type outcome = {
  attempted : int;
  failed : int;
  checks_ok : bool;  (* run-level checks beyond per-op outputs *)
  metrics : (string * float) list;
  counters : (string * int) list;  (* work counters for the ledger *)
}

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, v, u) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
          (json_float v) u)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)
