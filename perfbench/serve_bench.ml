(* Workload "serve": the online classifier daemon under load.

   `abagnale serve --no-escalate` runs as its own process on a Unix
   socket inside the checkout. The load generator is this process: one
   thread, two connections, driving 1024 sessions of pre-collected
   reno/cubic/vegas flows (the corpus of bench/serve.ml). The workload
   seed shuffles which flow each session carries and the order in which
   sessions are classified.

   The 768 sessions that are streamed completely form four groups, and
   the run alternates the two phases four times, so each phase samples
   the machine across the whole run rather than one stretch of it:

   Phase A (closed loop): every obs line of the next group, pipelined
   in chunks with a ping barrier after each, two chunks in flight per
   connection. ops_per_s counts obs lines ingested per second over all
   four A slices.

   Phase B (open loop, --seconds in total): classify requests at
   [classify_rate] to sessions whose streams are complete, on one
   connection, while obs lines of the other 256 sessions arrive on the
   other at the steady rate that spreads them over the whole phase
   (about 20k lines/s at --seconds 24). Latency runs from each
   request's due time.

   Set-up is sampled with throwaway daemons between the slices, so the
   samples spread over the run as well.

   Every verdict must equal the reply an in-process [Engine] gives to
   the same session's input; sessions are independent, so the reference
   feeds each distinct flow once. Any err reply fails an op. *)

open Common

let sessions = 1024
let complete = 768
let classify_rate = 100.0 (* requests/s *)
let chunk_lines = 2048
let chunks_in_flight = 2
let slices = 4

let corpus () =
  [ "reno"; "cubic"; "vegas" ]
  |> List.concat_map (fun name ->
         let ctor = Option.get (Abg_cca.Registry.find name) in
         Abg_trace.Trace.collect_suite ~duration:3.0 ~n:2 ~name ctor)
  |> List.map (fun tr ->
         String.split_on_char '\n' (Abg_trace.Io.to_string tr)
         |> List.filter (( <> ) "")
         |> Array.of_list)
  |> Array.of_list

let sid i = Printf.sprintf "f%04d" i

(* -- Non-blocking connections -- *)

type conn = {
  fd : Unix.file_descr;
  framer : Abg_trace.Io.Lines.t;
  pending : (string * int ref) Queue.t;  (* unsent strings, offset *)
}

let connect path =
  let fd = Abg_serve.Client.connect (Abg_serve.Daemon.Unix_socket path) in
  Unix.set_nonblock fd;
  { fd; framer = Abg_trace.Io.Lines.create (); pending = Queue.create () }

let send c s = Queue.push (s, ref 0) c.pending

let flush c =
  let rec go () =
    match Queue.peek_opt c.pending with
    | None -> ()
    | Some (s, off) -> (
        match Unix.write_substring c.fd s !off (String.length s - !off) with
        | n ->
            off := !off + n;
            if !off = String.length s then begin
              ignore (Queue.pop c.pending);
              go ()
            end
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
  in
  go ()

let buf = Bytes.create 65536

let read c on_line =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> failwith "serve: daemon hung up"
  | n -> Abg_trace.Io.Lines.feed c.framer (Bytes.sub_string buf 0 n) (fun _ l -> on_line l)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* One select round over both connections and the daemon's stdout,
   which is drained continuously so its log can never stall it. *)
let poll ~daemon ~timeout conns on_line =
  let rd = daemon.out :: List.map (fun (c, _) -> c.fd) conns in
  let wr =
    List.filter_map
      (fun (c, _) -> if Queue.is_empty c.pending then None else Some c.fd)
      conns
  in
  match Unix.select rd wr [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | r, w, _ ->
      List.iter (fun (c, _) -> if List.mem c.fd w then flush c) conns;
      if List.mem daemon.out r then pump daemon;
      List.iter (fun (c, i) -> if List.mem c.fd r then read c (on_line i)) conns

let is_err l = String.starts_with ~prefix:"err" l

(* -- Daemon -- *)

let start_daemon ~abagnale ~socket ~telemetry =
  let t0 = now () in
  let p =
    spawn abagnale
      [ "serve"; "--no-escalate"; "--socket"; socket; "--telemetry"; telemetry ]
  in
  ignore (await p (fun l -> String.starts_with ~prefix:"abagnale-serve listening" l));
  let dt = now () -. t0 in
  (p, dt, proc_kb (string_of_int p.pid) "VmRSS")

let stop_daemon p =
  Unix.kill p.pid Sys.sigterm;
  finish p

let telemetry_doc path = Abg_batch.Jsonx.parse (In_channel.with_open_bin path In_channel.input_all)

(* A number at [path] in a telemetry report; 0 when absent. *)
let tel doc path =
  let rec go v = function
    | [] -> (match v with Abg_batch.Jsonx.Num f -> f | _ -> 0.0)
    | k :: rest -> (
        match Abg_batch.Jsonx.member_opt k v with Some v -> go v rest | None -> 0.0)
  in
  go doc path

let tel_int doc section name = int_of_float (tel doc [ section; name ])

(* -- In-process reference -- *)

(* The verdict line an engine gives for a session fed [lines], with
   [sid] in place of the session id. *)
let reference_verdicts corpus =
  let engine = Abg_serve.Engine.create () in
  let _, refs_s = timed (fun () -> Abg_serve.Engine.warm_up engine) in
  let verdicts =
    Array.mapi
      (fun t lines ->
        let s = Printf.sprintf "ref%d" t in
        ignore (Abg_serve.Engine.handle_line engine ("open " ^ s));
        Array.iter (fun l -> ignore (Abg_serve.Engine.handle_line engine ("obs " ^ s ^ " " ^ l))) lines;
        match Abg_serve.Engine.handle_line engine ("classify " ^ s) with
        | [ v ] ->
            let prefix = "verdict " ^ s ^ " " in
            String.sub v (String.length prefix) (String.length v - String.length prefix)
        | _ -> failwith "serve: reference classify")
      corpus
  in
  (verdicts, refs_s)

(* Per-request engine cost in process, measured on four fresh engines
   of 32 sessions each, with telemetry on and off in turn. *)
type engine_cost = {
  telemetry : bool;
  obs_s : float;  (* per obs line *)
  classify_s : float list;  (* per classify request *)
  minor_words : float;  (* per obs line *)
  major_collections : float;  (* per obs line *)
  total_s : float;
}

let engine_costs corpus assign =
  List.init 4 (fun rep ->
      let telemetry = rep mod 2 = 0 in
      Abg_obs.Obs.set_enabled telemetry;
      let engine = Abg_serve.Engine.create () in
      Abg_serve.Engine.warm_up engine;
      let group = List.init 32 (fun i -> ((rep * 32) + i) mod sessions) in
      List.iter (fun i -> ignore (Abg_serve.Engine.handle_line engine ("open " ^ sid i))) group;
      let reqs =
        List.concat_map
          (fun i -> Array.to_list (Array.map (fun l -> "obs " ^ sid i ^ " " ^ l) corpus.(assign.(i))))
          group
      in
      let g0 = Gc.quick_stat () in
      let (), obs_s =
        timed (fun () -> List.iter (fun r -> ignore (Abg_serve.Engine.handle_line engine r)) reqs)
      in
      let g1 = Gc.quick_stat () in
      let classify_s =
        List.concat_map
          (fun i ->
            List.init 2 (fun _ ->
                snd (timed (fun () -> Abg_serve.Engine.handle_line engine ("classify " ^ sid i)))))
          group
      in
      Abg_obs.Obs.set_enabled true;
      let n = float_of_int (List.length reqs) in
      {
        telemetry;
        obs_s = obs_s /. n;
        classify_s;
        minor_words = (g1.Gc.minor_words -. g0.Gc.minor_words) /. n;
        major_collections = float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) /. n;
        total_s = obs_s +. sum classify_s;
      })

let run ~abagnale ~work ~seed ~seconds ~trace =
  (* Inputs, all built before any clock starts. *)
  let corpus = corpus () in
  let rng = Random.State.make [| seed |] in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let assign = shuffle (Array.init sessions (fun i -> i mod Array.length corpus)) in
  let interleave group =
    let longest = List.fold_left (fun m i -> max m (Array.length corpus.(assign.(i)))) 0 group in
    List.concat
      (List.init longest (fun k ->
           List.filter_map
             (fun i ->
               let ls = corpus.(assign.(i)) in
               if k < Array.length ls then Some ("obs " ^ sid i ^ " " ^ ls.(k) ^ "\n") else None)
             group))
  in
  let chunks group =
    let rec go acc cur n = function
      | [] -> List.rev (if n = 0 then acc else (String.concat "" (List.rev ("ping\n" :: cur)), n) :: acc)
      | l :: rest ->
          if n = chunk_lines then go ((String.concat "" (List.rev ("ping\n" :: cur)), n) :: acc) [ l ] 1 rest
          else go acc (l :: cur) (n + 1) rest
    in
    Array.of_list (go [] [] 0 (interleave group))
  in
  let group g = List.filter (fun i -> i mod slices = g) (List.init complete Fun.id) in
  let a_chunks =
    Array.init slices (fun g ->
        Array.init 2 (fun c -> chunks (List.filter (fun i -> i / slices mod 2 = c) (group g))))
  in
  let a_lines =
    Array.fold_left
      (Array.fold_left (Array.fold_left (fun a (_, n) -> a + n)))
      0 a_chunks
  in
  let slice_s = seconds /. float_of_int slices in
  let b_obs =
    Array.of_list (interleave (List.init (sessions - complete) (fun i -> complete + i)))
  in
  let n_obs = Array.length b_obs in
  let obs_rate = float_of_int n_obs /. seconds in
  let per_slice = int_of_float (classify_rate *. slice_s) in
  let n_cls = per_slice * slices in
  (* Slice g classifies only sessions of groups 0..g, which are complete. *)
  let targets =
    Array.init slices (fun g ->
        shuffle (Array.of_list (List.concat (List.init (g + 1) group))))
  in
  let target j =
    let t = targets.(j / per_slice) in
    t.(j mod per_slice mod Array.length t)
  in
  let expected, online_refs_s = reference_verdicts corpus in
  (* The inputs stay live for the whole run; compact once so the
     generator's collector has little to do while it keeps time. *)
  Gc.compact ();
  let expect i = Printf.sprintf "verdict %s %s" (sid i) expected.(assign.(i)) in
  (* Set-up: every daemon start is timed from spawn to its "listening"
     line. The first daemon leaves its set-up-only telemetry, the second
     serves the load, and a throwaway daemon on its own socket starts
     and stops after every slice of either phase while the load daemon
     sits idle. *)
  let socket = Filename.concat work "serve.sock" in
  let setup_tel = Filename.concat work "setup-telemetry.json" in
  let load_tel = Filename.concat work "load-telemetry.json" in
  let throwaway ~telemetry =
    let p, dt, _ =
      start_daemon ~abagnale ~socket:(Filename.concat work "setup.sock") ~telemetry
    in
    ignore (stop_daemon p);
    dt
  in
  let setups = ref [ throwaway ~telemetry:setup_tel ] in
  let daemon, setup_load, rss_listening = start_daemon ~abagnale ~socket ~telemetry:load_tel in
  setups := setup_load :: !setups;
  let take_setup () =
    setups := throwaway ~telemetry:(Filename.concat work "t.json") :: !setups
  in
  let failed = ref 0 in
  let attempted = ref 0 in
  let conns = [ (connect socket, 0); (connect socket, 1) ] in
  let c0 = fst (List.nth conns 0) and c1 = fst (List.nth conns 1) in
  (* Open every session (untimed), bounded by a ping. *)
  let pongs = Array.make 2 0 in
  let on_line_default i l =
    if l = "ok pong" then pongs.(i) <- pongs.(i) + 1
    else if is_err l then begin
      incr failed;
      log "serve: %s" l
    end
  in
  let barrier c i =
    let target = pongs.(i) + 1 in
    send c "ping\n";
    while pongs.(i) < target do
      poll ~daemon ~timeout:1.0 conns on_line_default
    done
  in
  send c0 (String.concat "" (List.init sessions (fun i -> "open " ^ sid i ^ "\n")));
  barrier c0 0;
  (* Phase A slice: push one group's chunks, two in flight per
     connection; the elapsed time. *)
  let phase_a chunks =
    let next = Array.make 2 0 in
    let base = Array.copy pongs in
    let feed (c, i) =
      while
        next.(i) < Array.length chunks.(i)
        && next.(i) - (pongs.(i) - base.(i)) < chunks_in_flight
      do
        send c (fst chunks.(i).(next.(i)));
        next.(i) <- next.(i) + 1
      done
    in
    let t0 = now () in
    List.iter feed conns;
    while
      pongs.(0) - base.(0) < Array.length chunks.(0)
      || pongs.(1) - base.(1) < Array.length chunks.(1)
    do
      poll ~daemon ~timeout:1.0 conns on_line_default;
      List.iter feed conns
    done;
    now () -. t0
  in
  (* Phase B runs on its own clock, which stands still during A slices:
     classify j is due at j / classify_rate, obs line m at m / obs_rate. *)
  let latencies = ref [] and late = ref [] and verdicts = ref 0 and unknown = ref 0 in
  let sent_cls = Queue.create () in
  let clock = ref (fun () -> 0.0) in
  let due j = float_of_int j /. classify_rate in
  let on_line i l =
    if i = 1 && String.starts_with ~prefix:"verdict " l then begin
      let j = Queue.pop sent_cls in
      latencies := (!clock () -. due j) :: !latencies;
      incr verdicts;
      if String.ends_with ~suffix:"Unknown" l || String.contains l '(' then incr unknown;
      if l <> expect (target j) then begin
        incr failed;
        log "serve: got %S, expected %S" l (expect (target j))
      end
    end
    else on_line_default i l
  in
  let m = ref 0 and j = ref 0 in
  let slice_obs_rates = ref [] in
  (* Obs lines go out in 1 ms batches; each classify at its due time. *)
  let phase_b g =
    let start = now () and base = float_of_int g *. slice_s in
    clock := (fun () -> base +. (now () -. start));
    let j_end = (g + 1) * per_slice and m0 = !m in
    let m_end =
      if g = slices - 1 then n_obs
      else min n_obs (int_of_float (obs_rate *. (base +. slice_s)))
    in
    let obs_tick = ref 0.0 in
    while !j < j_end || !verdicts < j_end || !m < m_end do
      let t = !clock () in
      if t >= !obs_tick then begin
        let upto = min m_end (int_of_float (t *. obs_rate)) in
        if upto > !m then begin
          send c0 (String.concat "" (Array.to_list (Array.sub b_obs !m (upto - !m))));
          m := upto
        end;
        obs_tick := t +. 0.001
      end;
      while !j < j_end && due !j <= t do
        send c1 ("classify " ^ sid (target !j) ^ "\n");
        late := (!clock () -. due !j) :: !late;
        Queue.push !j sent_cls;
        incr j
      done;
      flush c0;
      flush c1;
      let next_cls = if !j < j_end then due !j else infinity in
      let next_obs = if !m < m_end then !obs_tick else infinity in
      let wait = Float.min (Float.min next_cls next_obs -. !clock ()) 0.05 in
      poll ~daemon ~timeout:(Float.max 0.0 wait) conns on_line
    done;
    let dt = now () -. start in
    slice_obs_rates := (float_of_int (!m - m0) /. dt) :: !slice_obs_rates;
    dt
  in
  let a_s = ref 0.0 and b_s = ref 0.0 in
  for g = 0 to slices - 1 do
    a_s := !a_s +. phase_a a_chunks.(g);
    take_setup ();
    b_s := !b_s +. phase_b g;
    take_setup ()
  done;
  let a_s = !a_s and b_s = !b_s in
  let setups = List.rev !setups in
  let latencies = !latencies in
  attempted := !attempted + a_lines + !m + n_cls;
  barrier c0 0;
  let peak_kb = proc_kb (string_of_int daemon.pid) "VmHWM" in
  List.iter (fun (c, _) -> Unix.close c.fd) conns;
  let log_lines = stop_daemon daemon in
  (* Drain verdicts of fully streamed sessions must match too, one
     for each of them. *)
  let drained =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | "drain:" :: "verdict" :: s :: _ ->
            let i = int_of_string (String.sub s 1 (String.length s - 1)) in
            if i >= complete then None
            else if l = "drain: " ^ expect i then Some i
            else begin
              log "serve: drain %S" l;
              None
            end
        | _ -> None)
      log_lines
  in
  attempted := !attempted + complete;
  failed := !failed + complete - List.length (List.sort_uniq compare drained);
  let load = telemetry_doc load_tel and setup = telemetry_doc setup_tel in
  let cnt name =
    tel_int load "counters" name + tel_int load "volatile" name
    - (tel_int setup "counters" name + tel_int setup "volatile" name)
  in
  let mean_ns h = div (tel load [ "histograms"; h; "sum" ]) (tel load [ "histograms"; h; "count" ]) in
  let daemon_cls_ms = mean_ns "serve.classify_ns" /. 1e6 in
  let p50 = 1000.0 *. median latencies and p99 = 1000.0 *. quantile latencies 0.99 in
  log "serve: phase A %d lines in %.2fs; phase B %d obs lines (target %.0f/s, per slice %s), \
       %d classify in %.2fs; p50 %.3f ms, p99 %.3f ms over %d samples; %d set-ups %s"
    a_lines a_s !m obs_rate
    (String.concat " " (List.rev_map (Printf.sprintf "%.0f/s") !slice_obs_rates))
    n_cls b_s p50 p99 (List.length latencies) (List.length setups)
    (String.concat " " (List.map (Printf.sprintf "%.3f") setups));
  let end_to_end =
    [
      ("setup_s", median setups);
      ("ops_per_s", float_of_int a_lines /. a_s);
      ("op_p50_ms", p50);
      ("peak_rss_mb", float_of_int peak_kb /. 1024.0);
    ]
  in
  let per_layer () =
    let costs = engine_costs corpus assign in
    let on = List.filter (fun e -> e.telemetry) costs in
    let pick f = List.map f on in
    let engine_cls_ms = 1000.0 *. mean (List.concat_map (fun e -> e.classify_s) on) in
    let total t = sum (List.filter_map (fun e -> if e.telemetry = t then Some e.total_s else None) costs) in
    let classifications = cnt "serve.classifications" in
    let per_cls name = fdiv (cnt name) classifications in
    let queue_wait = p50 -. daemon_cls_ms in
    (* Attribution check: the two estimates of classify service time,
       the in-process engine's and the daemon's own, must agree; their
       gap is taken as a share of the client p50. *)
    let residual = Float.abs (daemon_cls_ms -. engine_cls_ms) /. p50 in
    [
      ("classifier.online_refs_s", online_refs_s);
      ("serve.op_p99_ms", p99);
      ("serve.engine_obs_us", 1e6 *. mean (pick (fun e -> e.obs_s)));
      ("serve.engine_classify_ms", engine_cls_ms);
      ("serve.daemon_request_us", mean_ns "serve.request_ns" /. 1e3);
      ("serve.daemon_classify_ms", daemon_cls_ms);
      ("serve.queue_wait_ms", queue_wait);
      ("serve.rss_per_session_kb", float_of_int (peak_kb - rss_listening) /. float_of_int sessions);
      ("serve.classifications", float_of_int classifications);
      ("serve.unknown_share", fdiv !unknown !verdicts);
      ("serve.generator_late_ms", 1000.0 *. quantile !late 0.99);
      ("distance.dtw.cells", per_cls "distance.dtw.cells");
      ( "distance.dtw.skip_share",
        fdiv (cnt "distance.dtw.abandoned" + cnt "distance.dtw.lb_pruned") (cnt "distance.dtw.calls") );
      ("sim.events", per_cls "sim.events");
      ("gc.minor_mwords", mean (pick (fun e -> e.minor_words)) /. 1e6);
      ("gc.major_collections", mean (pick (fun e -> e.major_collections)));
      ("pool.jobs", per_cls "pool.jobs");
      ("pool.sequential_maps", per_cls "pool.sequential_maps");
      ("obs.overhead_share", (total true /. total false) -. 1.0);
      ("attribution.residual_share", residual);
    ]
  in
  let metrics = if trace then per_layer () else end_to_end in
  let residual = Option.value ~default:0.0 (List.assoc_opt "attribution.residual_share" metrics) in
  {
    attempted = !attempted;
    failed = !failed;
    checks_ok = residual <= 0.5;
    metrics;
    counters = List.map (fun n -> (n, tel_int load "counters" n)) work_counter_names;
  }
