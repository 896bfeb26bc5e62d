(* Tests for the batch orchestrator: job serialization, the
   content-addressed store, the journal, and the crash-safe runner's
   determinism contract (killed-and-resumed = uninterrupted). *)

module Job = Abg_batch.Job
module Store = Abg_batch.Store
module Journal = Abg_batch.Journal
module Group_commit = Abg_batch.Group_commit
module Runner = Abg_batch.Runner
module Report = Abg_batch.Report

(* -- scratch directories -- *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "abagnale-batch-test.%d.%d" (Unix.getpid ()) !dir_counter)
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm_rf dir;
  Sys.mkdir dir 0o755;
  dir

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* -- Job -- *)

let all_kinds =
  [
    Job.Collect;
    Job.Synthesize { dsl = None };
    Job.Synthesize { dsl = Some "reno" };
    Job.Classify;
    Job.Noise { stddev = 0.05; keep = 0.9 };
    Job.Probe { fail_attempts = 1; sleep_ms = 0 };
  ]

let test_job_json_roundtrip () =
  let configs = Abg_netsim.Config.testbed_grid ~duration:2.0 ~n:2 () in
  List.iter
    (fun kind ->
      let job = { Job.kind; cca = "reno"; seed = 7; configs } in
      let job' = Job.of_json (Job.to_json job) in
      Alcotest.(check string)
        (Job.kind_name kind ^ " digest survives json round-trip")
        (Job.digest job) (Job.digest job');
      Alcotest.(check bool) "configs lossless" true (job.configs = job'.configs))
    all_kinds

let test_job_digest_distinguishes () =
  let configs = Abg_netsim.Config.testbed_grid ~duration:2.0 ~n:1 () in
  let base = { Job.kind = Job.Collect; cca = "reno"; seed = 7; configs } in
  let digests =
    List.map Job.digest
      [
        base;
        { base with Job.cca = "cubic" };
        { base with Job.seed = 8 };
        { base with Job.kind = Job.Classify };
        { base with Job.configs = [] };
      ]
  in
  Alcotest.(check int) "all distinct" 5
    (List.length (List.sort_uniq String.compare digests))

(* Byte pins: a job's canonical rendering is its identity (the digest
   is the journal key), so any change to the JSON writer that moves these
   bytes renames every settled job of every existing run. *)
let test_job_bytes_pinned () =
  let configs = Abg_netsim.Config.testbed_grid ~duration:2.0 ~n:1 () in
  let cfg =
    "[\"0x1.312dp+22|0x1.47ae147ae147bp-7|12|0x1.6ap+10|0x1p+1|5010|0x0p+0|0x1.0624dd2f1a9fcp-10\"]"
  in
  let header kind = "{\"schema\":\"abagnale-job/1\",\"kind\":\"" ^ kind ^ "\"," in
  let tail = "\"cca\":\"reno\",\"seed\":42,\"configs\":" ^ cfg ^ "}" in
  List.iter
    (fun (kind, fields, digest) ->
      let job = { Job.kind; cca = "reno"; seed = 42; configs } in
      Alcotest.(check string)
        (Job.kind_name kind ^ " bytes")
        (header (Job.kind_name kind) ^ fields ^ tail)
        (Abg_util.Json.to_string (Job.to_json job));
      Alcotest.(check string) (Job.kind_name kind ^ " digest") digest
        (Job.digest job))
    [
      (Job.Collect, "", "4838815be1581303cf59a05b80ca9e98");
      ( Job.Synthesize { dsl = Some "reno" },
        "\"dsl\":\"reno\",",
        "65be3e5331a4f868c0cf13398b42ea65" );
      (Job.Classify, "", "05fc6870140bbc8e9ac42aaaa74aa707");
      ( Job.Noise { stddev = 0.05; keep = 0.9 },
        "\"stddev\":\"0x1.999999999999ap-5\",\"keep\":\"0x1.ccccccccccccdp-1\",",
        "fcd3c9786bbe616fe4b8b2dff019a518" );
      ( Job.Probe { fail_attempts = 1; sleep_ms = 250 },
        "\"fail_attempts\":1,\"sleep_ms\":250,",
        "cf8552b00a73ce5ca627b65a34650f15" );
      ( Job.Fuzz_eval
          { fitness = "divergence"; cca_b = Some "cubic"; handler = None;
            genome = "g0" },
        "\"fitness\":\"divergence\",\"cca_b\":\"cubic\",\"fn\":null,\"genome\":\"g0\",",
        "8e6390c42a401bd59975a017e64352a4" );
    ]

let test_job_expand_counts () =
  let grid =
    {
      Job.kinds =
        [ Job.Collect; Job.Synthesize { dsl = None };
          Job.Noise { stddev = 0.1; keep = 0.8 } ];
      ccas = [ "reno"; "cubic" ];
      scenarios = 2;
      duration = 2.0;
      ack_jitter = 0.001;
      seeds = [ 1; 2; 3 ];
    }
  in
  let jobs = Job.expand grid in
  let count kind_name =
    List.length
      (List.filter (fun j -> Job.kind_name j.Job.kind = kind_name) jobs)
  in
  (* Collect is seed-insensitive: one job per CCA, not per seed. *)
  Alcotest.(check int) "collect jobs" 2 (count "collect");
  Alcotest.(check int) "synth jobs" 6 (count "synth");
  Alcotest.(check int) "noise jobs" 6 (count "noise");
  Alcotest.(check int) "total" 14 (List.length jobs);
  List.iter
    (fun j ->
      Alcotest.(check int) "scenario count"
        (List.length (Abg_netsim.Config.testbed_grid ~duration:2.0 ~n:2 ()))
        (List.length j.Job.configs))
    jobs

let test_job_expand_probe_configless () =
  let jobs =
    Job.expand
      {
        Job.kinds = [ Job.Probe { fail_attempts = 0; sleep_ms = 0 } ];
        ccas = [ "reno" ];
        scenarios = 3;
        duration = 2.0;
        ack_jitter = 0.0;
        seeds = [ 1 ];
      }
  in
  Alcotest.(check int) "one job" 1 (List.length jobs);
  Alcotest.(check int) "no configs" 0 (List.length (List.hd jobs).Job.configs)

let test_job_expand_rejects_empty () =
  let grid =
    {
      Job.kinds = [ Job.Collect ]; ccas = [ "reno" ]; scenarios = 1;
      duration = 2.0; ack_jitter = 0.0; seeds = [ 1 ];
    }
  in
  List.iter
    (fun broken ->
      match Job.expand broken with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")
    [
      { grid with Job.kinds = [] };
      { grid with Job.ccas = [] };
      { grid with Job.seeds = [] };
    ]

let test_job_kind_tokens () =
  let ok token expected =
    match Job.kind_of_token token with
    | Ok kind -> Alcotest.(check bool) token true (kind = expected)
    | Error msg -> Alcotest.fail msg
  in
  ok "collect" Job.Collect;
  ok "synth" (Job.Synthesize { dsl = None });
  ok "synth:cubic" (Job.Synthesize { dsl = Some "cubic" });
  ok "classify" Job.Classify;
  ok "noise:0.1:0.9" (Job.Noise { stddev = 0.1; keep = 0.9 });
  ok "probe:2:10" (Job.Probe { fail_attempts = 2; sleep_ms = 10 });
  List.iter
    (fun bad ->
      match Job.kind_of_token bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted " ^ bad))
    [ "nonsense"; "noise:x:y"; "probe:1"; "noise:0.1" ]

(* -- Store -- *)

let test_store_put_get () =
  let store = Store.open_ (Filename.concat (fresh_dir ()) "store") in
  let d1 = Store.put store "hello" in
  let d2 = Store.put store "hello" in
  Alcotest.(check string) "idempotent" d1 d2;
  Alcotest.(check string) "digest is content hash"
    (Store.digest_hex "hello") d1;
  Alcotest.(check string) "round-trip" "hello" (Store.get store d1);
  Alcotest.(check bool) "mem" true (Store.mem store d1);
  Alcotest.(check bool) "not mem" false
    (Store.mem store (Store.digest_hex "other"));
  let d3 = Store.put store "world" in
  Alcotest.(check (list string)) "list sorted"
    (List.sort String.compare [ d1; d3 ])
    (Store.list store)

let test_store_get_missing () =
  let store = Store.open_ (Filename.concat (fresh_dir ()) "store") in
  match Store.get store (Store.digest_hex "absent") with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_store_detects_corruption () =
  let root = Filename.concat (fresh_dir ()) "store" in
  let store = Store.open_ root in
  let d = Store.put store "payload" in
  let path =
    Filename.concat (Filename.concat (Filename.concat root "blobs")
                       (String.sub d 0 2)) d
  in
  write_file path "tampered";
  match Store.get store d with
  | exception Store.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt"

let test_store_detects_manifest_mismatch () =
  let root = Filename.concat (fresh_dir ()) "store" in
  ignore (Store.open_ root);
  write_file (Filename.concat root "manifest.json")
    "{\"schema\":\"something-else/9\"}\n";
  match Store.open_ root with
  | exception Store.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt"

let test_store_sweeps_tmp () =
  let root = Filename.concat (fresh_dir ()) "store" in
  ignore (Store.open_ root);
  let tmp name = Filename.concat (Filename.concat root "tmp") name in
  (* Pid 4194303 is the top of the default pid space — dead in practice;
     our own pid marks a previous incarnation of this process. The
     parent's pid is a live process that is not us: a coordinator
     sibling mid-put, whose tmp file must survive the sweep. *)
  let dead = tmp "blob.4194303.1" in
  let own = tmp (Printf.sprintf "blob.%d.9" (Unix.getpid ())) in
  let sibling = tmp (Printf.sprintf "blob.%d.1" (Unix.getppid ())) in
  let unparseable = tmp "junk" in
  List.iter (fun p -> write_file p "half-written") [ dead; own; sibling; unparseable ];
  ignore (Store.open_ root);
  Alcotest.(check bool) "dead pid swept" false (Sys.file_exists dead);
  Alcotest.(check bool) "own pid swept" false (Sys.file_exists own);
  Alcotest.(check bool) "unparseable swept" false (Sys.file_exists unparseable);
  Alcotest.(check bool) "live sibling kept" true (Sys.file_exists sibling)

let test_store_deferred_flush_and_close () =
  let root = Filename.concat (fresh_dir ()) "store" in
  let s = Store.open_ ~deferred:true root in
  let d = Store.put s "alpha" in
  Alcotest.(check string) "staged blob readable" "alpha" (Store.get s d);
  Alcotest.(check bool) "staged blob mem" true (Store.mem s d);
  Alcotest.(check (list string)) "nothing loose before flush" []
    (Store.list s);
  Alcotest.(check int) "one blob flushed" 1 (Store.flush_staged s);
  Alcotest.(check int) "flush idempotent" 0 (Store.flush_staged s);
  Alcotest.(check string) "flushed blob readable from pack" "alpha"
    (Store.get s d);
  let d2 = Store.put s "beta" in
  Store.close s;
  (* close flushes the stragglers and materializes the loose tree. *)
  Alcotest.(check (list string)) "loose tree complete after close"
    (List.sort String.compare [ d; d2 ])
    (Store.list s);
  let reopened = Store.open_ root in
  Alcotest.(check string) "survives reopen" "beta" (Store.get reopened d2)

let test_store_pack_recovery () =
  let root = Filename.concat (fresh_dir ()) "store" in
  let s = Store.open_ ~deferred:true root in
  let d = Store.put s "durable-but-not-closed" in
  ignore (Store.flush_staged s);
  (* Crash before close: no loose blobs exist. A fresh open must
     re-materialize them from the pack. *)
  let reopened = Store.open_ root in
  Alcotest.(check (list string)) "recovered from pack" [ d ]
    (Store.list reopened);
  Alcotest.(check string) "content intact" "durable-but-not-closed"
    (Store.get reopened d)

let test_store_torn_pack_tail () =
  let root = Filename.concat (fresh_dir ()) "store" in
  let s = Store.open_ ~deferred:true root in
  let d = Store.put s "committed" in
  ignore (Store.flush_staged s);
  (* Kill mid-append: a torn record fragment after the valid prefix. *)
  let pack =
    Filename.concat (Filename.concat root "pack")
      (Printf.sprintf "%d.pack" (Unix.getpid ()))
  in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 pack in
  output_string oc "{\"blob\":\"ffffffffffffffffffffffffffffffff\",\"bytes\":9999}\ntrunc";
  close_out oc;
  let reopened = Store.open_ root in
  Alcotest.(check (list string)) "only the committed blob" [ d ]
    (Store.list reopened);
  Alcotest.(check string) "committed blob intact" "committed"
    (Store.get reopened d)

let test_store_gc () =
  let root = Filename.concat (fresh_dir ()) "store" in
  let s = Store.open_ ~deferred:true root in
  let live = Store.put s "keep me" in
  let dead = Store.put s "sweep me" in
  ignore (Store.flush_staged s);
  Store.close s;
  (match Store.gc s ~live:(fun _ -> true) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "gc on a deferred store must be refused");
  let offline = Store.open_ root in
  let stats = Store.gc offline ~live:(String.equal live) in
  Alcotest.(check int) "kept" 1 stats.Store.kept;
  Alcotest.(check int) "swept" 1 stats.Store.swept;
  Alcotest.(check bool) "pack folded" true (stats.Store.packs_folded >= 1);
  Alcotest.(check (list string)) "canonical listing" [ live ]
    (Store.list offline);
  Alcotest.(check string) "live blob verified in place" "keep me"
    (Store.get offline live);
  Alcotest.(check (array string)) "pack dir emptied" [||]
    (Sys.readdir (Filename.concat root "pack"));
  Alcotest.(check bool) "dead blob gone" false (Store.mem offline dead)

(* -- Journal -- *)

let sample_entries =
  [
    {
      Journal.job = "aaaa"; status = Journal.Ok; attempts = 1;
      result = Some "bbbb"; error = None;
    };
    {
      Journal.job = "cccc"; status = Journal.Quarantined; attempts = 3;
      result = None; error = Some "Failure(\"boom\")";
    };
  ]

let test_journal_line_roundtrip () =
  List.iter
    (fun e ->
      let e' = Journal.entry_of_line (Journal.entry_to_line e) in
      Alcotest.(check string) "line stable" (Journal.entry_to_line e)
        (Journal.entry_to_line e'))
    sample_entries

let test_journal_append_replay () =
  let path = Filename.concat (fresh_dir ()) "journal.jsonl" in
  let j = Journal.open_ path in
  List.iter (Journal.append j) sample_entries;
  Journal.close j;
  let replayed = Journal.replay path in
  Alcotest.(check (list string)) "entries survive"
    (List.map Journal.entry_to_line sample_entries)
    (List.map Journal.entry_to_line replayed)

(* Byte pin: journal lines are replayed by every later resume. The error
   text exercises every escape class (quote, backslash, the short
   control escapes, and \u00XX for the rest). *)
let test_journal_line_pinned () =
  let entry =
    {
      Journal.job = Digest.to_hex (Digest.string "j");
      status = Journal.Quarantined;
      attempts = 3;
      result = None;
      error = Some "boom: \"x\"\n\tat\r\001 \\ end";
    }
  in
  Alcotest.(check string) "entry line"
    "{\"job\":\"363b122c528f54df4a0446b6bab05515\",\"status\":\"quarantined\",\"attempts\":3,\"result\":null,\"error\":\"boom: \\\"x\\\"\\n\\tat\\r\\u0001 \\\\ end\"}"
    (Journal.entry_to_line entry)

let test_journal_missing_is_empty () =
  Alcotest.(check int) "no file, no entries" 0
    (List.length (Journal.replay (Filename.concat (fresh_dir ()) "nope")))

let test_journal_drops_torn_tail () =
  let path = Filename.concat (fresh_dir ()) "journal.jsonl" in
  let j = Journal.open_ path in
  List.iter (Journal.append j) sample_entries;
  Journal.close j;
  (* Simulate a crash mid-append: a final line with no newline. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "{\"job\":\"dddd\",\"status\":\"ok\"";
  close_out oc;
  let replayed = Journal.replay path in
  Alcotest.(check int) "torn tail dropped" (List.length sample_entries)
    (List.length replayed)

let test_journal_interior_corruption_raises () =
  let path = Filename.concat (fresh_dir ()) "journal.jsonl" in
  write_file path "garbage, not json\n{\"also\":\"bad\"}\n";
  match Journal.replay path with
  | exception Abg_util.Json.Malformed _ -> ()
  | _ -> Alcotest.fail "expected Malformed"

(* -- Journal checkpoints -- *)

let dig i = Digest.to_hex (Digest.string (string_of_int i))

let mk_entry ?(status = Journal.Ok) ?(attempts = 1) i =
  match status with
  | Journal.Ok ->
      { Journal.job = dig i; status; attempts;
        result = Some (dig (100000 + i)); error = None }
  | Journal.Quarantined ->
      { Journal.job = dig i; status; attempts; result = None;
        error = Some (Printf.sprintf "Failure(\"boom %d\")" i) }

let lines_of entries =
  List.sort String.compare (List.map Journal.entry_to_line entries)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A valid checkpoint record for [entries], obtained through the public
   API via a scratch journal. *)
let checkpoint_line_for entries =
  let path = Filename.concat (fresh_dir ()) "scratch.jsonl" in
  let j = Journal.open_ path in
  Journal.append_checkpoint j entries;
  Journal.close j;
  String.trim (read_file path)

(* Flip one hex digit of the record's integrity hash: still canonical
   JSON, still carries the checkpoint prefix, but fails verification. *)
let corrupt_checkpoint line =
  let marker = "\"hash\":\"" in
  let rec find i =
    if i + String.length marker > String.length line then
      Alcotest.fail "no hash field in checkpoint line"
    else if String.sub line i (String.length marker) = marker then
      i + String.length marker
    else find (i + 1)
  in
  let at = find 0 in
  let b = Bytes.of_string line in
  Bytes.set b at (if line.[at] = '0' then '1' else '0');
  Bytes.to_string b

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let test_journal_checkpoint_roundtrip () =
  let path = Filename.concat (fresh_dir ()) "journal.jsonl" in
  let early = List.init 5 mk_entry in
  let late =
    List.init 3 (fun i -> mk_entry ~status:Journal.Quarantined ~attempts:3 (50 + i))
  in
  let j = Journal.open_ path in
  Journal.append_batch j early;
  Journal.append_checkpoint j early;
  Journal.append_batch j late;
  Journal.close j;
  let all = early @ late in
  Alcotest.(check (list string)) "full replay sees through checkpoint"
    (lines_of all) (lines_of (Journal.replay path));
  Alcotest.(check (list string)) "checkpointed replay agrees"
    (lines_of all) (lines_of (Journal.replay_checkpointed path))

let test_journal_torn_checkpoint_falls_back () =
  let build () =
    let path = Filename.concat (fresh_dir ()) "journal.jsonl" in
    let early = List.init 4 mk_entry in
    let late = List.init 4 (fun i -> mk_entry (50 + i)) in
    let j = Journal.open_ path in
    Journal.append_batch j early;
    Journal.append_checkpoint j early;
    Journal.append_batch j late;
    Journal.close j;
    (path, early @ late)
  in
  (* A kill mid-checkpoint-append leaves a torn (newline-less) record:
     both readers ignore it; the fast one falls back to the previous
     checkpoint. *)
  let path, all = build () in
  let cp = checkpoint_line_for all in
  append_raw path (String.sub cp 0 (String.length cp / 2));
  Alcotest.(check (list string)) "replay ignores torn checkpoint"
    (lines_of all) (lines_of (Journal.replay path));
  Alcotest.(check (list string)) "checkpointed replay falls back"
    (lines_of all) (lines_of (Journal.replay_checkpointed path));
  (* A complete-but-corrupt final record (bad hash) likewise. *)
  let path, all = build () in
  append_raw path (corrupt_checkpoint (checkpoint_line_for all) ^ "\n");
  Alcotest.(check (list string)) "replay drops invalid final checkpoint"
    (lines_of all) (lines_of (Journal.replay path));
  Alcotest.(check (list string)) "checkpointed replay falls back past it"
    (lines_of all) (lines_of (Journal.replay_checkpointed path))

let test_journal_interior_checkpoint_corruption_raises () =
  let path = Filename.concat (fresh_dir ()) "journal.jsonl" in
  let early = List.init 3 mk_entry in
  let j = Journal.open_ path in
  Journal.append_batch j early;
  Journal.close j;
  append_raw path (corrupt_checkpoint (checkpoint_line_for early) ^ "\n");
  append_raw path (Journal.entry_to_line (mk_entry 50) ^ "\n");
  (* Not in final position, so not a crash artifact: corruption. *)
  match Journal.replay path with
  | exception Abg_util.Json.Malformed _ -> ()
  | _ -> Alcotest.fail "expected Malformed"

let test_journal_compact () =
  let path = Filename.concat (fresh_dir ()) "journal.jsonl" in
  let entries = List.init 10 mk_entry in
  let j = Journal.open_ path in
  Journal.append_batch j entries;
  Journal.append_checkpoint j entries;
  Journal.close j;
  Journal.compact path;
  Alcotest.(check int) "compacted to one line" 1
    (List.length (String.split_on_char '\n' (String.trim (read_file path))));
  Alcotest.(check (list string)) "outcome set survives compaction"
    (lines_of entries) (lines_of (Journal.replay path));
  Alcotest.(check (list string)) "fast path agrees"
    (lines_of entries) (lines_of (Journal.replay_checkpointed path));
  (* The compacted journal is still an appendable journal. *)
  let extra = mk_entry 999 in
  let j = Journal.open_ path in
  Journal.append j extra;
  Journal.close j;
  Alcotest.(check (list string)) "append after compact"
    (lines_of (extra :: entries))
    (lines_of (Journal.replay path));
  (* Compacting a missing journal leaves it missing. *)
  let absent = Filename.concat (fresh_dir ()) "absent.jsonl" in
  Journal.compact absent;
  Alcotest.(check bool) "missing stays missing" false (Sys.file_exists absent)

let test_journal_compact_interrupted () =
  let path = Filename.concat (fresh_dir ()) "journal.jsonl" in
  let entries = List.init 6 mk_entry in
  let j = Journal.open_ path in
  Journal.append_batch j entries;
  Journal.close j;
  (* Kill before the rename: a half-written tmp next to the intact
     journal. Readers never look at the tmp; a retry overwrites it. *)
  write_file (path ^ ".compact") "half-written checkpoint record";
  Alcotest.(check (list string)) "journal unaffected by stale tmp"
    (lines_of entries) (lines_of (Journal.replay path));
  Journal.compact path;
  Alcotest.(check bool) "retry consumes the tmp" false
    (Sys.file_exists (path ^ ".compact"));
  Alcotest.(check (list string)) "retry compacts correctly"
    (lines_of entries) (lines_of (Journal.replay_checkpointed path))

(* Property: for any interleaving of outcome batches and checkpoint
   records — with any of the crash artifacts a SIGKILL can leave at the
   tail — the fast checkpointed reader and the full verifying reader
   agree on the outcome set, and it is exactly the set appended. *)
let replay_equivalence_prop (sizes_cps, statuses, tail_kind) =
  let path = Filename.concat (fresh_dir ()) "journal.jsonl" in
  let j = Journal.open_ path in
  let statuses = ref statuses in
  let next_status () =
    match !statuses with
    | [] -> Journal.Ok
    | s :: rest ->
        statuses := rest;
        if s then Journal.Ok else Journal.Quarantined
  in
  let counter = ref 0 in
  let settled = ref [] in
  List.iter
    (fun (size, checkpoint_after) ->
      let chunk =
        List.init size (fun _ ->
            incr counter;
            mk_entry ~status:(next_status ()) ~attempts:(1 + (!counter mod 4))
              !counter)
      in
      Journal.append_batch j chunk;
      settled := !settled @ chunk;
      if checkpoint_after then Journal.append_checkpoint j !settled)
    sizes_cps;
  Journal.close j;
  let all = !settled in
  (match tail_kind with
  | 0 -> () (* clean shutdown *)
  | 1 -> append_raw path "{\"job\":\"0123456789abcdef0123456789abcdef\",\"st"
  | 2 ->
      let cp = checkpoint_line_for all in
      append_raw path (String.sub cp 0 (max 1 (String.length cp / 2)))
  | _ -> append_raw path (corrupt_checkpoint (checkpoint_line_for all) ^ "\n"));
  let expected = lines_of all in
  expected = lines_of (Journal.replay path)
  && expected = lines_of (Journal.replay_checkpointed path)

let qcheck_replay_equivalence =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 0 6) (pair (int_range 0 8) bool))
        (list_size (int_range 0 48) bool)
        (int_range 0 3))
  in
  QCheck.Test.make ~name:"checkpointed replay = full replay" ~count:100
    (QCheck.make gen) replay_equivalence_prop

(* -- Group commit -- *)

let test_group_commit_flush_and_checkpoint () =
  let dir = fresh_dir () in
  let store = Store.open_ ~deferred:true (Filename.concat dir "store") in
  let jpath = Filename.concat dir "journal.jsonl" in
  let journal = Journal.open_ jpath in
  let commit =
    Group_commit.create ~checkpoint_every:4 ~store ~journal ~initial:[] ()
  in
  let entries =
    List.init 6 (fun i ->
        let blob = Store.put store (Printf.sprintf "result %d" i) in
        { (mk_entry i) with Journal.result = Some blob })
  in
  List.iteri
    (fun i e ->
      Group_commit.commit commit e;
      (* The durability-window invariant: once commit returns, the
         journal line and every blob it references are on disk. *)
      let on_disk = lines_of (Journal.replay_checkpointed jpath) in
      Alcotest.(check bool)
        (Printf.sprintf "entry %d durable at commit return" i)
        true
        (List.mem (Journal.entry_to_line e) on_disk))
    entries;
  Group_commit.close commit;
  Journal.close journal;
  Store.close store;
  Alcotest.(check (list string)) "all entries settled"
    (lines_of entries) (lines_of (Journal.replay jpath));
  Alcotest.(check bool) "checkpoint record written" true
    (contains ~affix:"{\"checkpoint\":" (read_file jpath));
  let reopened = Store.open_ (Filename.concat dir "store") in
  List.iter
    (fun (e : Journal.entry) ->
      Alcotest.(check bool) "result blob durable" true
        (Store.mem reopened (Option.get e.Journal.result)))
    entries

(* -- Runner -- *)

let quiet_settings =
  {
    Runner.default_settings with
    Runner.backoff_s = 0.0;
    num_domains = Some 2;
  }

let probe_job ?(fail_attempts = 0) ?(sleep_ms = 0) ~seed cca =
  { Job.kind = Job.Probe { fail_attempts; sleep_ms }; cca; seed; configs = [] }

let collect_job cca =
  {
    Job.kind = Job.Collect;
    cca;
    seed = 42;
    configs = Abg_netsim.Config.testbed_grid ~duration:2.0 ~n:1 ();
  }

let smoke_jobs =
  [
    collect_job "reno";
    probe_job ~seed:1 "reno";
    probe_job ~fail_attempts:1 ~seed:2 "reno";
    probe_job ~seed:3 "cubic";
  ]

let settled_lines dir =
  Journal.replay (Filename.concat dir "journal.jsonl")
  |> List.map Journal.entry_to_line
  |> List.sort String.compare

let store_blobs dir =
  let store = Store.open_ (Filename.concat dir "store") in
  List.map (fun d -> (d, Store.get store d)) (Store.list store)

let test_runner_kill_and_resume_deterministic () =
  (* Uninterrupted reference run. *)
  let uninterrupted = fresh_dir () in
  let summary = Runner.run ~dir:uninterrupted ~settings:quiet_settings smoke_jobs in
  Alcotest.(check int) "all completed" (List.length smoke_jobs)
    (List.length summary.Runner.completions);
  (* "Killed" run: stop after 2 jobs, then fake the crash artifacts a
     SIGKILL can leave — a torn journal line and a half-written tmp blob. *)
  let killed = fresh_dir () in
  let partial =
    Runner.run ~dir:killed
      ~settings:{ quiet_settings with Runner.max_jobs = Some 2 }
      smoke_jobs
  in
  Alcotest.(check int) "partial stopped early" 2
    (List.length partial.Runner.completions);
  Alcotest.(check int) "partial remaining" 2 partial.Runner.remaining;
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644
      (Filename.concat killed "journal.jsonl")
  in
  output_string oc "{\"job\":\"0123456789abcdef0123456789abcdef\",\"st";
  close_out oc;
  write_file
    (Filename.concat (Filename.concat (Filename.concat killed "store") "tmp")
       "blob.31337.1")
    "half-written blob";
  (* Resume and compare every persisted artifact byte-for-byte. *)
  let resumed = Runner.resume ~dir:killed ~settings:quiet_settings () in
  Alcotest.(check int) "resume finishes the rest" 2
    (List.length resumed.Runner.completions);
  Alcotest.(check int) "resume skips the journaled" 2 resumed.Runner.skipped;
  Alcotest.(check (list string)) "journal outcome sets identical"
    (settled_lines uninterrupted) (settled_lines killed);
  Alcotest.(check (list (pair string string))) "stores identical"
    (store_blobs uninterrupted) (store_blobs killed);
  Alcotest.(check string) "reports byte-identical"
    (Report.render uninterrupted) (Report.render killed);
  Alcotest.(check string) "status byte-identical"
    (Report.status uninterrupted) (Report.status killed);
  Alcotest.(check (array string)) "crash tmp swept on resume" [||]
    (Sys.readdir (Filename.concat (Filename.concat killed "store") "tmp"));
  (* Resuming a finished run is a no-op. *)
  let idle = Runner.resume ~dir:killed ~settings:quiet_settings () in
  Alcotest.(check int) "nothing to do" 0 (List.length idle.Runner.completions);
  Alcotest.(check int) "everything skipped" (List.length smoke_jobs)
    idle.Runner.skipped

let test_runner_quarantines_poisoned_job () =
  let dir = fresh_dir () in
  let settings = { quiet_settings with Runner.retries = 2 } in
  (* fail_attempts is beyond the attempt budget: the job can never pass. *)
  let poisoned = probe_job ~fail_attempts:99 ~seed:1 "reno" in
  let jobs = [ poisoned; probe_job ~seed:2 "reno"; probe_job ~seed:3 "cubic" ] in
  let summary = Runner.run ~dir ~settings jobs in
  Alcotest.(check int) "grid completes" 3 (List.length summary.Runner.completions);
  let quarantined =
    List.filter
      (fun c -> match c.Runner.status with
        | Runner.Quarantined _ -> true | Runner.Done -> false)
      summary.Runner.completions
  in
  (match quarantined with
  | [ c ] ->
      Alcotest.(check string) "the poisoned job" (Job.digest poisoned)
        c.Runner.digest;
      Alcotest.(check int) "all attempts consumed" 3 c.Runner.attempts;
      (match c.Runner.status with
      | Runner.Quarantined err ->
          Alcotest.(check bool) "error recorded" true
            (String.length err > 0 && contains ~affix:"injected failure" err)
      | Runner.Done -> assert false)
  | _ -> Alcotest.fail "expected exactly one quarantined job");
  (* The journal records the quarantine with its error. *)
  let entries = Journal.replay (Filename.concat dir "journal.jsonl") in
  let entry =
    List.find (fun e -> e.Journal.job = Job.digest poisoned) entries
  in
  Alcotest.(check bool) "journaled as quarantined" true
    (entry.Journal.status = Journal.Quarantined);
  Alcotest.(check bool) "journaled error" true (entry.Journal.error <> None);
  (* Resume does not retry quarantined jobs: quarantine is terminal. *)
  let idle = Runner.resume ~dir ~settings () in
  Alcotest.(check int) "quarantine is terminal" 0
    (List.length idle.Runner.completions)

let test_runner_retries_then_succeeds () =
  let dir = fresh_dir () in
  let flaky = probe_job ~fail_attempts:2 ~seed:1 "reno" in
  let summary =
    Runner.run ~dir ~settings:{ quiet_settings with Runner.retries = 2 }
      [ flaky ]
  in
  match summary.Runner.completions with
  | [ c ] ->
      Alcotest.(check bool) "succeeded" true (c.Runner.status = Runner.Done);
      Alcotest.(check int) "took three attempts" 3 c.Runner.attempts
  | _ -> Alcotest.fail "expected one completion"

let test_runner_timeout_quarantines () =
  let dir = fresh_dir () in
  let slow = probe_job ~sleep_ms:80 ~seed:1 "reno" in
  let summary =
    Runner.run ~dir
      ~settings:
        { quiet_settings with Runner.retries = 1; timeout_s = 0.01 }
      [ slow ]
  in
  match summary.Runner.completions with
  | [ { Runner.status = Runner.Quarantined err; attempts; _ } ] ->
      (* Deterministic message: the limit, never the measured elapsed. *)
      Alcotest.(check string) "deterministic timeout error"
        "exceeded 0.01s wall-clock limit" err;
      Alcotest.(check int) "attempt budget honored" 2 attempts
  | _ -> Alcotest.fail "expected a quarantined timeout"

let test_runner_shard_union_equals_whole () =
  let jobs =
    List.map (fun seed -> probe_job ~seed "reno") [ 1; 2; 3; 4; 5 ]
  in
  let whole = fresh_dir () in
  ignore (Runner.run ~dir:whole ~settings:quiet_settings jobs);
  let shard_lines i =
    let dir = fresh_dir () in
    ignore
      (Runner.run ~dir
         ~settings:{ quiet_settings with Runner.shard = Some (i, 2) }
         jobs);
    (settled_lines dir, store_blobs dir)
  in
  let lines0, blobs0 = shard_lines 0 in
  let lines1, blobs1 = shard_lines 1 in
  (* Disjoint... *)
  List.iter
    (fun l -> Alcotest.(check bool) "shards disjoint" false (List.mem l lines1))
    lines0;
  (* ...and their union is exactly the unsharded run. *)
  Alcotest.(check (list string)) "journal union = whole"
    (settled_lines whole)
    (List.sort String.compare (lines0 @ lines1));
  let merge a b =
    List.sort_uniq (fun (d, _) (d', _) -> String.compare d d') (a @ b)
  in
  Alcotest.(check (list (pair string string))) "store union = whole"
    (store_blobs whole) (merge blobs0 blobs1)

let test_runner_shard_select () =
  let xs = [ 0; 1; 2; 3; 4; 5; 6 ] in
  Alcotest.(check (list int)) "0/3" [ 0; 3; 6 ] (Runner.shard_select ~i:0 ~n:3 xs);
  Alcotest.(check (list int)) "1/3" [ 1; 4 ] (Runner.shard_select ~i:1 ~n:3 xs);
  Alcotest.(check (list int)) "2/3" [ 2; 5 ] (Runner.shard_select ~i:2 ~n:3 xs);
  match Runner.shard_select ~i:3 ~n:3 xs with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_runner_init_refuses_overwrite () =
  let dir = fresh_dir () in
  Runner.init ~dir [ probe_job ~seed:1 "reno" ];
  match Runner.init ~dir [ probe_job ~seed:2 "reno" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_runner_grid_persists_canonically () =
  let dir = fresh_dir () in
  let jobs = [ collect_job "reno"; probe_job ~seed:9 "cubic" ] in
  Runner.init ~dir jobs;
  let loaded = Runner.jobs_of_dir ~dir in
  Alcotest.(check (list string)) "canonical order, lossless"
    (List.sort String.compare (List.map Job.digest jobs))
    (List.map Job.digest loaded)

let merged_settled_lines dir =
  Runner.settled_entries ~verify:true dir
  |> List.map Journal.entry_to_line
  |> List.sort String.compare

let test_runner_worker_journals_merge () =
  (* Two coordinator workers sharing one run directory must together
     reproduce the single-process run byte-for-byte: journal outcome
     union, store, and report. *)
  let jobs = List.map (fun seed -> probe_job ~seed "reno") [ 1; 2; 3; 4; 5 ] in
  let whole = fresh_dir () in
  ignore (Runner.run ~dir:whole ~settings:quiet_settings jobs);
  let dir = fresh_dir () in
  Runner.init ~dir jobs;
  List.iter
    (fun i ->
      ignore
        (Runner.resume ~dir
           ~settings:{ quiet_settings with Runner.worker = Some (i, 2) }
           ()))
    [ 0; 1 ];
  Alcotest.(check (list string)) "two worker journals"
    [ "journal.w0of2.jsonl"; "journal.w1of2.jsonl" ]
    (List.map Filename.basename (Runner.journal_paths ~dir));
  Alcotest.(check (list string)) "journal union = single-process"
    (merged_settled_lines whole) (merged_settled_lines dir);
  Alcotest.(check (list (pair string string))) "stores identical"
    (store_blobs whole) (store_blobs dir);
  Alcotest.(check string) "reports byte-identical"
    (Report.render whole) (Report.render dir);
  (* A full-family resume (no worker slice) finds nothing left. *)
  let idle = Runner.resume ~dir ~settings:quiet_settings () in
  Alcotest.(check int) "family fully settled" 0
    (List.length idle.Runner.completions);
  Alcotest.(check int) "all skipped" (List.length jobs) idle.Runner.skipped

let test_runner_worker_excludes_shard () =
  let dir = fresh_dir () in
  Runner.init ~dir [ probe_job ~seed:1 "reno" ];
  match
    Runner.resume ~dir
      ~settings:
        { quiet_settings with Runner.worker = Some (0, 2); shard = Some (0, 2) }
      ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_runner_gc_keeps_live_sweeps_orphans () =
  let dir = fresh_dir () in
  ignore (Runner.run ~dir ~settings:quiet_settings smoke_jobs);
  let before_report = Report.render dir in
  let before_blobs = store_blobs dir in
  let stats = Runner.gc ~dir in
  Alcotest.(check int) "nothing live swept" 0 stats.Store.swept;
  Alcotest.(check (list (pair string string))) "store unchanged"
    before_blobs (store_blobs dir);
  (* Plant an orphan — a blob no journaled result references. *)
  let store = Store.open_ (Filename.concat dir "store") in
  let orphan = Store.put store "orphaned by a superseded run" in
  let stats = Runner.gc ~dir in
  Alcotest.(check int) "orphan swept" 1 stats.Store.swept;
  Alcotest.(check bool) "orphan gone" false (Store.mem store orphan);
  Alcotest.(check (list (pair string string))) "live blobs survive gc"
    before_blobs (store_blobs dir);
  Alcotest.(check string) "report unchanged by gc" before_report
    (Report.render dir)

let test_runner_compact_then_resume () =
  let dir = fresh_dir () in
  ignore (Runner.run ~dir ~settings:quiet_settings smoke_jobs);
  let before_report = Report.render dir in
  let before_lines = merged_settled_lines dir in
  Runner.compact ~dir;
  Alcotest.(check int) "journal is one checkpoint line" 1
    (List.length
       (String.split_on_char '\n'
          (String.trim (read_file (Filename.concat dir "journal.jsonl")))));
  Alcotest.(check (list string)) "outcome set survives" before_lines
    (merged_settled_lines dir);
  Alcotest.(check string) "report unchanged" before_report (Report.render dir);
  let idle = Runner.resume ~dir ~settings:quiet_settings () in
  Alcotest.(check int) "compacted run is still settled" 0
    (List.length idle.Runner.completions);
  Alcotest.(check int) "all skipped" (List.length smoke_jobs)
    idle.Runner.skipped

let test_report_verify_equivalent () =
  let dir = fresh_dir () in
  ignore (Runner.run ~dir ~settings:quiet_settings smoke_jobs);
  Alcotest.(check string) "verified render = fast render"
    (Report.render dir) (Report.render ~verify:true dir);
  Alcotest.(check string) "verified status = fast status"
    (Report.status dir) (Report.status ~verify:true dir)

let suites =
  [
    ( "batch.job",
      [
        Alcotest.test_case "json roundtrip" `Quick test_job_json_roundtrip;
        Alcotest.test_case "digest distinguishes" `Quick
          test_job_digest_distinguishes;
        Alcotest.test_case "bytes pinned" `Quick test_job_bytes_pinned;
        Alcotest.test_case "expand counts" `Quick test_job_expand_counts;
        Alcotest.test_case "probe configless" `Quick
          test_job_expand_probe_configless;
        Alcotest.test_case "expand rejects empty" `Quick
          test_job_expand_rejects_empty;
        Alcotest.test_case "kind tokens" `Quick test_job_kind_tokens;
      ] );
    ( "batch.store",
      [
        Alcotest.test_case "put/get" `Quick test_store_put_get;
        Alcotest.test_case "missing" `Quick test_store_get_missing;
        Alcotest.test_case "corruption" `Quick test_store_detects_corruption;
        Alcotest.test_case "manifest mismatch" `Quick
          test_store_detects_manifest_mismatch;
        Alcotest.test_case "tmp sweep" `Quick test_store_sweeps_tmp;
        Alcotest.test_case "deferred flush/close" `Quick
          test_store_deferred_flush_and_close;
        Alcotest.test_case "pack recovery" `Quick test_store_pack_recovery;
        Alcotest.test_case "torn pack tail" `Quick test_store_torn_pack_tail;
        Alcotest.test_case "gc" `Quick test_store_gc;
      ] );
    ( "batch.journal",
      [
        Alcotest.test_case "line roundtrip" `Quick test_journal_line_roundtrip;
        Alcotest.test_case "line pinned" `Quick test_journal_line_pinned;
        Alcotest.test_case "append/replay" `Quick test_journal_append_replay;
        Alcotest.test_case "missing file" `Quick test_journal_missing_is_empty;
        Alcotest.test_case "torn tail" `Quick test_journal_drops_torn_tail;
        Alcotest.test_case "interior corruption" `Quick
          test_journal_interior_corruption_raises;
        Alcotest.test_case "checkpoint roundtrip" `Quick
          test_journal_checkpoint_roundtrip;
        Alcotest.test_case "torn checkpoint fallback" `Quick
          test_journal_torn_checkpoint_falls_back;
        Alcotest.test_case "interior checkpoint corruption" `Quick
          test_journal_interior_checkpoint_corruption_raises;
        Alcotest.test_case "compact" `Quick test_journal_compact;
        Alcotest.test_case "compact interrupted" `Quick
          test_journal_compact_interrupted;
        QCheck_alcotest.to_alcotest ~long:false qcheck_replay_equivalence;
      ] );
    ( "batch.group_commit",
      [
        Alcotest.test_case "flush and checkpoint" `Quick
          test_group_commit_flush_and_checkpoint;
      ] );
    ( "batch.runner",
      [
        Alcotest.test_case "kill and resume deterministic" `Quick
          test_runner_kill_and_resume_deterministic;
        Alcotest.test_case "quarantine containment" `Quick
          test_runner_quarantines_poisoned_job;
        Alcotest.test_case "retries then succeeds" `Quick
          test_runner_retries_then_succeeds;
        Alcotest.test_case "timeout quarantines" `Quick
          test_runner_timeout_quarantines;
        Alcotest.test_case "shard union = whole" `Quick
          test_runner_shard_union_equals_whole;
        Alcotest.test_case "shard select" `Quick test_runner_shard_select;
        Alcotest.test_case "init refuses overwrite" `Quick
          test_runner_init_refuses_overwrite;
        Alcotest.test_case "grid persists" `Quick
          test_runner_grid_persists_canonically;
        Alcotest.test_case "worker journals merge" `Quick
          test_runner_worker_journals_merge;
        Alcotest.test_case "worker excludes shard" `Quick
          test_runner_worker_excludes_shard;
        Alcotest.test_case "gc keeps live" `Quick
          test_runner_gc_keeps_live_sweeps_orphans;
        Alcotest.test_case "compact then resume" `Quick
          test_runner_compact_then_resume;
        Alcotest.test_case "verify equivalence" `Quick
          test_report_verify_equivalent;
      ] );
  ]
