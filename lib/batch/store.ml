(* Content-addressed artifact store with a pack-file group-commit write
   path. See store.mli for the contract.

   Layout:
     DIR/manifest.json          versioned schema marker
     DIR/blobs/<d0d1>/<digest>  loose blobs — the canonical listing
     DIR/tmp/                   in-flight writes (pid-tagged)
     DIR/pack/<pid>.pack        per-process append-only packs

   A pack is a sequence of self-delimiting records:

     {"blob":"<digest>","bytes":N}\n<N content bytes>\n

   Deferred puts stage in memory; [flush_staged] appends the whole
   batch to the pack with one write and one fsync — that fsync is the
   durability point for every blob in the batch. Loose copies are
   materialized (unsynced) at [close], and [open_] re-materializes any
   pack-covered blob that is missing or mis-sized, so the loose tree is
   complete after any crash. A torn pack tail (kill mid-append) simply
   ends the scan: the torn record's blob was never acknowledged. *)

module Json = Abg_util.Json

type pack_record = { offset : int; bytes : int }

type t = {
  root : string;
  deferred : bool;
  mutable counter : int;
  m : Mutex.t;
  (* Deferred-mode state, all under [m]: blobs staged since the last
     flush (insertion order), a digest->content view of them for reads,
     and a digest->pack-extent index of records this process flushed
     but has not yet materialized. *)
  mutable staged : (string * string) list;
  staged_tbl : (string, string) Hashtbl.t;
  packed : (string, pack_record) Hashtbl.t;
  mutable pack_fd : Unix.file_descr option;
  mutable pack_len : int;
}

exception Corrupt of string

let schema = "abagnale-store/2"
let manifest_content = Json.to_string (Json.Obj [ ("schema", Json.Str schema) ]) ^ "\n"

(* Skipped-verification reads and GC sweeps depend on CLI flags and
   crash history, not on workload alone — volatile, like the other
   batch counters. *)
let obs_verify_skipped =
  Abg_obs.Obs.Counter.make ~volatile:true "batch.verify_skipped"

let obs_gc_swept = Abg_obs.Obs.Counter.make ~volatile:true "batch.gc_swept"

let ( / ) = Filename.concat

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Unsynced write — for loose copies whose durable twin is a fsync'd
   pack record. A kill mid-write leaves a short file, which the next
   open's size check catches and rewrites. *)
let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

(* Make a rename durable: fsync the containing directory so the new
   directory entry itself survives a crash. *)
let fsync_dir path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* All bytes down and fsync'd under [tmp] before the rename publishes
   them, then the directory fsync makes the rename itself durable. *)
let write_durable ~tmp path content =
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = String.length content in
      let written = Unix.write_substring fd content 0 n in
      if written <> n then failwith "Store: short write";
      Unix.fsync fd);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

let fsync_path path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> Unix.fsync fd)

let blobs_dir t = t.root / "blobs"
let tmp_dir t = t.root / "tmp"
let pack_dir t = t.root / "pack"
let manifest_path root = root / "manifest.json"
let own_pack_path t = pack_dir t / Printf.sprintf "%d.pack" (Unix.getpid ())

let digest_hex content = Digest.to_hex (Digest.string content)
let blob_path t digest = blobs_dir t / String.sub digest 0 2 / digest

let file_size path =
  match Unix.stat path with
  | exception Unix.Unix_error _ -> None
  | st -> if st.Unix.st_kind = Unix.S_REG then Some st.Unix.st_size else None

(* -- pack scanning --

   Stream a pack file record by record, calling [f digest bytes ic]
   with the channel positioned at the content (f may read it; position
   is restored from the header afterwards). Returns the byte length of
   the valid prefix — anything past it is a torn tail from a kill
   mid-append, whose blob was never acknowledged. *)
let scan_pack path ~f =
  match open_in_bin path with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let total = in_channel_length ic in
          let valid = ref 0 in
          (try
             while pos_in ic < total do
               let header = input_line ic in
               let json = Json.parse header in
               let ctx = "pack" in
               let digest = Json.str ~ctx (Json.member ~ctx "blob" json) in
               let bytes = Json.int ~ctx (Json.member ~ctx "bytes" json) in
               if bytes < 0 || String.length digest <> 32 then raise Exit;
               let content_pos = pos_in ic in
               if content_pos + bytes + 1 > total then raise Exit;
               f digest bytes ic;
               seek_in ic (content_pos + bytes);
               if input_char ic <> '\n' then raise Exit;
               valid := pos_in ic
             done
           with
          | End_of_file | Exit | Json.Malformed _ | Failure _ -> ());
          !valid)

(* -- open-time recovery -- *)

let next_tmp t =
  Mutex.lock t.m;
  t.counter <- t.counter + 1;
  let seq = t.counter in
  Mutex.unlock t.m;
  tmp_dir t / Printf.sprintf "blob.%d.%d" (Unix.getpid ()) seq

(* Loose copy of a pack-covered blob: unsynced write, atomic rename.
   Concurrent materializations of the same digest race benignly — both
   rename identical bytes onto the same path. *)
let materialize t digest content =
  let tmp = next_tmp t in
  write_file tmp content;
  let path = blob_path t digest in
  mkdir_p (Filename.dirname path);
  Sys.rename tmp path

(* Re-materialize every pack-covered blob whose loose copy is missing
   or mis-sized. Packs — including live siblings' in a coordinator run,
   whose in-progress tails just end the scan early — only ever describe
   content also covered by their own fsync, so rewriting is safe. *)
let recover_packs t =
  match Sys.readdir (pack_dir t) with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          if Filename.check_suffix name ".pack" then
            ignore
              (scan_pack (pack_dir t / name) ~f:(fun digest bytes ic ->
                   match file_size (blob_path t digest) with
                   | Some size when size = bytes -> ()
                   | _ -> materialize t digest (really_input_string ic bytes))))
        names

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true

(* tmp files are pid-tagged ("blob.<pid>.<seq>", "manifest.<pid>").
   Coordinator workers share one store, so only leftovers whose writer
   is dead (or is us, re-opening) may be swept — a sibling's in-flight
   tmp file is live state, not garbage. *)
let tmp_owner name =
  match String.split_on_char '.' name with
  | _ :: pid :: _ -> int_of_string_opt pid
  | _ -> None

let sweep_tmp ?(all = false) t =
  let self = Unix.getpid () in
  let swept = ref 0 in
  (match Sys.readdir (tmp_dir t) with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          let dead =
            all
            ||
            match tmp_owner name with
            | Some pid -> pid = self || not (pid_alive pid)
            | None -> true
          in
          if dead then begin
            (try Sys.remove (tmp_dir t / name) with Sys_error _ -> ());
            incr swept
          end)
        names);
  !swept

(* Reopening under a recycled pid must not append after a torn tail —
   truncate the pack to its valid prefix first. *)
let open_own_pack t =
  let path = own_pack_path t in
  let valid = scan_pack path ~f:(fun _ _ _ -> ()) in
  (match file_size path with
  | Some size when size > valid ->
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.ftruncate fd valid;
          Unix.fsync fd)
  | _ -> ());
  t.pack_fd <-
    Some
      (Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644);
  t.pack_len <- valid

let open_ ?(deferred = false) root =
  mkdir_p root;
  let t =
    {
      root;
      deferred;
      counter = 0;
      m = Mutex.create ();
      staged = [];
      staged_tbl = Hashtbl.create 64;
      packed = Hashtbl.create 64;
      pack_fd = None;
      pack_len = 0;
    }
  in
  mkdir_p (blobs_dir t);
  mkdir_p (tmp_dir t);
  mkdir_p (pack_dir t);
  recover_packs t;
  ignore (sweep_tmp t);
  let manifest = manifest_path root in
  if Sys.file_exists manifest then begin
    let found = read_file manifest in
    if found <> manifest_content then
      raise
        (Corrupt
           (Printf.sprintf "store manifest mismatch at %s: %S" manifest
              (String.trim found)))
  end
  else begin
    write_durable
      ~tmp:(tmp_dir t / Printf.sprintf "manifest.%d" (Unix.getpid ()))
      manifest manifest_content
  end;
  if deferred then open_own_pack t;
  t

let dir t = t.root

(* -- writes -- *)

let put_immediate t digest content =
  let path = blob_path t digest in
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    (* Concurrent puts of the same content race benignly: both rename
       identical bytes onto the same path, and rename is atomic. *)
    write_durable ~tmp:(next_tmp t) path content
  end

let put t content =
  let digest = digest_hex content in
  if t.deferred then begin
    Mutex.lock t.m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.m)
      (fun () ->
        if
          (not (Hashtbl.mem t.staged_tbl digest))
          && (not (Hashtbl.mem t.packed digest))
          && not (Sys.file_exists (blob_path t digest))
        then begin
          Hashtbl.add t.staged_tbl digest content;
          t.staged <- (digest, content) :: t.staged
        end)
  end
  else put_immediate t digest content;
  digest

let flush_staged t =
  if not t.deferred then 0
  else begin
    Mutex.lock t.m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.m)
      (fun () ->
        match (t.staged, t.pack_fd) with
        | [], _ | _, None -> 0
        | staged, Some fd ->
            let batch = List.rev staged in
            let buf = Buffer.create 4096 in
            let extents =
              List.map
                (fun (digest, content) ->
                  let header =
                    Json.to_string
                      (Json.Obj
                         [
                           ("blob", Json.Str digest);
                           ("bytes", Json.Num (float_of_int (String.length content)));
                         ])
                    ^ "\n"
                  in
                  let offset =
                    t.pack_len + Buffer.length buf + String.length header
                  in
                  Buffer.add_string buf header;
                  Buffer.add_string buf content;
                  Buffer.add_char buf '\n';
                  (digest, { offset; bytes = String.length content }))
                batch
            in
            let payload = Buffer.contents buf in
            let n = String.length payload in
            let written = Unix.write_substring fd payload 0 n in
            if written <> n then failwith "Store.flush_staged: short write";
            Unix.fsync fd;
            (* Durability point: every blob in the batch is now covered
               by its pack record. Content can leave memory. *)
            t.pack_len <- t.pack_len + n;
            List.iter
              (fun (digest, extent) ->
                Hashtbl.replace t.packed digest extent;
                Hashtbl.remove t.staged_tbl digest)
              extents;
            t.staged <- [];
            List.length batch)
  end

let close t =
  ignore (flush_staged t);
  match t.pack_fd with
  | None -> ()
  | Some fd ->
      Unix.close fd;
      t.pack_fd <- None;
      (* Materialize this run's loose copies from the pack — identical
         to what open-time recovery would do after a crash, just paid
         here instead of by the next reader. *)
      ignore
        (scan_pack (own_pack_path t) ~f:(fun digest bytes ic ->
             match file_size (blob_path t digest) with
             | Some size when size = bytes -> ()
             | _ -> materialize t digest (really_input_string ic bytes)));
      Hashtbl.reset t.packed

(* -- reads -- *)

let read_packed path { offset; bytes } =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      seek_in ic offset;
      really_input_string ic bytes)

(* Deferred blobs not yet loose: staged content lives in memory, flushed
   content in this process's own pack. *)
let read_unmaterialized t digest =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      match Hashtbl.find_opt t.staged_tbl digest with
      | Some content -> Some content
      | None -> (
          match Hashtbl.find_opt t.packed digest with
          | Some extent -> Some (read_packed (own_pack_path t) extent)
          | None -> None))

let get_raw t digest =
  let path = blob_path t digest in
  if Sys.file_exists path then read_file path
  else
    match read_unmaterialized t digest with
    | Some content -> content
    | None -> raise Not_found

let get t digest =
  let content = get_raw t digest in
  let found = digest_hex content in
  if found <> digest then
    raise
      (Corrupt
         (Printf.sprintf "blob %s corrupt: content hashes to %s" digest found));
  content

let get_unverified t digest =
  Abg_obs.Obs.Counter.incr obs_verify_skipped;
  get_raw t digest

let mem t digest =
  Sys.file_exists (blob_path t digest)
  ||
  (t.deferred
  &&
  (Mutex.lock t.m;
   Fun.protect
     ~finally:(fun () -> Mutex.unlock t.m)
     (fun () ->
       Hashtbl.mem t.staged_tbl digest || Hashtbl.mem t.packed digest)))

let list t =
  let subs = try Sys.readdir (blobs_dir t) with Sys_error _ -> [||] in
  Array.to_list subs
  |> List.concat_map (fun sub ->
         match Sys.readdir (blobs_dir t / sub) with
         | exception Sys_error _ -> []
         | names -> Array.to_list names)
  |> List.sort String.compare

(* -- gc -- *)

type gc_stats = {
  kept : int;
  swept : int;
  tmp_swept : int;
  packs_folded : int;
  dirs_pruned : int;
}

(* Fold one pack into the loose tree: hash-verify each covered loose
   blob (a mis-sized or rotted copy is rewritten from the pack — the
   pack fsync made it the authoritative bytes), fsync it, and only then
   is the pack deletable. *)
let fold_pack t path =
  ignore
    (scan_pack path ~f:(fun digest bytes ic ->
         let content = really_input_string ic bytes in
         let loose = blob_path t digest in
         let valid =
           match file_size loose with
           | Some size when size = bytes ->
               digest_hex (read_file loose) = digest
           | _ -> false
         in
         if not valid then materialize t digest content;
         fsync_path loose;
         fsync_dir (Filename.dirname loose)));
  Sys.remove path

let gc t ~live =
  if t.deferred then invalid_arg "Store.gc: offline only (deferred store)";
  let packs_folded = ref 0 in
  (match Sys.readdir (pack_dir t) with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          if Filename.check_suffix name ".pack" then begin
            fold_pack t (pack_dir t / name);
            incr packs_folded
          end)
        names);
  if !packs_folded > 0 then fsync_dir (pack_dir t);
  let kept = ref 0 and swept = ref 0 and dirs_pruned = ref 0 in
  let subs = try Sys.readdir (blobs_dir t) with Sys_error _ -> [||] in
  Array.iter
    (fun sub ->
      let sub_dir = blobs_dir t / sub in
      (match Sys.readdir sub_dir with
      | exception Sys_error _ -> ()
      | names ->
          Array.iter
            (fun digest ->
              if live digest then incr kept
              else begin
                (try Sys.remove (sub_dir / digest) with Sys_error _ -> ());
                incr swept
              end)
            names);
      match Sys.readdir sub_dir with
      | exception Sys_error _ -> ()
      | [||] ->
          (try Sys.rmdir sub_dir with Sys_error _ -> ());
          incr dirs_pruned
      | _ -> ())
    subs;
  if !swept > 0 || !dirs_pruned > 0 then fsync_dir (blobs_dir t);
  (* Offline contract: no concurrent writers, so every tmp leftover is
     garbage regardless of whose pid it carries. *)
  let tmp_swept = sweep_tmp ~all:true t in
  Abg_obs.Obs.Counter.add obs_gc_swept (!swept + tmp_swept);
  {
    kept = !kept;
    swept = !swept;
    tmp_swept;
    packs_folded = !packs_folded;
    dirs_pruned = !dirs_pruned;
  }
