(** Content-addressed, crash-safe artifact store with a group-commit
    write path.

    Blobs — serialized traces, feature vectors, per-job result JSON —
    are keyed by the MD5 hex digest of their content and live under
    [DIR/blobs/<d0d1>/<digest>] ("loose" blobs). Two write paths:

    {b Immediate} (the default): content goes to a unique file under
    [DIR/tmp/], is fsync'd, then renamed into place — a crash at any
    instant leaves either no blob or a complete one, never a torn one.
    One blob, two fsyncs.

    {b Deferred} ([open_ ~deferred:true]): {!put} only buffers the
    content and {!flush_staged} appends every buffered blob to this
    process's {e pack file} ([DIR/pack/<pid>.pack]) with a single write
    and a single fsync — the whole batch becomes durable at the
    amortized cost of one fsync. Loose copies are materialized (without
    fsync) by {!close}, and {!open_} re-materializes any loose blob a
    pack covers that is missing or the wrong size, so a run killed at
    any instant still presents the complete blob set after reopen. The
    pack is the durable copy until {!gc} verifies and fsyncs the loose
    blobs and folds the packs away; until then a store directory may
    hold both, at the cost of disk, never of correctness.

    Re-putting existing content is a no-op in both modes (same digest,
    same bytes), which is what makes a resumed run's store
    byte-identical to an uninterrupted one. A versioned manifest
    ([DIR/manifest.json]) is written on first open and checked
    afterwards; {!get} re-hashes content and raises {!Corrupt} on
    mismatch, so disk rot is detected at read time. *)

(** {1 Durable files}

    The file primitives the whole batch layer (and the CLI's fuzz run
    directories) share. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents; tolerates a concurrent
    creator. *)

val read_file : string -> string
(** A whole file's bytes. Raises [Sys_error] if it cannot be opened. *)

val write_durable : tmp:string -> string -> string -> unit
(** [write_durable ~tmp path content] replaces [path] atomically and
    durably: [content] goes to [tmp] (same filesystem), which is
    fsync'd, renamed over [path], and the directory holding [path] is
    fsync'd so the new entry survives a crash. A failed directory fsync
    is ignored. *)

(** {1 The store} *)

type t

exception Corrupt of string
(** Manifest mismatch on open, or content whose hash does not match its
    digest key on read. *)

val open_ : ?deferred:bool -> string -> t
(** Create (or re-open) a store rooted at the given directory.
    Recovers loose blobs from any pack files left by crashed or
    unfinished runs, and sweeps [tmp/] leftovers whose writing process
    is dead; raises {!Corrupt} if an existing manifest carries a
    different schema. [~deferred:true] selects the group-commit write
    path described above. *)

val dir : t -> string

val digest_hex : string -> string
(** The content digest {!put} would assign (MD5 hex). *)

val put : t -> string -> string
(** [put t content] stores a blob, returning its digest. Atomic and
    durable in immediate mode; in deferred mode the blob is only
    buffered until the next {!flush_staged} covers it. Idempotent for
    existing content. Safe from concurrent domains. *)

val flush_staged : t -> int
(** Make every blob buffered since the last flush durable: one pack
    append, one fsync. Returns the number of blobs flushed (0 in
    immediate mode or when nothing is staged). Safe from concurrent
    domains; concurrent {!put}s simply land in the next flush. *)

val close : t -> unit
(** Flush anything staged, then materialize loose copies of every blob
    this process's pack covers. Idempotent; a no-op for immediate-mode
    stores. The pack file is kept — it is the fsync'd copy until {!gc}
    folds it. *)

val get : t -> string -> string
(** [get t digest] reads a blob back, verifying its content hash.
    Raises [Not_found] if absent, {!Corrupt} on a hash mismatch. *)

val get_unverified : t -> string -> string
(** {!get} without the re-hash — for bulk readers (report rendering)
    where per-blob verification is opt-in. Each call counts into the
    [batch.verify_skipped] counter so skipped verification is visible
    in telemetry. *)

val mem : t -> string -> bool

val list : t -> string list
(** All loose blob digests, sorted — the store's canonical content
    listing (what the kill-and-resume CI job compares across runs). *)

type gc_stats = {
  kept : int;  (** live loose blobs retained *)
  swept : int;  (** dead loose blobs deleted *)
  tmp_swept : int;  (** [tmp/] leftovers deleted *)
  packs_folded : int;  (** pack files verified into loose blobs and deleted *)
  dirs_pruned : int;  (** emptied [blobs/<d0d1>/] fan-out dirs removed *)
}

val gc : t -> live:(string -> bool) -> gc_stats
(** Mark-and-sweep maintenance, offline only (no concurrent writers):
    verify every pack-covered loose blob against its content hash
    (rewriting it from the pack on mismatch), fsync it, delete the
    packs; then delete every loose blob for which [live] is false,
    sweep [tmp/], and prune empty fan-out directories so {!list} and
    the CI store diff stay canonical. Sweep counts land in the
    [batch.gc_swept] counter. *)
