(* Append-only fsync'd completion journal with checkpoints. See
   journal.mli. *)

module Json = Abg_util.Json

type status = Ok | Quarantined

type entry = {
  job : string;
  status : status;
  attempts : int;
  result : string option;
  error : string option;
}

let status_name = function Ok -> "ok" | Quarantined -> "quarantined"

let entry_to_line entry =
  let opt = function None -> Json.Null | Some s -> Json.Str s in
  Json.to_string
    (Json.Obj
       [
         ("job", Json.Str entry.job);
         ("status", Json.Str (status_name entry.status));
         ("attempts", Json.Num (float_of_int entry.attempts));
         ("result", opt entry.result);
         ("error", opt entry.error);
       ])

let entry_of_line line =
  let json = Json.parse line in
  let ctx = "journal" in
  let opt key =
    match Json.member ~ctx key json with
    | Json.Null -> None
    | j -> Some (Json.str ~ctx:("journal." ^ key) j)
  in
  {
    job = Json.str ~ctx (Json.member ~ctx "job" json);
    status =
      (match Json.str ~ctx (Json.member ~ctx "status" json) with
      | "ok" -> Ok
      | "quarantined" -> Quarantined
      | other -> raise (Json.Malformed ("journal: unknown status " ^ other)));
    attempts = Json.int ~ctx (Json.member ~ctx "attempts" json);
    result = opt "result";
    error = opt "error";
  }

(* -- checkpoint records --

   One line snapshotting the whole settled set: digest-sorted entries in
   a fixed-width packed string (job 32 | status 1 | attempts 4 hex |
   result 32, with 32 dashes for a missing result), quarantine errors in
   a side list, and an MD5 over both so a torn or rotted record is
   detected and the reader falls back. Fixed width is what makes
   decoding a 100k-entry snapshot a String.sub loop instead of 100k
   JSON parses. *)

let checkpoint_schema = "abagnale-checkpoint/1"
let checkpoint_prefix = "{\"checkpoint\":"
let record_width = 69
let no_result = String.make 32 '-'

let is_checkpoint_line line =
  String.length line >= String.length checkpoint_prefix
  && String.sub line 0 (String.length checkpoint_prefix) = checkpoint_prefix

let pack_entry buf e =
  if String.length e.job <> 32 then
    invalid_arg "Journal.checkpoint: job digest must be 32 chars";
  if e.attempts < 0 || e.attempts > 0xffff then
    invalid_arg "Journal.checkpoint: attempts out of range";
  Buffer.add_string buf e.job;
  Buffer.add_char buf (match e.status with Ok -> 'o' | Quarantined -> 'q');
  Buffer.add_string buf (Printf.sprintf "%04x" e.attempts);
  match e.result with
  | None -> Buffer.add_string buf no_result
  | Some r ->
      if String.length r <> 32 then
        invalid_arg "Journal.checkpoint: result digest must be 32 chars";
      Buffer.add_string buf r

let checkpoint_line entries =
  let sorted = List.sort (fun a b -> String.compare a.job b.job) entries in
  let buf = Buffer.create (record_width * List.length sorted) in
  List.iter (pack_entry buf) sorted;
  let packed = Buffer.contents buf in
  let errors =
    Json.List
      (List.filter_map
         (fun e ->
           match e.error with
           | None -> None
           | Some err -> Some (Json.List [ Json.Str e.job; Json.Str err ]))
         sorted)
  in
  let hash = Digest.to_hex (Digest.string (packed ^ Json.to_string errors)) in
  Json.to_string
    (Json.Obj
       [
         ( "checkpoint",
           Json.Obj
             [
               ("schema", Json.Str checkpoint_schema);
               ("covers", Json.Num (float_of_int (List.length sorted)));
               ("packed", Json.Str packed);
               ("errors", errors);
               ("hash", Json.Str hash);
             ] );
       ])

(* Decode a checkpoint line; [None] on anything invalid — bad JSON,
   wrong schema, length/hash mismatch — so the reader can fall back. *)
let parse_checkpoint line =
  match
    (fun () ->
      let ctx = "checkpoint" in
      let doc = Json.parse line in
      let cp = Json.member ~ctx "checkpoint" doc in
      let schema = Json.str ~ctx (Json.member ~ctx "schema" cp) in
      if schema <> checkpoint_schema then failwith "schema mismatch";
      let covers = Json.int ~ctx (Json.member ~ctx "covers" cp) in
      let packed = Json.str ~ctx (Json.member ~ctx "packed" cp) in
      let errors_json = Json.member ~ctx "errors" cp in
      let hash = Json.str ~ctx (Json.member ~ctx "hash" cp) in
      if
        Digest.to_hex (Digest.string (packed ^ Json.to_string errors_json))
        <> hash
      then failwith "hash mismatch";
      if String.length packed <> covers * record_width then
        failwith "length mismatch";
      let errors =
        Json.list ~ctx errors_json
        |> List.map (fun pair ->
               match Json.list ~ctx pair with
               | [ job; err ] -> (Json.str ~ctx job, Json.str ~ctx err)
               | _ -> failwith "bad error pair")
      in
      List.init covers (fun i ->
          let at = i * record_width in
          let job = String.sub packed at 32 in
          let status =
            match packed.[at + 32] with
            | 'o' -> Ok
            | 'q' -> Quarantined
            | _ -> failwith "bad status"
          in
          let attempts =
            int_of_string ("0x" ^ String.sub packed (at + 33) 4)
          in
          let result =
            let r = String.sub packed (at + 37) 32 in
            if r = no_result then None else Some r
          in
          { job; status; attempts; result; error = List.assoc_opt job errors }))
      ()
  with
  | entries -> Some entries
  | exception _ -> None

type t = { fd : Unix.file_descr; m : Mutex.t }

(* A kill mid-append can leave a torn final line with no newline. It was
   never acknowledged, so it must be truncated away before appending —
   otherwise O_APPEND would glue the next entry onto the fragment,
   turning a harmless crash artifact into interior corruption. *)
let truncate_torn_tail path =
  match Store.read_file path with
  | exception Sys_error _ -> ()
  | content ->
      let len = String.length content in
      if len > 0 && content.[len - 1] <> '\n' then begin
        let keep =
          match String.rindex_opt content '\n' with
          | Some i -> i + 1
          | None -> 0
        in
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.ftruncate fd keep;
            Unix.fsync fd)
      end

let open_ path =
  truncate_torn_tail path;
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  { fd; m = Mutex.create () }

(* One write syscall for the whole payload (O_APPEND keeps concurrent
   appends from interleaving), then one fsync: once this returns, every
   line in the batch survives a kill. *)
let append_lines t lines =
  if lines <> [] then begin
    let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
    Mutex.lock t.m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.m)
      (fun () ->
        let n = String.length payload in
        let written = Unix.write_substring t.fd payload 0 n in
        if written <> n then failwith "Journal.append: short write";
        Unix.fsync t.fd)
  end

let append_batch t entries = append_lines t (List.map entry_to_line entries)
let append t entry = append_batch t [ entry ]
let append_checkpoint t entries = append_lines t [ checkpoint_line entries ]
let close t = Unix.close t.fd

(* Only newline-terminated lines are acknowledged; a trailing fragment
   is a torn append from a crash — dropped, so the job it described
   re-runs on resume. *)
let terminated_lines content =
  let rec terminated acc = function
    | [] | [ _ ] -> List.rev acc (* last chunk: "" if terminated, torn if not *)
    | line :: rest -> terminated (line :: acc) rest
  in
  String.split_on_char '\n' content
  |> terminated []
  |> List.filter (fun l -> String.trim l <> "")

(* First occurrence per job digest wins: a checkpoint only repeats
   outcomes already present as lines (or, post-compaction, is the only
   copy), so dedup keeps replay's result a set keyed by job. *)
let dedup entries =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun e ->
      if Hashtbl.mem seen e.job then false
      else begin
        Hashtbl.add seen e.job ();
        true
      end)
    entries

let replay path =
  if not (Sys.file_exists path) then []
  else begin
    let lines = Array.of_list (terminated_lines (Store.read_file path)) in
    let n = Array.length lines in
    let entries = ref [] in
    Array.iteri
      (fun i line ->
        if is_checkpoint_line line then begin
          match parse_checkpoint line with
          | Some es -> entries := List.rev_append es !entries
          | None ->
              (* A final-position invalid checkpoint is a crash artifact
                 (its outcomes are covered by the preceding lines); an
                 interior one is corruption. *)
              if i < n - 1 then
                raise (Json.Malformed "journal: invalid interior checkpoint")
        end
        else entries := entry_of_line line :: !entries)
      lines;
    dedup (List.rev !entries)
  end

let replay_checkpointed path =
  if not (Sys.file_exists path) then []
  else begin
    let lines = Array.of_list (terminated_lines (Store.read_file path)) in
    let n = Array.length lines in
    (* Last valid checkpoint, scanning backwards; an invalid one falls
       back to its predecessor. Only the prefix test touches the lines
       we skip — no JSON parsing of settled history. *)
    let rec find i =
      if i < 0 then None
      else if is_checkpoint_line lines.(i) then
        match parse_checkpoint lines.(i) with
        | Some es -> Some (i, es)
        | None -> find (i - 1)
      else find (i - 1)
    in
    let base_idx, base =
      match find (n - 1) with None -> (-1, []) | Some (i, es) -> (i, es)
    in
    let tail = ref [] in
    for i = base_idx + 1 to n - 1 do
      let line = lines.(i) in
      if not (is_checkpoint_line line) then
        tail := entry_of_line line :: !tail
    done;
    dedup (base @ List.rev !tail)
  end

let compact path =
  if Sys.file_exists path then
    Store.write_durable ~tmp:(path ^ ".compact") path
      (checkpoint_line (replay_checkpointed path) ^ "\n")
