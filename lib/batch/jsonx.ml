(* Alias kept for perfbench/, which names [Abg_batch.Jsonx]; the rest of
   the tree uses [Abg_util.Json] directly. *)

include Abg_util.Json
