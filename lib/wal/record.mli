(** WAL record vocabulary and framing (DESIGN §9).

    Each record is a tagged binary payload wrapped in a CRC32 frame
    ([Codec.frame]).  A transaction is [Txn_begin], one [Change] per tuple
    modification, then [Commit]; [Commit] carries the 1-based index of the
    operation in the workload stream (the resume point recovery reports).
    [Checkpoint_note] marks a durably-written image covering everything up
    to its [op_index]; it is an audit marker that recovery does not read. *)

open Vmat_storage

type t =
  | Txn_begin of { txn_id : int }
  | Change of { txn_id : int; before : Tuple.t option; after : Tuple.t option }
  | Commit of { txn_id : int; op_index : int }
  | Checkpoint_note of { ckpt_id : int; op_index : int }

val describe : t -> string

val encode : t -> string
val decode : string -> t
(** @raise Codec.Corrupt on a malformed payload. *)

val to_frame : t -> string
(** [Codec.frame (encode r)]. *)

val change_of : Vmat_view.Strategy.change -> txn_id:int -> t
val to_change : t -> Vmat_view.Strategy.change option

type tail =
  | Clean
  | Torn  (** truncated mid-frame: the crash hit a force in flight *)
  | Bad_crc  (** checksum failure: bit rot or a torn overwrite *)

val tail_name : tail -> string

type scan = {
  records : t list;  (** the valid prefix, in log order *)
  valid_bytes : int;
  tail : tail;
}

val scan_bytes : string -> scan
(** Parse bytes into records, stopping at the first invalid frame — torn
    and corrupt tails are detected here and never reach replay. *)
