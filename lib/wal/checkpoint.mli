(** Versioned checkpoint images (DESIGN §9.3).  Two kinds share the
    [ckpt-%06d.img] names and one id sequence:

    - a {b full} image (magic ["VMATCKP2"]) snapshots the net base
      contents, the materialized view (rows + duplicate counts), the
      hypothetical relation's net A/D sets, and the adaptive controller's
      state;
    - a {b delta} image (magic ["VMATCKD1"]) holds only the base tids
      removed and the base tuples added since its parent image, plus the
      fields recovery reads.

    Each image is one CRC32 frame after its magic, written atomically.  A
    {!chain} is a full image and the deltas that descend from it; {!latest}
    resolves the newest chain whose every link validates, and the log tail
    covers the difference. *)

open Vmat_storage

type image = {
  ck_id : int;
  ck_op_index : int;
  ck_next_txn_id : int;
  ck_strategy : string;
  ck_base : Tuple.t list;
  ck_view : (Tuple.t * int) list;
  ck_a_net : (Tuple.t * bool) list;
  ck_d_net : (Tuple.t * bool) list;
  ck_adaptive : (string * string) list;
}
(** A full image. *)

type delta = {
  cd_id : int;
  cd_parent : int;  (** id of the image this one extends; less than [cd_id] *)
  cd_op_index : int;
  cd_next_txn_id : int;
  cd_strategy : string;
  cd_adaptive : (string * string) list;
  cd_removed : int list;
      (** tids to drop from the parent's base, ascending; a tid the parent
          lacks (added and dropped since) is a no-op *)
  cd_added : Tuple.t list;
      (** base tuples added or replaced since the parent, ascending tid;
          no tid is both removed and added *)
}
(** A delta image: the parent's base minus every tid in [cd_removed] or
    [cd_added], plus [cd_added]. *)

type file = Full of image | Delta of delta

type patch = (int * Tuple.t option) list
(** Net base changes keyed by tid, ascending: [Some t] adds or replaces the
    row with tid [tid t], [None] removes the tid (a no-op when absent). *)

val apply : Tuple.t list -> patch -> Tuple.t list
(** One linear merge of a tid-ascending base with a patch. *)

val delta_of_patch :
  id:int ->
  parent:int ->
  op_index:int ->
  next_txn_id:int ->
  strategy:string ->
  adaptive:(string * string) list ->
  patch ->
  delta

type chain = {
  ch_full_id : int;  (** the full image the chain starts at *)
  ch_delta_ids : int list;  (** deltas folded onto it, oldest first *)
  ch_op_index : int;  (** of the newest image in the chain *)
  ch_next_txn_id : int;
  ch_strategy : string;
  ch_adaptive : (string * string) list;
  ch_base : Tuple.t list;
      (** the full image's base with every delta folded on, ascending tid *)
  ch_image_bytes : int list;  (** bytes read per image, full image first *)
}
(** A resolved chain: the state recovery resumes from. *)

val file_name : int -> string
val file_id : string -> int option
val image_files : Device.t -> (int * string) list

val encode : image -> string
val decode : string -> image
(** @raise Codec.Corrupt *)

val encode_delta : delta -> string
val to_bytes : image -> string
val delta_to_bytes : delta -> string

val of_bytes : string -> (file, string) result
(** Either kind, told apart by its magic.  A delta whose tid lists are
    unordered or overlap, or whose parent id is not below its own, is an
    [Error]. *)

val write : Device.t -> id:int -> string -> int
(** Atomically write the bytes of image [id] (from {!to_bytes} or
    {!delta_to_bytes}); returns the bytes written (what the caller charges
    to the [Wal] category). *)

val read : Device.t -> id:int -> (file * int, string) result
(** The image and the bytes read for it. *)

val latest : Device.t -> chain option
(** The newest image whose chain down to a full image validates, folded.
    An image whose own bytes or any ancestor's fail to validate is
    skipped. *)
