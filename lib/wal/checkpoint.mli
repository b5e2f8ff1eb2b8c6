(** Versioned checkpoint images (DESIGN §9): a consistent snapshot of the
    net base contents, the materialized view (rows + duplicate counts), the
    hypothetical relation's net A/D sets and Bloom filter, and the adaptive
    controller's state.  Layout: magic ["VMATCKP1"] + one CRC32 frame.
    Images are written atomically; a corrupt image is skipped by {!latest}
    and the log tail covers the difference. *)

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
  ck_bloom_bits : string;
  ck_bloom_insertions : int;
  ck_adaptive : (string * string) list;
}

val file_name : int -> string
val file_id : string -> int option
val image_files : Device.t -> (int * string) list

val encode : image -> string
val decode : string -> image
(** @raise Codec.Corrupt *)

val to_bytes : image -> string
val of_bytes : string -> (image, string) result

val write : Device.t -> image -> int
(** Encode, checksum and atomically write the image once; returns the bytes
    written (what the caller charges to the [Wal] category). *)

val read : Device.t -> id:int -> (image * int, string) result
(** The image and the bytes read for it (what recovery charges). *)

val latest : Device.t -> (image * int) option
(** Newest image that validates, as {!read} returns it; corrupt ones are
    skipped. *)
