(** Binary codec shared by WAL records and checkpoint images (DESIGN §9).

    Little-endian, length-prefixed, one tag byte per variant; CRC32-framed at
    the record layer.  The encoding is stable: recovery reads images written
    by earlier runs of the engine. *)

exception Corrupt of string
(** Raised by every decoder on malformed input (bad tag, truncation,
    implausible length, failed schema validation). *)

val crc32 : string -> int
(** IEEE 802.3 reflected CRC32 (init/xorout [0xFFFFFFFF]), computed
    slice-by-8 over a read-only table built at module init. *)

(** {1 Writer} *)

type writer = Buffer.t
(** A plain buffer, so a caller can frame records straight into a buffer it
    already owns (the log writer's pending bytes). *)

val writer : unit -> writer
val contents : writer -> string
val u8 : writer -> int -> unit
val u32 : writer -> int -> unit
val i64 : writer -> int -> unit
val i64_bits : writer -> int64 -> unit
val f64 : writer -> float -> unit
val str : writer -> string -> unit
val bool : writer -> bool -> unit
val option : writer -> (writer -> 'a -> unit) -> 'a option -> unit
val list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val array : writer -> (writer -> 'a -> unit) -> 'a array -> unit

(** {1 Reader} *)

type reader = { data : string; mutable pos : int }

val reader : string -> reader
val remaining : reader -> int
val at_end : reader -> bool
val r_u8 : reader -> int
val r_u32 : reader -> int
val r_i64 : reader -> int
val r_i64_bits : reader -> int64
val r_f64 : reader -> float
val r_str : reader -> string
val r_bool : reader -> bool
val r_option : reader -> (reader -> 'a) -> 'a option
val r_list : reader -> (reader -> 'a) -> 'a list
val r_array : reader -> (reader -> 'a) -> 'a array

(** {1 Engine types} *)

val value : writer -> Value.t -> unit
val r_value : reader -> Value.t
val tuple : writer -> Tuple.t -> unit
val r_tuple : reader -> Tuple.t
val column_type : writer -> Schema.column_type -> unit
val r_column_type : reader -> Schema.column_type
val schema : writer -> Schema.t -> unit
val r_schema : reader -> Schema.t

(** {1 Framing}

    A frame is [[u32 payload_len][u32 crc32(payload)][payload]]. *)

type frame_error =
  | Torn  (** remaining bytes cannot hold a whole frame (clean truncation) *)
  | Bad_crc  (** complete frame whose checksum fails (bit rot / torn write) *)

val frame : string -> string

val add_frame : writer -> string -> unit
(** Append [frame payload] to the writer without building it separately. *)

val read_frame : reader -> (string, frame_error) result
(** On success advances past the frame; on error leaves [pos] unchanged so
    the caller can record where the valid prefix ends. *)
