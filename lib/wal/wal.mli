(** Append-only segmented log writer with group commit (DESIGN §9).

    Appends buffer in memory (the simulated volatile state); {!force} makes
    the buffer durable in one device append, charging page writes to the
    [Wal] meter category and mirroring [vmat_wal_*] metrics through the
    context's recorder.  {!commit} forces once [group_commit] committed
    transactions are pending.  Crash points: [wal.append],
    [wal.force.torn] (half the bytes hit the device), [wal.force.done]. *)

open Vmat_storage

type config = {
  group_commit : int;
  segment_bytes : int;
  checkpoint_every : int;  (** used by {!Durable}, carried here so one
                               value configures the whole subsystem *)
}

val default_config : config
(** [group_commit = 1] (force per transaction), 64 KiB segments,
    checkpoint every 64 transactions. *)

val config :
  ?group_commit:int -> ?segment_bytes:int -> ?checkpoint_every:int -> unit -> config
(** Validated constructor. @raise Invalid_argument on non-positive knobs. *)

type t

val create : ?config:config -> ?next_txn_id:int -> ctx:Ctx.t -> Device.t -> t
(** A writer over [dev], starting a fresh segment after any existing ones
    (old bytes stay immutable — recovery may have truncated a torn tail). *)

val device : t -> Device.t
val configuration : t -> config

val begin_txn : t -> int
(** Allocate the next transaction id. *)

val next_txn_id : t -> int

val append : t -> Record.t -> unit
(** Buffer one framed record (volatile until the next {!force}). *)

val commit : t -> unit
(** Count one committed transaction; forces when [group_commit] are
    pending. *)

val force : t -> unit
(** Make everything buffered durable now. *)

val pages : t -> int -> int
(** [ceil (bytes / page_bytes)], at least 1: the page count {!charge_pages}
    charges, without charging it. *)

val charge_pages : t -> int -> int
(** Charge [ceil (bytes / page_bytes)] (at least 1) page writes to the
    [Wal] meter category and return the page count — shared by log forces
    and checkpoint-image writes so all durability I/O lands in one cost
    column. *)

val segment_name : int -> string
val segment_index : string -> int option
val segment_files : Device.t -> (int * string) list

(** {1 Statistics} *)

val forces : t -> int
val appended_records : t -> int
val forced_bytes : t -> int
val pending_bytes : t -> int
