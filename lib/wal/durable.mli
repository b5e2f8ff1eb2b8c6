(** The durability wrapper (DESIGN §9): an ordinary
    {!Vmat_view.Strategy.t} that write-ahead-logs every transaction and
    periodically checkpoints, without changing the inner strategy's
    answers.  A `--durability wal` run differs from `--durability none`
    only by [Wal]-category charges. *)

open Vmat_storage

type probe = {
  p_ad : unit -> (Tuple.t * bool) list * (Tuple.t * bool) list;
      (** net A/D sets of the inner strategy's hypothetical relation *)
  p_adaptive : unit -> (string * string) list;  (** controller state *)
}
(** What a checkpoint image captures of the inner strategy's private state
    beyond the catalog the wrapper keeps itself. *)

val null_probe : probe

val hr_probe : Vmat_hypo.Hr.t -> probe
(** Probe over a deferred strategy's hypothetical relation (from
    {!Vmat_view.Strategy_sp.deferred_introspect}). *)

type t

val wrap :
  ?config:Wal.config ->
  ?probe:probe ->
  ?op_index:int ->
  ?next_txn_id:int ->
  ctx:Ctx.t ->
  dev:Device.t ->
  initial:Tuple.t list ->
  Vmat_view.Strategy.t ->
  t
(** Wrap [inner] with WAL durability on [dev].  [initial] seeds the
    uncharged base catalog; [op_index]/[next_txn_id] let recovery resume
    numbering where the pre-crash engine left off. *)

val strategy : t -> Vmat_view.Strategy.t
(** The pluggable durable strategy (same [name] as the inner one —
    durability is an engine property, not a strategy). *)

val wal : t -> Wal.t
val inner : t -> Vmat_view.Strategy.t

val op_index : t -> int
(** 1-based count of operations (transactions and queries) handled. *)

val checkpoints_taken : t -> int

val base_contents : t -> Tuple.t list
(** Net base contents from the catalog, ascending tid. *)

val replay_base : Tuple.t list -> Vmat_view.Strategy.change list list -> Tuple.t list
(** [replay_base initial txns]: the catalog the wrapper would hold after
    seeding it with [initial] and handling [txns] in order, ascending tid —
    what recovery hands the continuing engine. *)

val view_rows : Vmat_view.Strategy.t -> (Tuple.t * int) list
(** Canonical (value-key-ordered) rows + duplicate counts of a strategy's
    logical view contents. *)

val flush : t -> unit
(** Force any buffered log records (end of run). *)

val checkpoint_now : t -> unit
(** Take a checkpoint immediately (operator command / tests). *)
