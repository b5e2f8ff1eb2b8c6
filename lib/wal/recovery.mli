(** ARIES-lite crash recovery (DESIGN §9): resolve the newest valid
    checkpoint chain plus the committed log prefix, truncate any torn
    tail, and rebuild the strategy by replaying the committed post-image
    transactions through the ordinary differential update machinery.
    Redo-only — uncommitted work is discarded, and the workload driver
    re-issues everything past {!field:scan.sc_resume}. *)

open Vmat_storage
module Strategy = Vmat_view.Strategy

type txn = {
  rx_id : int;
  rx_op_index : int;
  rx_changes : Strategy.change list;
}

type scan = {
  sc_image : Checkpoint.chain option;
      (** the resolved chain: a full image with its deltas folded on *)
  sc_txns : txn list;  (** committed, post-image, in log order *)
  sc_resume : int;  (** 1-based op index recovery restores through *)
  sc_next_txn_id : int;
  sc_tail : Record.tail;
  sc_invalid : (string * int) option;
      (** segment holding the first invalid frame, and its valid-prefix
          size — what {!repair} truncates *)
  sc_records : int;  (** valid log records scanned *)
  sc_log_bytes : int;  (** valid log bytes scanned *)
}

val scan : ?ctx:Ctx.t -> Device.t -> scan
(** Phase 1.  When [ctx] is supplied the image/log reads are charged to
    the [Wal] meter category; tests scan uncharged. *)

val repair : Device.t -> scan -> unit
(** Phase 2: truncate the invalid tail and drop any later segments. *)

type build = image:Checkpoint.chain option -> Tuple.t list -> Strategy.t * Durable.probe
(** How to rebuild the inner strategy from a base relation.  [image] is
    the resolved chain; its adaptive pairs carry the kind the adaptive
    wrapper resumes in. *)

val replay :
  scan -> initial:Tuple.t list -> build:build -> Strategy.t * Durable.probe * Tuple.t list
(** Phase 3: rebuild from the chain's folded base (or [initial] when no
    image) and push every committed post-image transaction through the
    strategy.  Returns the strategy, its probe, and the post-replay net
    base contents (ascending tid) for the continuing engine's catalog. *)

val recover :
  ?config:Wal.config ->
  ctx:Ctx.t ->
  dev:Device.t ->
  initial:Tuple.t list ->
  build:build ->
  unit ->
  Durable.t * scan
(** All three phases, then re-wrap the rebuilt strategy in a fresh
    {!Durable.t} resuming op/txn numbering where the pre-crash engine
    left off. *)
