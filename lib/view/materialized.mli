(** The stored copy of a view: a clustered B+-tree on the view's predicate
    column, with a duplicate count per distinct tuple value (§2.1).  Stored
    tuples are the view's output fields plus a trailing count column;
    queries see (tuple, count) with the count stripped from the tuple. *)

open Vmat_storage
open Vmat_relalg

type t

val create :
  disk:Disk.t ->
  name:string ->
  fanout:int ->
  leaf_capacity:int ->
  cluster_col:int ->
  unit ->
  t
(** [cluster_col] is the output position of the clustering column;
    [leaf_capacity] is the view's blocking factor (tuples per page — with
    Model-1 views twice the base relation's, since view tuples are [S/2]
    bytes). *)

val tree : t -> Vmat_index.Btree.t
val pool : t -> Buffer_pool.t

val distinct_count : t -> int
val total_count : t -> int
(** Sum of duplicate counts. *)

val height : t -> int

type action = Insert | Delete

val apply : t -> action -> Tuple.t -> unit
(** Apply one view-tuple insertion or deletion, maintaining duplicate
    counts: an insert of a present value increments its count, a delete
    decrements and physically removes at zero.  Charges the B+-tree descent
    and the data page read; page writes accumulate in the pool and are
    charged when the caller flushes at the end of its refresh batch.
    @raise Failure on deleting a value that is not present (view
    corruption — the corrected differential algorithm never does this). *)

val flush : t -> unit
(** Flush and drop the pool: end of a refresh or query batch. *)

val range : t -> lo:Value.t -> hi:Value.t -> (Tuple.t -> int -> unit) -> unit
(** Clustered scan of [lo <= cluster <= hi]; the callback receives the view
    tuple (count stripped) and its duplicate count.  Charges one read per
    page and the index descent; per-tuple [C1] is charged by the caller. *)

val answer :
  t -> meter:Cost_meter.t -> lo:Value.t -> hi:Value.t -> (Tuple.t * int) list
(** The answer kernel: every view tuple with [lo <= cluster <= hi] and its
    duplicate count, in key order — the rows, order, tids and counts
    {!range} yields.  Runs in the [Query] category: charges the index
    descent and one read per page, in {!range}'s order, plus one [C1] per
    returned row, then drops the view's pool.  Each row is boxed once
    ({!Tuple_view.counted_row}) and consed once. *)

val rebuild : t -> Bag.t -> unit
(** Replace the contents wholesale (full-recompute strategies).  Charges the
    writes of every page of the new contents. *)

val to_bag_unmetered : t -> Bag.t
(** Current contents as a duplicate-counted bag (tests/equivalence). *)
