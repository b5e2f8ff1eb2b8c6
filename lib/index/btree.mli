(** Clustered B+-tree: leaves are the data pages (up to [leaf_capacity]
    tuples, the paper's [T = B/S]); internal nodes hold up to [fanout]
    separators (the paper's [B/n]).  Entries are ordered by (key, tid), so
    duplicate keys are supported and every entry is addressable.  Page I/O is
    charged through a per-tree buffer pool; deletion is lazy (no merging),
    matching the paper's neglect of structural maintenance.

    Leaf rows live in flat page buffers ({!Vmat_storage.Flat}); the key is a
    column offset, so ordering and range bounds are evaluated straight off
    page cells without boxing.  The [_views] entry points hand out a reused
    {!Vmat_storage.Tuple_view.t} cursor instead of materializing. *)

open Vmat_storage

type t

val create :
  disk:Disk.t ->
  ?pool_capacity:int ->
  name:string ->
  fanout:int ->
  leaf_capacity:int ->
  key_col:int ->
  unit ->
  t
(** @raise Invalid_argument if [fanout < 2], [leaf_capacity < 1] or
    [key_col < 0]. *)

val key_col : t -> int
val key_of : t -> Tuple.t -> Value.t
val pool : t -> Buffer_pool.t
val tuple_count : t -> int
val leaf_pages : t -> int
val index_pages : t -> int

val height : t -> int
(** Number of internal (index) levels above the data pages: 0 while the tree
    is a single leaf.  Comparable to the paper's [H_vi]. *)

val insert : t -> Tuple.t -> unit
(** Insert (duplicates by value are allowed; (key, tid) pairs must be
    unique).  Charges the descent reads and leaf/internal writes, including
    splits. *)

val remove : t -> key:Value.t -> tid:int -> bool
(** Remove the entry with exactly this key and tid; [false] if absent. *)

val remove_tuple : t -> Tuple.t -> bool
(** {!remove} at the tuple's own key and tid. *)

val update_in_place : t -> key:Value.t -> tid:int -> (Tuple.t -> Tuple.t) -> bool
(** Rewrite the entry's tuple without moving it.  The replacement must
    preserve the key and the tid.
    @raise Invalid_argument if the replacement changes either. *)

val find : t -> Value.t -> Tuple.t list
(** All tuples with the given key, in tid order.  Charges descent and data
    page reads. *)

val find_views : t -> Value.t -> (Tuple_view.t -> unit) -> unit
(** {!find} without boxing: the callback receives a reused cursor aimed at
    each matching row in (key, tid) order, valid only during the callback.
    Identical descent and page-read charges to {!find}. *)

val range : t -> lo:Value.t -> hi:Value.t -> (Tuple.t -> unit) -> unit
(** Iterate tuples with [lo <= key <= hi] in key order, charging the descent
    and one read per data page touched. *)

val range_views : t -> lo:Value.t -> hi:Value.t -> (Tuple_view.t -> unit) -> unit
(** {!range} without boxing (reused cursor, same charges and order). *)

val range_rows : t -> lo:Value.t -> hi:Value.t -> (Tuple_view.t -> 'a) -> 'a list
(** [f]'s result for every row with [lo <= key <= hi], in key order, each
    consed once (no reversal).  Same walk and page-read charges as
    {!range_views}, but every leaf is read before [f] runs, and [f] is
    applied back to front (last row first) on a cursor valid only during the
    call: its result must not be, or capture, the cursor. *)

val iter_unmetered : t -> (Tuple.t -> unit) -> unit
(** In-order iteration without any charge (tests and verification). *)

val iter_views_unmetered : t -> (Tuple_view.t -> unit) -> unit

val check_invariants : t -> unit
(** Assert ordering, separator and capacity invariants (tests).
    @raise Failure on violation. *)

val bulk_load : t -> Tuple.t list -> unit
(** Replace an empty tree's contents with the given tuples, packing every
    data page to [leaf_capacity] and every index node to [fanout] (the
    paper's "all pages are packed full" assumption).  Charges one write per
    page built.
    @raise Invalid_argument if the tree is not empty. *)

val min_key_unmetered : t -> Value.t option
val max_key_unmetered : t -> Value.t option
(** Smallest / largest key currently stored, uncharged (catalog
    statistics). *)
