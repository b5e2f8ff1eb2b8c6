(** Hypothetical relations (paper §2.2): the base relation [R] (a clustered
    B+-tree) plus a combined differential file [AD] — appended and deleted
    tuples distinguished by a [role] attribute, clustered-hashed on the
    relation key.

    The true value of the relation is [(R ∪ A) − D].  Updates follow the
    paper's 3-I/O discipline: read the tuple, read the [AD] page where the
    new entries will lie, write that page back.  In the paper a Bloom
    filter [Seve76] screens the first read away from [AD]; no engine path
    reads [AD] by key, so no filter is kept and that read is charged as one
    synthetic [Base] I/O, the screened read's cost.  Only the middle I/O
    exceeds a conventional update, and it is charged to the [Hr] meter
    category (the paper's [C_AD]); the rest is charged to [Base].

    Each entry carries the screening marker set by the strategy when the
    update arrived, so deferred refresh does not re-screen.  This module is
    the only one that knows how a marker is stored and routed: engines
    record changes with {!apply} (or {!apply_ignorable}), read the marked
    net changes back with {!drain} or {!pending}, and fold what {!drain}
    read with {!reset}. *)

open Vmat_storage

type t

type layout =
  | Combined  (** one [AD] file with a role attribute — the paper's design *)
  | Split
      (** separate [A] and [D] files — the alternative §2.2.2 argues
          against: an update must read and write both files, "at least five
          I/O's ... rather than three" *)

val create :
  disk:Disk.t ->
  tids:Tuple.source ->
  base:Vmat_index.Btree.t ->
  schema:Schema.t ->
  ad_buckets:int ->
  tuples_per_page:int ->
  ?layout:layout ->
  unit ->
  t
(** [base] is the stored copy of [R]; [schema] its schema (the key column of
    the schema clusters [AD]).  [tids] is the owning engine's tuple-id source
    (A/D entries get fresh tids from it).  [ad_buckets] sizes the static hash
    file (the paper's [2u/T] pages). *)

val base : t -> Vmat_index.Btree.t

val apply_insert : t -> Tuple.t -> marked:bool -> unit
(** Record an appended tuple ([marked] = it passed both screening stages). *)

val apply_delete : t -> Tuple.t -> marked:bool -> unit
(** Record the deletion of a tuple currently visible in the relation (the
    tuple keeps the tid it had in [R] or [A]). *)

val apply_update : t -> old_tuple:Tuple.t -> new_tuple:Tuple.t -> marked_old:bool -> marked_new:bool -> unit
(** The common "modify without changing the key" case: one read of the
    current tuple, one read and one write of the [AD] page receiving both
    the [D] and [A] entries. *)

val apply :
  t -> mark:(Tuple.t -> bool) -> before:Tuple.t option -> after:Tuple.t option -> unit
(** Record one change: an insertion ([after] only), a deletion ([before]
    only) or a modification (both, through {!apply_update}).  [mark]
    screens each image, the old one first, and its answer is that image's
    marker. *)

val apply_ignorable : t -> old_tuple:Tuple.t -> new_tuple:Tuple.t -> unit
(** Record a readily-ignorable modification [Bune79] unscreened, at the
    I/O cost of {!apply_update}.  It writes no column the view reads, so
    both images screen alike and, while both entries stand, the pair
    changes nothing in the view.  Both entries carry the pair's id in place
    of a marker.  When one of them cancels against another entry for the
    same tuple in {!net_changes}, the other takes the screening result that
    reaches the pair through that entry (possibly along a chain of such
    pairs), or stays unmarked when none does. *)

val end_transaction : t -> unit
(** Flush and drop the [AD] buffer pool so the next transaction's page
    touches are charged afresh (the paper charges [y(2u, 2u/T, l)] per
    transaction). *)

type net
(** The net changes of one refresh epoch, as {!net_changes} or {!drain} read
    them from [AD].  {!reset} folds exactly these sets into the base, so a
    refresh reads [AD] once. *)

val net_changes : t -> net
(** Read every [AD] page once (charged through the [AD] buffer pool to the
    caller's category) and form A-net and D-net.  An append cancels the
    newest remaining delete of the same tuple instance — the same original
    tid and equal cells — so entries appended-then-deleted in the same epoch
    drop out, and the surviving halves of readily-ignorable pairs carry their
    resolved marker.  Both sets are in original-tid order, ties in scan
    order. *)

val iter_net : net -> delete:(Tuple.t -> unit) -> insert:(Tuple.t -> unit) -> unit
(** Each marked net deletion to [delete], then each marked net append to
    [insert], in the sets' order.  Free of charge. *)

val drain : t -> delete:(Tuple.t -> unit) -> insert:(Tuple.t -> unit) -> net
(** {!net_changes}, then {!iter_net}: the refresh step of every single-view
    deferred engine.  The result is what its {!reset} folds. *)

val pending : t -> delete:(Tuple.t -> unit) -> insert:(Tuple.t -> unit) -> unit
(** {!iter_net} over {!net_changes_unmetered}, free of charge: overlays the
    pending changes on a stored view's contents. *)

val ad_entry_count : t -> int
val ad_page_count : t -> int

val reset : t -> net -> unit
(** Fold the differential file into the base relation
    ([R := (R ∪ A) − D; A := ∅; D := ∅]) from the net changes the refresh
    just read, without reading [AD] again.  The fold-in I/O is charged to
    the [Base] category (see DESIGN.md).
    @raise Invalid_argument if [AD] changed after [net] was read. *)

val contents_unmetered : t -> Tuple.t list
(** Current true contents [(R ∪ A) − D] without charges (tests). *)

val net_changes_unmetered : t -> (Tuple.t * bool) list * (Tuple.t * bool) list
(** [(a_net, d_net)] with markers, as {!net_changes} forms them, but read
    free of charge (tests, equivalence, checkpoint probes). *)
