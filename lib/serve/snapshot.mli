(** Immutable point-in-time view images served to reader domains
    (DESIGN §10).

    A snapshot is the full logical contents of the materialized view at one
    commit epoch, canonicalized into an array sorted by (clustering value,
    value key) with duplicate counts merged per distinct value key.  It is
    built from a strategy's answer rows at publish time, never from a
    checkpoint image.  Snapshots are deeply immutable, so any number of
    domains may {!query} one concurrently without synchronization. *)

open Vmat_storage

type t

val of_rows : cluster_col:int -> epoch:int -> txns:int -> (Tuple.t * int) list -> t
(** Canonicalize a strategy answer (rows + duplicate counts, any order)
    into a snapshot.  [cluster_col] is the output position of the view's
    clustering column ({!Vmat_view.View_def.sp}[.sp_cluster_out]); [txns]
    is the number of committed transactions the image covers. *)

val epoch : t -> int
val txns : t -> int
val cluster_col : t -> int
val size : t -> int
(** Distinct value keys in the image. *)

val rows : t -> (Tuple.t * int) list
(** Canonical order: ascending (clustering value, value key). *)

val query : t -> lo:Value.t -> hi:Value.t -> (Tuple.t * int) list
(** All rows whose clustering value lies in [[lo, hi]] (inclusive), in
    canonical order, by binary search — the reader-side equivalent of a
    clustered range scan, costing no modeled I/O because it never touches a
    simulated disk. *)

val digest_rows : (Tuple.t * int) list -> string
(** Order-sensitive digest of rows as (value key, count) pairs.  Tuple ids
    are deliberately excluded: replays mint fresh tids, the value-keyed bag
    is the stable identity. *)

val digest : t -> string
(** {!digest_rows} over the full canonical contents. *)
