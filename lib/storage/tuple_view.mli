(** Zero-copy cursor over one flat row (page + slot).  Exposes the {!Tuple}
    accessors without materializing; scans reuse one cursor and mutate its
    slot, so iteration allocates nothing.

    Validity: a view is a *borrowed* position — it is valid only until the
    underlying page is next mutated (insert/remove/replace/compaction), and
    scan callbacks receive a cursor that is re-aimed at the next row after
    the callback returns.  Keep a row by calling {!materialize}. *)

type t

val on : Flat.t -> int -> t
val set : t -> Flat.t -> int -> unit
val set_slot : t -> int -> unit

val tid : t -> int
val arity : t -> int

val get : t -> int -> Value.t
(** Boxes one cell (prefer the comparison/key functions on hot paths). *)

val get_int : t -> int -> int
(** Unboxed read of an [Int] cell. @raise Invalid_argument otherwise. *)

val get_int_or : t -> int -> default:int -> int
(** Unboxed read of an [Int] cell; any other cell reads as [default]. *)

val get_bool_or_false : t -> int -> bool

val compare_col : t -> int -> Value.t -> int
(** [compare_col v col x = Value.compare (get v col) x], without boxing the
    cell. *)

val compare_cols : t -> int -> t -> int -> int
val compare_values : t -> t -> int
val compare_values_tuple : t -> Tuple.t -> int
val equal_values_tuple : t -> Tuple.t -> bool

val equal_prefix_values : t -> Tuple.t -> int -> bool
(** [equal_prefix_values v tuple n]: the first [n] cells of [v] equal the [n]
    fields of [tuple] (false unless [Tuple.arity tuple = n <= arity v]). *)

val value_key : t -> string
(** Equals [Tuple.value_key (materialize v)]. *)

val materialize : t -> Tuple.t
(** Box the row — the sanctioned boundary where flat rows become [Tuple.t]. *)

val materialize_prefix : t -> int -> tid:int -> Tuple.t
val project : t -> int array -> tid:int -> Tuple.t

val counted_row : t -> Tuple.t * int
(** {!Flat.counted_row} at the cursor: a stored view row boxed as its
    (tuple, count) answer pair. *)
