(** Selection predicates over the columns of one relation: the [X] in the
    paper's view definitions [V = π_Y(σ_X(...))], restricted to one relation's
    attributes (join clauses are expressed separately by the view layer).

    Evaluation itself charges nothing; callers charge [C1] per test through
    their cost meter, matching the paper's accounting. *)

open Vmat_storage

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type operand = Column of int | Const of Value.t

type t =
  | True
  | False
  | Cmp of comparison * operand * operand
  | Between of int * Value.t * Value.t  (** inclusive bounds on a column *)
  | And of t * t
  | Or of t * t
  | Not of t

val eval : t -> Tuple.t -> bool

val eval3 : t -> (int -> Value.t option) -> bool option
(** Three-valued evaluation under a partial binding of columns: [Some b] when
    the truth value is determined, [None] when unknown. *)

val satisfiable_with : t -> (int -> Value.t option) -> bool
(** Stage-2 screening test of §2: is the predicate still satisfiable with the
    bound columns substituted?  [true] unless {!eval3} is definitely
    [false]. *)

val columns_read : t -> int list
(** Sorted, deduplicated column positions the predicate reads — the input to
    the readily-ignorable-update test of [Bune79]. *)

(** {1 Compiled evaluation}

    One-time AST walk producing a closure tree with preallocated results:
    per-row evaluation allocates nothing.  Semantics are exactly {!eval3}
    with the row's columns bound (out-of-range columns unbound). *)

val compile : t -> Tuple_view.t -> bool option
(** Compile over page cursors: comparisons evaluate directly over column
    offsets in the flat page, with no [Value.t] boxing (cells are
    self-describing, so no schema is needed). *)

val compile_boxed : t -> Tuple.t -> bool option
(** Same compilation over boxed tuples (screens on stream tuples). *)

val eval_view : (Tuple_view.t -> bool option) -> Tuple_view.t -> bool
(** Two-valued read of a compiled predicate; raises like {!eval} when a
    column is unbound. *)

type interval = { column : int; lo : Value.t option; hi : Value.t option }
(** An index interval ([None] = unbounded on that side). *)

val tlock_intervals : t -> interval list option
(** Intervals to t-lock so that every tuple satisfying the predicate breaks
    at least one of them (a conservative cover): [Some []] means the
    predicate is unsatisfiable (nothing to lock), [None] means no indexable
    cover exists and the whole index must be locked. *)

val selectivity_on_unit_column : t -> column:int -> float
(** Estimated fraction of tuples satisfying the predicate assuming the given
    column is uniform on [0, 1) and other clauses are ignored — used by the
    advisor to recover the paper's [f] from a predicate. *)

val pp : Format.formatter -> t -> unit
