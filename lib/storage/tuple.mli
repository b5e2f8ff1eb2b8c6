(** Tuples.  Every tuple carries a unique identifier [tid] drawn from a
    monotonically increasing source, as required by the hypothetical-relation
    scheme of §2.2.1 ("the value of the system clock or other monotonically
    increasing source"). *)

type t = private {
  tid : int;
  values : Value.t array;
  mutable key_memo : string option;
      (** Cached {!value_key} rendering — an implementation detail (tuples are
          immutable in every observable respect). *)
}

val make : tid:int -> Value.t array -> t

type source
(** A monotonic tuple-id source.  There is deliberately no process-global
    source: every engine owns one (via [Ctx.t]), so independent engines in
    one process are perfectly isolated and runs are reproducible. *)

val source : ?first:int -> unit -> source
(** Fresh source whose first emitted tid is [first] (default 1). *)

val next : source -> int
(** Draw the next tid and advance the source. *)

val peek : source -> int
(** The tid [next] would return, without advancing. *)

val tid : t -> int
val values : t -> Value.t array
val get : t -> int -> Value.t
val arity : t -> int

val set : t -> int -> Value.t -> t
(** Functional update of one field; keeps the tid. *)

val with_tid : t -> int -> t

val project : t -> int array -> t
(** Keep the fields at the given positions (in the given order); keeps the
    tid. *)

val concat : tid:int -> t -> t -> t
(** Concatenate the fields of two tuples (join result). *)

val equal_values : t -> t -> bool
(** Field-wise equality ignoring the tid — the equality used for duplicate
    counting in materialized views. *)

val equal : t -> t -> bool
(** [equal_values] and same tid — the equality of the hypothetical-relation
    set difference ("based on all fields of the tuple, including id"). *)

val compare_values : t -> t -> int
(** Lexicographic field comparison ignoring the tid. *)

val value_key : t -> string
(** Injective string encoding of the field values (ignoring tid), used for
    duplicate-count lookup and canonical row order. *)

val pp : Format.formatter -> t -> unit
