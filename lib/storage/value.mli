(** Typed field values.  The ordering is total: [Null] sorts lowest, then
    booleans, then numbers (ints and floats compare numerically), then
    strings. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

val compare : t -> t -> int
val equal : t -> t -> bool

val rank : t -> int
(** Position of the constructor in the total order ([Null] 0, [Bool] 1,
    numbers 2, [Str] 3) — exposed so flat cells can replicate {!compare}
    without boxing. *)

val to_string : t -> string
(** Human-readable rendering. *)

val key_string : t -> string
(** Injective encoding used for hashing (hash files, join keys): two
    values have equal [key_string] iff {!equal}. *)

val hash : t -> int

val as_int : t -> int
(** @raise Invalid_argument if the value is not an [Int]. *)

val as_float : t -> float
(** Numeric coercion of [Int] or [Float].
    @raise Invalid_argument otherwise. *)

val pp : Format.formatter -> t -> unit
