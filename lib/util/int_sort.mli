(** Ascending in-place sort of an int array prefix (checkpoint images sort
    their tids with it). *)

val sort : int array -> int -> unit
(** [sort a len] sorts [a.(0) .. a.(len - 1)] ascending, keeping repeats,
    and leaves the rest of [a] alone.  Insertion-sorted runs of 16, then
    bottom-up merges through one scratch array of [len] ints.
    @raise Invalid_argument when [len] is negative or exceeds [a]'s length. *)
