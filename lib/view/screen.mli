(** The two-stage screening pipeline of §2.  (The readily-ignorable-update
    test of [Bune79], which skips screening altogether, is
    [Strategy_sp]'s: it needs the view's projected columns too.)

    Stage 1 — rule indexing: the view predicate's index intervals are
    t-locked at creation; a tuple that breaks no t-lock fails implicitly at
    no cost.  Stage 2 — the predicate with the tuple substituted is tested
    for satisfiability, charging [C1] to the [Screen] category.  A tuple is
    {e marked} for the view when it survives both stages. *)

open Vmat_storage
open Vmat_relalg

type t

val create : meter:Cost_meter.t -> view_name:string -> pred:Predicate.t -> unit -> t
(** Installs t-locks for the predicate's interval cover (locking the whole
    index when the predicate has no indexable clause). *)

val screen : t -> Tuple.t -> bool
(** [true] iff the tuple is marked for the view.  Stage 1 is free; stage 2
    charges one [C1] only for tuples that break a t-lock. *)

val stage2_tests : t -> int
(** Number of stage-2 tests performed so far (the [fu] of [C_screen]). *)
