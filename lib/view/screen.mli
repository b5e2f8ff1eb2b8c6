(** The two-stage screening pipeline of §2, and the readily-ignorable-update
    test of [Bune79] that skips it altogether for a modification.

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

val readily_ignorable : reads:int list -> old_tuple:Tuple.t -> new_tuple:Tuple.t -> bool
(** The readily-ignorable-update test of [Bune79], applied per change: a
    modification that writes no column in [reads] ({!View_def.sp_reads}:
    the predicate's and the projected columns) cannot change the view, so it
    needs neither stage-2 screening nor maintenance.  The paper applies the
    test per command at compile time; per change is the same test at a finer
    grain. *)

val screen_images : t -> Strategy.change -> bool option * bool option
(** The marks of a change's deleted and inserted images ([None] where the
    change has no such image): both images are {!screen}ed.  The screening
    of the engines that apply no readily-ignorable test
    ([Strategy_join.immediate], [Strategy_agg.immediate]). *)

val screen_change : t -> reads:int list -> Strategy.change -> bool option * bool option
(** {!screen_images}, unless {!readily_ignorable} rules the modification
    out, which marks both images [Some false] at no charge.  Used by every
    engine over a selection-projection view that screens a change outside a
    hypothetical relation ([Strategy_sp.immediate], [recompute],
    [Planner]). *)
