(** Runtime invariant sanitizers — the dynamic counterpart of the vmlint
    static rules (DESIGN §8).  A sanitizer handle rides in the execution
    context ({!Ctx.create} [~sanitize:true], or [VMAT_SANITIZE=1] in the
    environment); instrumented sites ask it to verify semantic invariants the
    type system cannot express:

    - {b cost conservation}: every meter tally equals an independently
      mirrored count of the charges that produced it ({!attach_meter} +
      {!check_meter}, driven per-operation by [Runner]);
    - {b refresh ≡ recompute}: an incrementally maintained view equals the
      from-scratch recomputation over current base contents (deferred
      refresh / immediate maintenance, sampled via {!sample}).

    Zero observer effect by construction: checks read unmetered views and
    never charge the meter, consume context RNG state, or mint tuple ids
    from the context source.  Measurements are bit-identical with the
    sanitizer on or off (asserted in test/test_sanitize.ml). *)

exception Violation of string
(** Raised by the default violation handler.  The message carries the rule
    tag and a diagnostic, e.g.
    [\[cost-conservation\] category hr: mirror r=3 ... vs meter r=4 ...]. *)

type t

val none : t
(** The disabled sanitizer: every operation is a no-op costing one branch.
    This is what a context created without [~sanitize:true] carries. *)

val create : ?sample_every:int -> ?on_violation:(string -> unit) -> unit -> t
(** An enabled sanitizer.  [sample_every] (default 16) thins the expensive
    checks: {!sample} answers [true] on the first and every [sample_every]-th
    occurrence per rule, advancing a deterministic counter (never an RNG).
    [on_violation] defaults to raising {!Violation}; tests substitute an
    accumulator to assert on caught violations.

    @raise Invalid_argument if [sample_every <= 0]. *)

val env_enabled : unit -> bool
(** [true] iff [VMAT_SANITIZE] is set to [1]/[true]/[yes]/[on] — the switch
    CI's sanitize smoke job flips for the whole test suite and a sweep. *)

val enabled : t -> bool

val check : t -> rule:string -> (unit -> bool) -> detail:(unit -> string) -> unit
(** [check t ~rule cond ~detail] evaluates [cond] (only when enabled) and
    reports a violation of [rule] with [detail ()] when it is [false].  Both
    thunks are unevaluated on {!none}. *)

val sample : t -> rule:string -> bool
(** Whether the caller should run an expensive check now.  [false] on
    {!none}; otherwise true every [sample_every]-th call per [rule]
    (including the first). *)

val report : t -> rule:string -> detail:string -> unit
(** Unconditionally report a violation discovered by the caller's own logic
    rather than by a {!check} thunk. *)

val checks_run : t -> int
val violations : t -> int

(** {1 Cost conservation} *)

val attach_meter : t -> Cost_meter.t -> unit
(** Install the conservation mirror in the meter's dedicated sanitizer hook
    slot ({!Cost_meter.set_san_hook}) — independent of, and coexisting with,
    the recorder's metric hook.  No-op on {!none}. *)

val check_meter : t -> Cost_meter.t -> unit
(** Reconcile the mirror against the meter's own tallies, category by
    category and kind by kind; any discrepancy means a charge path bypassed
    the hook mechanism or a tally was mutated directly. *)
