(** Model 1 strategies (selection-projection views): deferred and immediate
    view maintenance, query modification through three access paths, and the
    full-recompute strategy of [Bune79] as an extra baseline. *)

open Vmat_storage

type env = {
  ctx : Ctx.t;
      (** The owning engine's execution context (disk, meter, geometry,
          tuple-id source, RNG). *)
  view : View_def.sp;
  initial : Tuple.t list;
  ad_buckets : int;
      (** Static sizing of the deferred differential file (the paper's
          [2u/T] pages). *)
}

val deferred : env -> Strategy.t
(** §2.2/§3.2.1: updates buffered in a hypothetical relation, view refreshed
    just before each query. *)

val deferred_introspect : env -> Strategy.t * Vmat_hypo.Hr.t
(** {!deferred} plus a handle on its hypothetical relation, for callers that
    need the differential state itself rather than the answers it induces:
    the WAL checkpoint manager snapshots the net A/D sets (DESIGN §9). *)

val deferred_async : env -> Strategy.t
(** §4's asynchronous refresh: idle CPU and disk time brings the view up to
    date after every transaction, so queries need no refresh first.  The
    refresh work is charged to the excluded [Base] category, modeling idle
    capacity; answers are identical to {!deferred}. *)

val deferred_split_ad : env -> Strategy.t
(** {!deferred} with separate [A] and [D] differential files instead of the
    combined [AD] file — the design §2.2.2 rejects because each update must
    read and write both files ("at least five I/O's ... rather than
    three").  Kept as an ablation. *)

val deferred_periodic : every:int -> env -> Strategy.t
(** Deferred maintenance that additionally refreshes after every [every]
    transactions.  Answers are identical to {!deferred}; total refresh I/O
    is never lower (the Yao triangle inequality, §4 — refreshing only on
    demand "uses the least system resources").
    @raise Invalid_argument if [every < 1]. *)

val snapshot : period:int -> env -> Strategy.t
(** A database snapshot [Adib80, Lind86]: the stored copy is refreshed only
    after every [period] transactions, and queries read the last refreshed
    state — answers may be stale by up to [period] transactions.
    @raise Invalid_argument if [period < 1]. *)

val immediate : env -> Strategy.t
(** [Blak86]/§3.2.2: view refreshed after every transaction; in-memory A/D
    sets charged [C3] per marked tuple. *)

val qmod_clustered : env -> Strategy.t
(** §3.2.3 (1): no materialization, clustered index scan of the base
    relation. *)

val qmod_unclustered : env -> Strategy.t
(** §3.2.3 (2): heap-stored base relation with an unclustered (secondary)
    index on the view predicate column. *)

val qmod_sequential : env -> Strategy.t
(** §3.2.3 (3): sequential scan of the entire base relation per query. *)

val recompute : env -> Strategy.t
(** [Bune79]: keep a materialized copy but recompute it from scratch before
    a query whenever some update since the last recomputation survived
    screening. *)
