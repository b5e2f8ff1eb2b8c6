(** The fleet engine: many selection-projection views over one base
    relation, maintained through a shared-subexpression DAG with one
    hypothetical relation, one screening cascade and one refresh pass —
    plus an online advisor that promotes/demotes per-node materialization
    (DESIGN §14).

    Equivalence to isolated maintenance is the design invariant: for any
    stream, every query answer and every final view content is
    value-identical (bags; tids excluded, as everywhere) to what [N]
    isolated single-view engines would produce — transient nodes answer
    from their nearest materialized ancestor (or the base relation, which
    [Hr.reset] keeps current across refresh passes), so promote/demote
    events change only where cost is paid, never what is returned. *)

open Vmat_storage
open Vmat_relalg

type t

val create :
  ctx:Ctx.t ->
  base:Schema.t ->
  views:Vmat_view.View_def.sp list ->
  initial:Tuple.t list ->
  ad_buckets:int ->
  ?advisor:Advisor.config option ->
  ?base_cluster:string ->
  unit ->
  t
(** Views may cluster on different output columns.  The shared base B-tree
    clusters on [base_cluster] when given (a base column name), else on the
    most common clustering column across the fleet.  [?advisor:None]
    disables promote/demote: every class stays materialized and one AD read
    refreshes them all (§4's shared refresh); the default runs
    {!Advisor.default_config}.
    @raise Invalid_argument on an empty view list, duplicate view names, a
    view over another schema, or an unknown [base_cluster] column. *)

val view_names : t -> string list
val dag : t -> Dag.t

val handle_transaction : t -> Vmat_view.Strategy.change list -> unit

val answer_query : t -> view:string -> Vmat_view.Strategy.query -> (Tuple.t * int) list
(** Range query on the named view's clustering column.  Refreshes every
    stale node first (one shared AD read), runs any due advisor decision,
    then answers from the view's class node — its own materialization when
    present, otherwise a metered scan of the nearest materialized ancestor
    or the base relation.
    @raise Not_found for an unknown view name. *)

val view_contents : t -> view:string -> Bag.t
(** Logical contents (pending changes applied), unmetered. *)

val refreshes : t -> int
val queries : t -> int

type event = {
  ev_query : int;  (** fleet query count when the decision fired *)
  ev_node : string;
  ev_action : string;  (** ["promote"] or ["demote"] *)
  ev_score : float;  (** per-window benefit of being materialized *)
  ev_query_rate : float;  (** bias-corrected queries per window *)
  ev_delta_rate : float;  (** bias-corrected relevant deltas per window *)
  ev_costs : Advisor.costs;  (** prices judged on, after earlier flips of the same decision *)
  ev_margin : float;  (** hysteresis margin the score cleared *)
}

type node_info = {
  ni_name : string;
  ni_kind : string;
  ni_members : string list;
  ni_parent : string option;
  ni_materialized : bool;
  ni_rows : int;  (** stored rows when materialized, 0 otherwise *)
  ni_queries : int;
  ni_applied : int;  (** relevant deltas seen across refresh passes *)
}

type stats = {
  st_views : int;
  st_classes : int;
  st_groups : int;
  st_aliases : int;
  st_materialized : int;
  st_refreshes : int;
  st_txns : int;
  st_queries : int;
  st_promotions : int;
  st_demotions : int;
  st_stage2_tests : int;  (** stage-2 screening tests actually run *)
  st_stage2_saved : int;
      (** stage-2 tests aliasing avoided vs. screening per view *)
}

val stats : t -> stats
val nodes_info : t -> node_info list
val events : t -> event list
(** Advisor promote/demote log, oldest first. *)

val export_metrics : t -> Vmat_obs.Recorder.t -> unit
(** Publish [vmat_fleet_*] gauges/counters into the recorder's metric
    registry (fleet shape, materialized-node count, promote/demote totals,
    refresh passes, screening savings). *)
