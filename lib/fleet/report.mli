(** Fleet experiment driver: one Zipf-addressed stream replayed against a
    shared fleet engine and against [n] isolated single-view engines, with
    modeled-cost accounting and (optionally) a per-query equivalence check
    against the isolated engines (DESIGN §14.5, EXPERIMENTS X10).  Each
    isolated engine is a one-view {!Fleet} without an advisor, the cost
    baseline of the sharing figures; the reference that shares no engine
    code with the fleet lives in the test suite. *)

type opts = {
  ro_views : int;
  ro_overlap : float;  (** fraction of alias (duplicate-definition) views *)
  ro_subsume : float;
  ro_hetero : float;
  ro_zipf : float;  (** query-popularity skew across views *)
  ro_n_tuples : int;
  ro_k : int;  (** update transactions *)
  ro_l : int;  (** modified tuples per transaction *)
  ro_q : int;  (** queries *)
  ro_fv : float;  (** fraction of a view's envelope per query *)
  ro_seed : int;
  ro_ad_buckets : int;
  ro_advisor : Advisor.config option;
  ro_check : bool;  (** compare every answer against the isolated oracle *)
}

val default_opts : opts
(** 64 views, overlap 0.5, zipf 1.1, 2000 tuples, k=200 l=8 q=100, fv=0.3,
    seed 11, 4 AD buckets, default advisor, check on. *)

type result = {
  r_views : int;
  r_classes : int;
  r_groups : int;
  r_aliases : int;
  r_materialized : int;  (** materialized DAG nodes at end of run *)
  r_refreshes : int;
  r_promotions : int;
  r_demotions : int;
  r_shared_maint_ms : float;  (** Screen + Hr + Refresh + Migrate, fleet *)
  r_shared_total_ms : float;  (** everything but Base, fleet *)
  r_isolated_maint_ms : float;  (** summed over the isolated engines *)
  r_isolated_total_ms : float;
  r_shared_ms_per_delta : float;
  r_isolated_ms_per_delta : float;
  r_maint_speedup : float;  (** isolated / shared maintenance *)
  r_total_speedup : float;
  r_digest : string;  (** FNV-1a 64 over all final view contents *)
  r_match : bool;  (** true when every check passed (or checks were off) *)
  r_dag : string list;  (** {!Dag.describe} of the compiled fleet *)
  r_events : Fleet.event list;  (** advisor promote/demote log, oldest first *)
  r_nodes : Fleet.node_info list;  (** end-of-run per-node state *)
}

type inputs = {
  in_base : Vmat_storage.Schema.t;
  in_views : Vmat_view.View_def.sp list;
  in_initial : Vmat_storage.Tuple.t list;  (** the base relation's initial contents *)
  in_ops : Vmat_workload.Stream.fleet_op list;
  in_first_tid : int;  (** first tid the engines mint, past every generated one *)
}

val inputs : opts -> inputs
(** The fleet, dataset and stream that {!run_comparison} replays, generated
    from [ro_seed] (only the generation options are read). *)

val run_comparison : ?recorder:Vmat_obs.Recorder.t -> opts -> result
(** Generate the fleet and stream from [ro_seed], replay against both
    organizations, and return the comparison.  When [recorder] is given it
    is installed on the fleet context's meter and [vmat_fleet_*] metrics are
    exported at the end of the run. *)
