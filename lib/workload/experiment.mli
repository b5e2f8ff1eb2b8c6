(** One-call measured experiments: build the synthetic dataset and operation
    stream implied by a parameter set, instantiate the requested strategies
    on fresh simulated disks, replay, and report.  These are the "measured"
    counterparts of the analytic formulas in [Vmat_cost]. *)

open Vmat_cost

type model1_strategy =
  [ `Deferred | `Immediate | `Clustered | `Unclustered | `Sequential | `Recompute | `Adaptive ]

type model2_strategy = [ `Deferred | `Immediate | `Loopjoin ]

type model3_strategy = [ `Deferred | `Immediate | `Recompute ]

val scale : Params.t -> float -> Params.t
(** [scale p s] shrinks the relation to [s * N] tuples (keeping fractions and
    per-query update counts) for faster simulation.
    @raise Invalid_argument unless [0 < s <= 1] (so also for NaN). *)

val fresh_ctx :
  ?sanitize:bool ->
  ?fault:Vmat_storage.Fault.t ->
  Params.t ->
  first_tid:int ->
  Vmat_storage.Ctx.t
(** The execution context a measured run gives each strategy: geometry and
    cost constants from [p], tids pinned to [first_tid] (the next tid after
    dataset/stream generation) so every strategy sees identical tuple
    identities.  [fault] threads a crash-injection handle through for the
    durability harness (default: disabled). *)

type model1_setup = {
  ms_dataset : Dataset.model1;
  ms_ops : Stream.op list;
  ms_first_tid : int;
}
(** The shared half of a Model-1 measurement: dataset, operation stream, and
    the pinned first tid, for drivers that replay the ops themselves
    (the WAL crash-equivalence harness, [vmperf crash-test]). *)

val model1_setup : ?seed:int -> Params.t -> model1_setup
(** Deterministic: same [seed] and [p] produce byte-identical datasets and
    streams on every call. *)

val model1_env :
  ?sanitize:bool -> Params.t -> model1_setup -> Vmat_view.Strategy_sp.env
(** A fresh strategy environment over [setup] — its own context (meter,
    disk, RNG) pinned to [setup.ms_first_tid], exactly what one
    {!measure_model1} strategy run builds internally.  External drivers
    (the serving subsystem, DESIGN §10) use this to instantiate engines
    that replay the shared stream themselves. *)

val model1_strategy_of :
  Vmat_view.Strategy_sp.env -> model1_strategy -> Vmat_view.Strategy.t
(** The strategy a measured Model-1 run would build for [which] over
    [env] (the [`Adaptive] case wraps with default controller
    configuration). *)

type wrap =
  ctx:Vmat_storage.Ctx.t ->
  initial:Vmat_storage.Tuple.t list ->
  Vmat_view.Strategy.t ->
  Vmat_view.Strategy.t
(** A strategy decorator applied after construction, before the run — how
    [--durability wal] slips {!Vmat_wal.Durable} in front of every strategy
    without this library depending on the WAL.  [initial] is the base
    relation the change stream mutates. *)

val model1_keys_of : Stream.op -> string list
(** The cluster keys a Model-1 operation touches — updated tuples' [pval]
    and queried range starts, quantized with {!Vmat_obs.Sketch.bucket_key}
    into the same 64-bucket [0, 1) key space the serving sketches use. *)

val measure_model1 :
  ?seed:int ->
  ?recorder:Vmat_obs.Recorder.t ->
  ?sanitize:bool ->
  ?wrap:wrap ->
  ?track_keys:bool ->
  Params.t ->
  model1_strategy list ->
  (string * Runner.measurement) list
(** One shared dataset and stream; each strategy runs on its own disk and
    meter.  [recorder], when given, is installed on every strategy's meter:
    trace spans carry a [strategy] attribute, so a shared trace reads
    naturally, but the mirrored cost {e counters} are reset per strategy run
    — pass one strategy (or one recorder per call) for per-strategy metric
    snapshots.  [sanitize] forces the runtime invariant checker on (or off)
    for every strategy's context, overriding the [VMAT_SANITIZE] environment
    default (see {!Vmat_storage.Sanitize}).  [track_keys] (default off)
    feeds {!model1_keys_of} to {!Runner.run}'s key sketch, surfacing
    per-strategy [vmat_key_*] hot-key gauges when a recorder is enabled. *)

type phase_spec = { sp_k : int; sp_l : int; sp_q : int; sp_fv : float }
(** One segment of a phase-shifting Model-1 workload: [sp_k] transactions of
    [sp_l] tuples interleaved with [sp_q] queries, each retrieving the
    fraction [sp_fv] of the view.  The base parameter set supplies everything
    else ([N], [S], [B], [f], [C1..C3]). *)

type phased_result = {
  ph_name : string;
  ph_per_phase : Runner.measurement list;  (** one measurement per phase, in order *)
  ph_overall : Runner.measurement;  (** whole-run combination *)
  ph_adaptive : Vmat_adaptive.Adaptive.t option;
      (** the adaptive handle (decision log, migrations) when the strategy
          was [`Adaptive] *)
}

val measure_phased :
  ?seed:int ->
  ?recorder:Vmat_obs.Recorder.t ->
  ?sanitize:bool ->
  ?wrap:wrap ->
  ?adaptive_config:Vmat_adaptive.Controller.config ->
  ?adaptive_candidates:Vmat_adaptive.Migrate.kind list ->
  ?adaptive_initial:Vmat_adaptive.Migrate.kind ->
  Params.t ->
  phases:phase_spec list ->
  model1_strategy list ->
  phased_result list
(** Generate one phase-shifting stream (shared across strategies, each on its
    own fresh disk and meter) and measure every strategy per phase and
    overall.  The [adaptive_*] options configure the [`Adaptive] contender
    and are ignored for static strategies. *)

val measure_model2 :
  ?seed:int ->
  ?recorder:Vmat_obs.Recorder.t ->
  ?sanitize:bool ->
  ?wrap:wrap ->
  Params.t ->
  model2_strategy list ->
  (string * Runner.measurement) list

val measure_model3 :
  ?seed:int ->
  ?recorder:Vmat_obs.Recorder.t ->
  ?sanitize:bool ->
  ?wrap:wrap ->
  ?kind:[ `Count | `Sum of string | `Avg of string | `Variance of string | `Min of string | `Max of string ] ->
  Params.t ->
  model3_strategy list ->
  (string * Runner.measurement) list

val ad_buckets_for : Params.t -> int
(** Static sizing of the deferred differential file: [ceil (2u / T)] primary
    buckets (at least 1). *)
