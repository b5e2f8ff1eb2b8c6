(** The concurrent serving subsystem (DESIGN §10): MVCC snapshot reads,
    a single writer with WAL group commit, and a wall-clock benchmark.

    Roles: {e one} writer domain owns the strategy engine (after an explicit
    {!Vmat_storage.Ctx.adopt} handoff) and applies the update stream through
    the ordinary differential machinery, publishing an immutable
    {!Snapshot.t} into an {!Vmat_wal.Mvcc} store at every commit-epoch
    boundary; {e N} reader domains pin the latest snapshot, answer range
    queries against it with zero synchronization beyond the pin, and unpin.
    Readers never touch the context, the meter, or the simulated disk —
    modeled costs accrue only on the writer, so the modeled-cost axis of a
    serving run is deterministic even though the wall-clock axis is not.

    Two clocks, never mixed: TPS and latency quantiles come from
    {!Vmat_obs.Wallclock}; [r_category_costs]/[r_modeled_ms] come from the
    writer's deterministic cost meter. *)

open Vmat_storage

type durability =
  | No_wal
  | Wal_group_commit of Vmat_wal.Wal.config
      (** writer durability batched through {!Vmat_wal.Wal.commit}'s group
          commit *)

type config = {
  readers : int;  (** client domains executing view queries (>= 1) *)
  queries_per_reader : int;
  publish_every : int;  (** transactions per commit epoch (>= 1) *)
  durability : durability;
  record_observations : bool;
      (** capture one {!observation} per read for the snapshot-isolation
          property (test-only; keep off in benchmarks) *)
  trace_sample : int;
      (** deterministic counter-based sampling period for per-query flight
          events: every [N]-th query/txn per domain is recorded (0 = none).
          Requires [flight_capacity > 0] to have any effect. *)
  sketch_capacity : int;
      (** Space-Saving capacity of the per-domain cluster-key sketches
          (0 = sketches off) *)
  flight_capacity : int;
      (** per-domain flight-ring capacity (0 = flight recorder off) *)
  dash_every : int;
      (** emit a dashboard snapshot every [K] epochs (0 = none beyond the
          final post-join frame when [on_snapshot] is given) *)
}

val default_config : config
(** 2 readers x 200 queries, an epoch every 8 transactions, WAL durability
    with [group_commit = 8], observations off, and every observability
    extra off ([trace_sample = sketch_capacity = flight_capacity =
    dash_every = 0]) — exactly the pre-observability serving behavior. *)

type latency = {
  l_count : int;
  l_mean_us : float;
  l_p50_us : float;
  l_p95_us : float;
  l_p99_us : float;
  l_max_us : float;
}
(** Wall-clock latency summary in microseconds (exact sample quantiles via
    {!Vmat_util.Stats.quantile}, not histogram estimates). *)

type observation = {
  ob_reader : int;
  ob_seq : int;
  ob_epoch : int;  (** the pinned snapshot's epoch *)
  ob_lo : Value.t;
  ob_hi : Value.t;
  ob_digest : string;  (** {!Snapshot.digest_rows} of the result *)
}
(** One reader-side query, recorded so a serial replay can re-derive what
    the answer {e must} have been for the pinned epoch. *)

type report = {
  r_strategy : string;
  r_readers : int;
  r_txns : int;
  r_queries : int;
  r_epochs : int;  (** snapshots published, including the initial epoch 0 *)
  r_reclaimed : int;  (** superseded snapshots dropped after their last unpin *)
  r_live : int;
  r_max_live : int;
  r_wall_s : float;
  r_tps : float;  (** transactions per wall-clock second (writer) *)
  r_qps : float;  (** snapshot queries per wall-clock second (all readers) *)
  r_txn_latency : latency;
  r_query_latency : latency;
  r_category_costs : (Cost_meter.category * float) list;  (** modeled, writer side *)
  r_modeled_ms : float;  (** modeled total excluding [Base] — deterministic *)
  r_final_digest : string;  (** {!Snapshot.digest} of the last published epoch *)
  r_sanitize_checks : int;
  r_sanitize_violations : int;
  r_observations : observation list;  (** empty unless [record_observations] *)
  r_flight : Vmat_obs.Flight.t list;
      (** the domains' flight rings in canonical (label-sorted) order;
          empty unless [flight_capacity > 0] *)
  r_hot_keys : Vmat_obs.Sketch.heavy list;
      (** merged heavy hitters over updated + queried cluster keys,
          heaviest first; empty unless [sketch_capacity > 0] *)
  r_key_total : int;
  r_key_distinct : float;
  r_key_skew : float;
  r_key_error_bound : float;
  r_writer_alloc_bytes : float;
      (** Bytes allocated on the writer domain over the serving loop
          ({!Vmat_obs.Alloc_meter} delta: word-exact and domain-local, so
          reader work never leaks in).  Deterministic for a deterministic
          workload — the allocation axis of the flat-tuple hot paths. *)
  r_writer_alloc_per_txn : float;
  r_reader_alloc_bytes : float;
      (** Summed over all reader domains (query loop only). *)
  r_reader_alloc_per_query : float;
}

val run :
  ?config:config ->
  ?recorder:Vmat_obs.Recorder.t ->
  ?sanitize:bool ->
  ?seed:int ->
  ?on_snapshot:(Vmat_obs.Dash.snapshot -> unit) ->
  params:Vmat_cost.Params.t ->
  strategy:Vmat_workload.Experiment.model1_strategy ->
  unit ->
  report
(** Serve a Model-1 workload: the writer replays the parameter set's update
    transactions (the query mix is carried by the readers, so the stream is
    generated with [q = 0]) while [readers] domains execute range queries
    against pinned snapshots.  [recorder], when enabled, additionally
    receives the wall-clock latency samples as a [vmat_serve_latency_us]
    histogram — merged on the coordinating domain after all workers joined,
    since the metric registry is single-threaded.

    Observability extras (DESIGN §11), all default-off and all with zero
    observer effect on the modeled artifacts ([r_modeled_ms],
    [r_category_costs], [r_final_digest] are bit-identical on vs. off —
    tested): with [flight_capacity > 0] each domain keeps a private
    {!Vmat_obs.Flight} ring (publish/group-commit-force always; per-query
    and per-txn events for every [trace_sample]-th operation, deterministic
    counter sampling per domain) and with [sketch_capacity > 0] a private
    {!Vmat_obs.Sketch} over quantized cluster keys — updated keys on the
    writer, queried keys on readers.  Rings and sketches travel back
    through the domain join, are merged deterministically here, exported
    into the recorder ([vmat_flight_*], [vmat_key_*], trace lanes per
    domain) and surfaced on the report.  [on_snapshot] receives a
    {!Vmat_obs.Dash} frame from the writer every [dash_every] epochs
    (mid-run: writer-side view only) plus one final merged frame
    post-join; it runs on the writer domain mid-run, so it must not touch
    the registry (vmlint D6) — writing a file or rendering to the terminal
    is fine.
    @raise Invalid_argument on a config with [readers < 1],
    [publish_every < 1] or any negative count field. *)

val replay_epochs :
  ?config:config ->
  ?sanitize:bool ->
  ?seed:int ->
  params:Vmat_cost.Params.t ->
  strategy:Vmat_workload.Experiment.model1_strategy ->
  unit ->
  Snapshot.t array
(** The verification oracle: rebuild, serially on the calling domain, the
    exact snapshot sequence the live writer publishes for the same seed,
    parameters and config (index = epoch).  Deterministic; used by the
    qcheck snapshot-isolation property to check every recorded read against
    the snapshot its pinned epoch must have contained. *)
