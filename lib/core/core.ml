(** Public facade of the view-materialization library.

    The layers, bottom-up:
    - {!Yao}, {!Rng} — analytic and probabilistic primitives; {!Int_sort},
      the integer sort checkpoint images order their tids with;
    - {!Value}, {!Schema}, {!Tuple}, {!Flat}, {!Tuple_view}, {!Disk},
      {!Buffer_pool}, {!Cost_meter}, {!Heap_file}, {!Ctx} — the simulated
      storage engine (page-resident flat rows with zero-copy cursors,
      DESIGN §12) and the per-engine execution context that owns all of its
      mutable state;
    - {!Btree}, {!Hash_file}, {!Tlock} — access methods;
    - {!Predicate}, {!Bag}, {!Ops} — relational algebra with duplicate
      counts;
    - {!Hr} — hypothetical relations (the deferred-maintenance substrate);
    - {!View_def}, {!Materialized}, {!Delta}, {!Screen}, {!Aggregate},
      {!Strategy}, {!Strategy_sp}, {!Strategy_join}, {!Strategy_agg} — views
      and the three materialization strategies;
    - {!Params}, {!Model1}, {!Model2}, {!Model3}, {!Regions} — the paper's
      analytic cost model;
    - {!Dataset}, {!Stream}, {!Runner}, {!Experiment}, {!Parallel} —
      measured workloads and the domain-parallel sweep driver;
    - {!Advisor} — strategy selection from the model;
    - {!Wstats}, {!Migrate}, {!Controller}, {!Adaptive} — online workload
      observation and live strategy migration (adaptive maintenance);
    - {!Span}, {!Trace}, {!Metrics}, {!Recorder}, {!Json_text} — the
      zero-dependency observability layer (Chrome-trace spans, Prometheus
      metrics) threaded through every layer above via the cost meter;
      {!Alloc_meter} is its word-exact allocation bracket;
    - {!Codec}, {!Fault}, {!Device}, {!Wal_record}, {!Wal}, {!Checkpoint},
      {!Durable}, {!Recovery}, {!Crash_harness} — the durability subsystem:
      write-ahead logging, checkpoints, ARIES-lite crash recovery, and
      deterministic fault injection (DESIGN §9);
    - {!Mvcc}, {!Snapshot}, {!Serve}, {!Wallclock} — the concurrent serving
      subsystem: immutable MVCC snapshots with pin/reclaim, a single writer
      with WAL group commit, multi-domain readers, and the wall-clock
      benchmark axis (DESIGN §10);
    - {!Flight}, {!Sketch}, {!Dash} — serving-grade observability: per-domain
      flight-recorder rings, Space-Saving heavy-hitter workload sketches, and
      the live text dashboard they feed (DESIGN §11);
    - {!Fleet_ir}, {!Fleet_dag}, {!Fleet_advisor}, {!Fleet}, {!Fleet_spec},
      {!Fleet_report} — the multi-view fleet: canonical
      selection-projection IR, the shared-subexpression DAG, the online
      materialization advisor, and the fleet engine built on all of them
      (DESIGN §14). *)

module Yao = Vmat_util.Yao
module Combin = Vmat_util.Combin
module Rng = Vmat_util.Rng
module Stats = Vmat_util.Stats
module Table = Vmat_util.Table
module Ascii_plot = Vmat_util.Ascii_plot
module Int_sort = Vmat_util.Int_sort
module Span = Vmat_obs.Span
module Trace = Vmat_obs.Trace
module Metrics = Vmat_obs.Metrics
module Recorder = Vmat_obs.Recorder
module Json_text = Vmat_obs.Json_text
module Flight = Vmat_obs.Flight
module Sketch = Vmat_obs.Sketch
module Dash = Vmat_obs.Dash
module Alloc_meter = Vmat_obs.Alloc_meter
module Value = Vmat_storage.Value
module Schema = Vmat_storage.Schema
module Tuple = Vmat_storage.Tuple
module Flat = Vmat_storage.Flat
module Tuple_view = Vmat_storage.Tuple_view
module Cost_meter = Vmat_storage.Cost_meter
module Disk = Vmat_storage.Disk
module Ctx = Vmat_storage.Ctx
module Sanitize = Vmat_storage.Sanitize
module Buffer_pool = Vmat_storage.Buffer_pool
module Heap_file = Vmat_storage.Heap_file
module Btree = Vmat_index.Btree
module Hash_file = Vmat_index.Hash_file
module Tlock = Vmat_index.Tlock
module Predicate = Vmat_relalg.Predicate
module Bag = Vmat_relalg.Bag
module Ops = Vmat_relalg.Ops
module Hr = Vmat_hypo.Hr
module View_def = Vmat_view.View_def
module Materialized = Vmat_view.Materialized
module Delta = Vmat_view.Delta
module Screen = Vmat_view.Screen
module Aggregate = Vmat_view.Aggregate
module Strategy = Vmat_view.Strategy
module Strategy_sp = Vmat_view.Strategy_sp
module Strategy_join = Vmat_view.Strategy_join
module Strategy_agg = Vmat_view.Strategy_agg
module Bilateral = Vmat_view.Bilateral
module Trigger = Vmat_view.Trigger
module Planner = Vmat_view.Planner
module Params = Vmat_cost.Params
module Model1 = Vmat_cost.Model1
module Model2 = Vmat_cost.Model2
module Model3 = Vmat_cost.Model3
module Regions = Vmat_cost.Regions
module Extensions = Vmat_cost.Extensions
module Dataset = Vmat_workload.Dataset
module Stream = Vmat_workload.Stream
module Runner = Vmat_workload.Runner
module Experiment = Vmat_workload.Experiment
module Parallel = Vmat_workload.Parallel
module Lexer = Vmat_lang.Lexer
module Ast = Vmat_lang.Ast
module Parser = Vmat_lang.Parser
module Db = Vmat_db.Db
module Advisor = Vmat_cost.Advisor
module Wstats = Vmat_adaptive.Wstats
module Migrate = Vmat_adaptive.Migrate
module Controller = Vmat_adaptive.Controller
module Adaptive = Vmat_adaptive.Adaptive
module Codec = Vmat_storage.Codec
module Fault = Vmat_storage.Fault
module Device = Vmat_wal.Device
module Wal_record = Vmat_wal.Record
module Wal = Vmat_wal.Wal
module Checkpoint = Vmat_wal.Checkpoint
module Durable = Vmat_wal.Durable
module Recovery = Vmat_wal.Recovery
module Crash_harness = Vmat_wal.Harness
module Mvcc = Vmat_wal.Mvcc
module Snapshot = Vmat_serve.Snapshot
module Serve = Vmat_serve.Server
module Wallclock = Vmat_obs.Wallclock
module Fleet = Vmat_fleet.Fleet
module Fleet_ir = Vmat_fleet.Ir
module Fleet_dag = Vmat_fleet.Dag
module Fleet_advisor = Vmat_fleet.Advisor
module Fleet_spec = Vmat_fleet.Spec
module Fleet_report = Vmat_fleet.Report
