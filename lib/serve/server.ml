open Vmat_storage
module Rng = Vmat_util.Rng
module Stats = Vmat_util.Stats
module Wallclock = Vmat_obs.Wallclock
module Recorder = Vmat_obs.Recorder
module Metrics = Vmat_obs.Metrics
module Flight = Vmat_obs.Flight
module Sketch = Vmat_obs.Sketch
module Dash = Vmat_obs.Dash
module Strategy = Vmat_view.Strategy
module Strategy_sp = Vmat_view.Strategy_sp
module View_def = Vmat_view.View_def
module Params = Vmat_cost.Params
module Experiment = Vmat_workload.Experiment
module Stream = Vmat_workload.Stream
module Dataset = Vmat_workload.Dataset
module Parallel = Vmat_workload.Parallel
module Mvcc = Vmat_wal.Mvcc
module Wal = Vmat_wal.Wal
module Durable = Vmat_wal.Durable
module Device = Vmat_wal.Device

type durability = No_wal | Wal_group_commit of Wal.config

type config = {
  readers : int;
  queries_per_reader : int;
  publish_every : int;
  durability : durability;
  record_observations : bool;
  trace_sample : int;
  sketch_capacity : int;
  flight_capacity : int;
  dash_every : int;
}

let default_config =
  {
    readers = 2;
    queries_per_reader = 200;
    publish_every = 8;
    durability = Wal_group_commit (Wal.config ~group_commit:8 ());
    record_observations = false;
    trace_sample = 0;
    sketch_capacity = 0;
    flight_capacity = 0;
    dash_every = 0;
  }

type latency = {
  l_count : int;
  l_mean_us : float;
  l_p50_us : float;
  l_p95_us : float;
  l_p99_us : float;
  l_max_us : float;
}

type observation = {
  ob_reader : int;
  ob_seq : int;
  ob_epoch : int;
  ob_lo : Value.t;
  ob_hi : Value.t;
  ob_digest : string;
}

type report = {
  r_strategy : string;
  r_readers : int;
  r_txns : int;
  r_queries : int;
  r_epochs : int;
  r_reclaimed : int;
  r_live : int;
  r_max_live : int;
  r_wall_s : float;
  r_tps : float;
  r_qps : float;
  r_txn_latency : latency;
  r_query_latency : latency;
  r_category_costs : (Cost_meter.category * float) list;
  r_modeled_ms : float;
  r_final_digest : string;
  r_sanitize_checks : int;
  r_sanitize_violations : int;
  r_observations : observation list;
  r_flight : Flight.t list;
  r_hot_keys : Sketch.heavy list;
  r_key_total : int;
  r_key_distinct : float;
  r_key_skew : float;
  r_key_error_bound : float;
  r_writer_alloc_bytes : float;
  r_writer_alloc_per_txn : float;
  r_reader_alloc_bytes : float;
  r_reader_alloc_per_query : float;
}

(* ------------------------------------------------------------------ *)
(* The engine: one strategy over a Model-1 setup, txn-only stream      *)
(* ------------------------------------------------------------------ *)

type engine = {
  en_env : Strategy_sp.env;
  en_strategy : Strategy.t;
  en_cluster_col : int;
  en_cluster_base : int;
  en_durable : Durable.t option;
  en_txns : Strategy.change list list;
}

(* The writer replays a transaction-only stream: in the serving split,
   queries are answered by reader domains from published snapshots, so the
   generated stream carries the parameter set's update transactions and the
   query mix is driven by [queries_per_reader] instead of [q]. *)
let build_engine ?sanitize ~seed ~durability (p : Params.t) which =
  let p = { p with Params.q_queries = 0. } in
  let setup = Experiment.model1_setup ~seed p in
  let env = Experiment.model1_env ?sanitize p setup in
  let strategy = Experiment.model1_strategy_of env which in
  let strategy, durable =
    match durability with
    | No_wal -> (strategy, None)
    | Wal_group_commit config ->
        let d =
          Durable.wrap ~config ~ctx:env.Strategy_sp.ctx ~dev:(Device.memory ())
            ~initial:setup.Experiment.ms_dataset.Dataset.m1_tuples strategy
        in
        (Durable.strategy d, Some d)
  in
  let txns =
    List.filter_map
      (function Stream.Txn cs -> Some cs | Stream.Query _ -> None)
      setup.Experiment.ms_ops
  in
  let view = env.Strategy_sp.view in
  {
    en_env = env;
    en_strategy = strategy;
    en_cluster_col = view.View_def.sp_cluster_out;
    en_cluster_base = view.View_def.sp_positions.(view.View_def.sp_cluster_out);
    en_durable = durable;
    en_txns = txns;
  }

let full_range =
  { Strategy.q_lo = Strategy.min_sentinel; q_hi = Strategy.max_sentinel }

(* The epoch-publication primitive: materialize the strategy's current
   answer for the full clustering range through its ordinary query path, so
   every snapshot pays the strategy's honest modeled refresh-plus-scan cost
   (deferred strategies refresh here, exactly as they would for a client
   query). *)
let snapshot_now engine ~epoch ~txns =
  let rows = engine.en_strategy.Strategy.answer_query full_range in
  Snapshot.of_rows ~cluster_col:engine.en_cluster_col ~epoch ~txns rows

(* The epoch protocol, shared by the live writer and the serial replay used
   to verify it: epochs advance only at transaction boundaries, every
   [publish_every] transactions plus once for a partial tail, so a published
   image can never contain half a transaction.  [publish] runs at each
   boundary with the epoch number and transactions covered; [on_txn] wraps
   each transaction application (timing, sanitizing, flight events) and
   receives the change list for key sketching. *)
let apply_txns engine ~publish_every ~publish ~on_txn =
  let txns_done = ref 0 and epochs = ref 1 and since = ref 0 in
  List.iter
    (fun changes ->
      on_txn changes (fun () ->
          engine.en_strategy.Strategy.handle_transaction changes);
      incr txns_done;
      incr since;
      if !since >= publish_every then begin
        publish ~epoch:!epochs ~txns:!txns_done;
        incr epochs;
        since := 0
      end)
    engine.en_txns;
  if !since > 0 then begin
    publish ~epoch:!epochs ~txns:!txns_done;
    incr epochs
  end;
  (!txns_done, !epochs)

(* ------------------------------------------------------------------ *)
(* Serial replay (the verification oracle)                             *)
(* ------------------------------------------------------------------ *)

let replay_epochs ?(config = default_config) ?sanitize ?(seed = 42) ~params ~strategy ()
    =
  let engine = build_engine ?sanitize ~seed ~durability:config.durability params strategy in
  let snaps = ref [ snapshot_now engine ~epoch:0 ~txns:0 ] in
  let _ =
    apply_txns engine ~publish_every:config.publish_every
      ~publish:(fun ~epoch ~txns -> snaps := snapshot_now engine ~epoch ~txns :: !snaps)
      ~on_txn:(fun _ f -> f ())
  in
  Array.of_list (List.rev !snaps)

(* ------------------------------------------------------------------ *)
(* The live server                                                     *)
(* ------------------------------------------------------------------ *)

let latency_of samples =
  match samples with
  | [] ->
      { l_count = 0; l_mean_us = 0.; l_p50_us = 0.; l_p95_us = 0.; l_p99_us = 0.; l_max_us = 0. }
  | _ ->
      {
        l_count = List.length samples;
        l_mean_us = Stats.mean samples;
        l_p50_us = Stats.quantile 0.5 samples;
        l_p95_us = Stats.quantile 0.95 samples;
        l_p99_us = Stats.quantile 0.99 samples;
        l_max_us = Stats.maximum samples;
      }

(* The sketch key space: cluster values quantized into 64 equal buckets of
   the pval domain [0, 1).  The same quantizer serves writer (updated keys)
   and readers (queried keys), so the merged sketch speaks one language. *)
let bucket_cells = 64

(* The 64 bucket labels, rendered once at module init: the per-observation
   path quantizes to an index and reuses the interned string, so sketching a
   key allocates nothing. *)
let bucket_labels =
  Array.init bucket_cells (fun i ->
      Sketch.bucket_label ~cells:bucket_cells ~lo:0. ~hi:1. i)

let key_of_value = function
  | Value.Float x ->
      bucket_labels.(Sketch.bucket_index ~cells:bucket_cells ~lo:0. ~hi:1. x)
  | v -> Value.to_string v

(* What each domain hands back when it joins: results plus its private
   flight ring and sketch (if enabled) — the only cross-domain channel. *)
type writer_out = {
  wo_txns : int;
  wo_epochs : int;
  wo_wall_s : float;
  wo_lats : float list;
  wo_ring : Flight.t option;
  wo_sketch : Sketch.t option;
  wo_frames : int;
  wo_alloc_bytes : float;
}

type reader_out = {
  ro_lats : float list;
  ro_obs : observation list;
  ro_ring : Flight.t option;
  ro_sketch : Sketch.t option;
  ro_alloc_bytes : float;
}

let run ?(config = default_config) ?recorder ?sanitize ?(seed = 42) ?on_snapshot
    ~params ~strategy () =
  if config.readers < 1 then invalid_arg "Server.run: readers must be >= 1";
  if config.publish_every < 1 then invalid_arg "Server.run: publish_every must be >= 1";
  if config.queries_per_reader < 0 then
    invalid_arg "Server.run: negative queries_per_reader";
  if config.trace_sample < 0 then invalid_arg "Server.run: negative trace_sample";
  if config.sketch_capacity < 0 then
    invalid_arg "Server.run: negative sketch_capacity";
  if config.flight_capacity < 0 then
    invalid_arg "Server.run: negative flight_capacity";
  if config.dash_every < 0 then invalid_arg "Server.run: negative dash_every";
  let engine = build_engine ?sanitize ~seed ~durability:config.durability params strategy in
  let ctx = engine.en_env.Strategy_sp.ctx in
  (match recorder with Some r -> Ctx.set_recorder ctx r | None -> ());
  let meter = Ctx.meter ctx and san = Ctx.sanitizer ctx in
  let name = engine.en_strategy.Strategy.name in
  let flight_on = config.flight_capacity > 0 in
  let sketch_on = config.sketch_capacity > 0 in
  let sampled s = config.trace_sample > 0 && s mod config.trace_sample = 0 in
  let store : Snapshot.t Mvcc.t = Mvcc.create () in
  (* Epoch 0 — the initial image — goes out on this domain before any other
     domain exists, so a reader's very first pin always finds a snapshot. *)
  ignore (Mvcc.publish store (snapshot_now engine ~epoch:0 ~txns:0));
  let width = params.Params.f *. params.Params.fv in
  let lo_max = params.Params.f -. width in
  let reader_seeds = Parallel.split_seeds ~root:seed config.readers in
  (* Wall-clock-only query tally so mid-run dashboard frames can show live
     QPS.  An atomic counter, never consulted by anything modeled. *)
  let queries_done = Atomic.make 0 in
  (* The registry's cost mirror is mutated from the writer domain (via the
     meter's charge hook) while it runs, so the writer may also read it;
     the coordinator reads it only after the join. *)
  let metric_mirror cat_name =
    match recorder with
    | Some r when Recorder.enabled r -> (
        match Recorder.metrics r with
        | Some m ->
            Option.value ~default:0.
              (Metrics.counter_value m
                 ~labels:[ ("category", cat_name) ]
                 "vmat_cost_ms_total")
        | None -> 0.)
    | _ -> 0.
  in
  let dash_categories () =
    List.map
      (fun cat ->
        let cn = Cost_meter.category_name cat in
        {
          Dash.c_name = cn;
          c_meter_ms = Cost_meter.cost meter cat;
          c_metric_ms = metric_mirror cn;
        })
      Cost_meter.all_categories
  in
  let ring_stats rings =
    List.map
      (fun rg ->
        {
          Dash.rs_label = Flight.label rg;
          rs_appended = Flight.appended rg;
          rs_dropped = Flight.dropped rg;
        })
      rings
  in
  let sketch_hot sk =
    List.map
      (fun h ->
        { Dash.h_key = h.Sketch.hh_key; h_count = h.Sketch.hh_count; h_err = h.Sketch.hh_err })
      (Sketch.top ~k:8 sk)
  in
  let sw_all = Wallclock.start () in
  let writer =
    Domain.spawn (fun () ->
        (* Explicit ctx handoff: this domain owns the engine from here on
           (the main domain only joins).  The flight ring and sketch are
           created here, inside the domain, and escape only through the
           join result. *)
        Ctx.adopt ctx;
        let ring =
          if flight_on then
            Some (Flight.create ~capacity:config.flight_capacity ~label:"writer" ())
          else None
        in
        let sketch =
          if sketch_on then Some (Sketch.create ~capacity:config.sketch_capacity ())
          else None
        in
        let emit ~at_us ev =
          match ring with Some rg -> Flight.append rg ~at_us ev | None -> ()
        in
        let lats = ref [] in
        let seq = ref 0 in
        let last_forces = ref 0 in
        let frames = ref 0 in
        let emit_frame ~epoch ~txns =
          match on_snapshot with
          | Some f when config.dash_every > 0 && epoch mod config.dash_every = 0 ->
              let wall = Wallclock.elapsed_s sw_all in
              let queries = Atomic.get queries_done in
              let txn_lat = latency_of !lats in
              f
                {
                  Dash.d_seq = !frames;
                  d_final = false;
                  d_strategy = name;
                  d_wall_s = wall;
                  d_txns = txns;
                  d_queries = queries;
                  d_epochs = epoch + 1;
                  d_tps = float_of_int txns /. Float.max 1e-9 wall;
                  d_qps = float_of_int queries /. Float.max 1e-9 wall;
                  d_txn_p50_us = txn_lat.l_p50_us;
                  d_txn_p95_us = txn_lat.l_p95_us;
                  d_txn_p99_us = txn_lat.l_p99_us;
                  (* Reader latencies are domain-private until the join. *)
                  d_query_p50_us = 0.;
                  d_query_p95_us = 0.;
                  d_query_p99_us = 0.;
                  d_modeled_ms =
                    Cost_meter.total_cost ~excluding:[ Cost_meter.Base ] meter;
                  d_categories = dash_categories ();
                  d_hot_keys =
                    (match sketch with Some sk -> sketch_hot sk | None -> []);
                  d_key_total =
                    (match sketch with Some sk -> Sketch.total sk | None -> 0);
                  d_key_distinct =
                    (match sketch with Some sk -> Sketch.distinct sk | None -> 0.);
                  d_key_skew =
                    (match sketch with Some sk -> Sketch.skew sk | None -> 0.);
                  d_flight =
                    (match ring with Some rg -> ring_stats [ rg ] | None -> []);
                  d_gauges = [];
                };
              incr frames
          | _ -> ()
        in
        (* The meter is word-exact and domain-local, so this delta is the
           writer's own allocation over the serving loop, snapshot
           publication included, and nothing any reader does. *)
        let alloc0 = Vmat_obs.Alloc_meter.bytes () in
        let sw_writer = Wallclock.start () in
        let txns, epochs =
          apply_txns engine ~publish_every:config.publish_every
            ~publish:(fun ~epoch ~txns ->
              let v = Mvcc.publish store (snapshot_now engine ~epoch ~txns) in
              assert (v = epoch);
              if flight_on then
                emit ~at_us:(Wallclock.elapsed_us sw_all)
                  (Flight.Publish
                     {
                       epoch;
                       txns;
                       modeled_ms =
                         Cost_meter.total_cost ~excluding:[ Cost_meter.Base ]
                           meter;
                     });
              emit_frame ~epoch ~txns)
            ~on_txn:(fun changes f ->
              let s = !seq in
              incr seq;
              (match sketch with
              | Some sk ->
                  List.iter
                    (fun c ->
                      match (c.Strategy.after, c.Strategy.before) with
                      | Some tu, _ | None, Some tu ->
                          Sketch.observe sk
                            (key_of_value (Tuple.get tu engine.en_cluster_base))
                      | None, None -> ())
                    changes
              | None -> ());
              let want_ev = flight_on && sampled s in
              let msnap = if want_ev then Some (Cost_meter.snapshot meter) else None in
              let t0 = if want_ev then Wallclock.elapsed_us sw_all else 0. in
              let sw = Wallclock.start () in
              f ();
              let el = Wallclock.elapsed_us sw in
              lats := el :: !lats;
              (match msnap with
              | Some ms ->
                  emit ~at_us:t0
                    (Flight.Txn_commit
                       {
                         seq = s;
                         changes = List.length changes;
                         modeled_ms = Cost_meter.cost_since meter ms ();
                         wall_us = el;
                       })
              | None -> ());
              (match engine.en_durable with
              | Some d when flight_on ->
                  let forces = Wal.forces (Durable.wal d) in
                  if forces > !last_forces then begin
                    emit ~at_us:(Wallclock.elapsed_us sw_all)
                      (Flight.Group_commit_force { forces });
                    last_forces := forces
                  end
              | _ -> ());
              if Sanitize.enabled san then begin
                Sanitize.check san ~rule:"ctx-ownership"
                  (fun () -> Ctx.owned_by_current ctx)
                  ~detail:(fun () ->
                    Printf.sprintf "serving writer lost ctx ownership (owner %d)"
                      (Ctx.owner ctx));
                Sanitize.check_meter san meter
              end)
        in
        {
          wo_txns = txns;
          wo_epochs = epochs;
          wo_wall_s = Wallclock.elapsed_s sw_writer;
          wo_lats = List.rev !lats;
          wo_ring = ring;
          wo_sketch = sketch;
          wo_frames = !frames;
          wo_alloc_bytes = Vmat_obs.Alloc_meter.bytes () -. alloc0;
        })
  in
  let reader idx rseed () =
    (* Readers own no ctx at all: a private RNG drives the query mix, and
       every read touches only immutable pinned snapshots.  Ring and
       sketch are private too. *)
    let rng = Rng.create rseed in
    let ring =
      if flight_on then
        Some
          (Flight.create ~capacity:config.flight_capacity
             ~label:(Printf.sprintf "reader-%d" idx)
             ())
      else None
    in
    let sketch =
      if sketch_on then Some (Sketch.create ~capacity:config.sketch_capacity ())
      else None
    in
    let lats = ref [] and obs = ref [] in
    let alloc0 = Vmat_obs.Alloc_meter.bytes () in
    for s = 0 to config.queries_per_reader - 1 do
      let q = Stream.range_query_of ~lo_max ~width rng in
      (match sketch with
      | Some sk -> Sketch.observe sk (key_of_value q.Strategy.q_lo)
      | None -> ());
      let smp = flight_on && sampled s in
      let t0 = if smp then Wallclock.elapsed_us sw_all else 0. in
      let sw = Wallclock.start () in
      let v, snap = Mvcc.pin store in
      let result = Snapshot.query snap ~lo:q.Strategy.q_lo ~hi:q.Strategy.q_hi in
      Mvcc.unpin store v;
      let el = Wallclock.elapsed_us sw in
      lats := el :: !lats;
      Atomic.incr queries_done;
      (* Events are appended outside the timed window, stamped with the
         window's endpoints, so sampling never inflates measured latency. *)
      if smp then begin
        (match ring with
        | Some rg ->
            Flight.append rg ~at_us:t0
              (Flight.Query_begin
                 {
                   seq = s;
                   epoch = v;
                   lo = Value.to_string q.Strategy.q_lo;
                   hi = Value.to_string q.Strategy.q_hi;
                 });
            Flight.append rg ~at_us:t0 (Flight.Pin { epoch = v });
            Flight.append rg ~at_us:(t0 +. el) (Flight.Unpin { epoch = v });
            Flight.append rg ~at_us:(t0 +. el)
              (Flight.Query_end
                 { seq = s; rows = List.length result; wall_us = el })
        | None -> ())
      end;
      if config.record_observations then
        obs :=
          {
            ob_reader = idx;
            ob_seq = s;
            ob_epoch = v;
            ob_lo = q.Strategy.q_lo;
            ob_hi = q.Strategy.q_hi;
            ob_digest = Snapshot.digest_rows result;
          }
          :: !obs
    done;
    {
      ro_lats = List.rev !lats;
      ro_obs = List.rev !obs;
      ro_ring = ring;
      ro_sketch = sketch;
      ro_alloc_bytes = Vmat_obs.Alloc_meter.bytes () -. alloc0;
    }
  in
  let readers = List.mapi (fun i s -> Domain.spawn (reader i s)) reader_seeds in
  let reader_results = List.map Domain.join readers in
  let wout = Domain.join writer in
  let txns = wout.wo_txns and epochs = wout.wo_epochs in
  let writer_s = wout.wo_wall_s and txn_lats = wout.wo_lats in
  let wall_s = Wallclock.elapsed_s sw_all in
  let query_lats = List.concat_map (fun ro -> ro.ro_lats) reader_results in
  let reader_alloc =
    List.fold_left (fun acc ro -> acc +. ro.ro_alloc_bytes) 0. reader_results
  in
  let observations = List.concat_map (fun ro -> ro.ro_obs) reader_results in
  (* Domain-local observability state, merged deterministically here on the
     coordinating domain: rings sort by label (join-order independent) and
     sketches combine with the mergeable-summaries construction. *)
  let rings =
    Flight.merge
      (List.filter_map Fun.id
         (wout.wo_ring :: List.map (fun ro -> ro.ro_ring) reader_results))
  in
  let sketches =
    List.filter_map Fun.id
      (wout.wo_sketch :: List.map (fun ro -> ro.ro_sketch) reader_results)
  in
  let keys = Sketch.merge sketches in
  let _, final = Mvcc.pin store in
  Mvcc.unpin store (Snapshot.epoch final);
  let st = Mvcc.stats store in
  (* Wall-clock latency histograms are merged into the recorder here, on
     the coordinating domain after both sides joined — the metric registry
     is not thread-safe and reader domains must never touch it (vmlint D6);
     flight rings and sketches are the sanctioned carrier. *)
  (match recorder with
  | Some r when Recorder.enabled r ->
      List.iter
        (fun l ->
          Recorder.observe r ~help:"Wall-clock latency of one serving operation (us)."
            ~labels:[ ("op", "query"); ("strategy", name) ]
            ~bounds:(Metrics.log_bounds ~start:0.25 ~growth:2. ~count:24 ())
            "vmat_serve_latency_us" l)
        query_lats;
      List.iter
        (fun l ->
          Recorder.observe r ~help:"Wall-clock latency of one serving operation (us)."
            ~labels:[ ("op", "txn"); ("strategy", name) ]
            ~bounds:(Metrics.log_bounds ~start:0.25 ~growth:2. ~count:24 ())
            "vmat_serve_latency_us" l)
        txn_lats;
      Recorder.set_gauge r ~help:"Snapshots published during the serving run."
        ~labels:[ ("strategy", name) ]
        "vmat_serve_epochs" (float_of_int epochs);
      Flight.export_metrics r rings;
      if not (List.is_empty sketches) then
        Sketch.export ~labels:[ ("strategy", name) ] r keys;
      (match Recorder.trace r with
      | Some tr -> Flight.to_trace tr rings
      | None -> ())
  | _ -> ());
  let queries = config.readers * config.queries_per_reader in
  let txn_lat = latency_of txn_lats and query_lat = latency_of query_lats in
  (* One final dashboard frame with the merged, post-join view. *)
  (match on_snapshot with
  | Some f ->
      let gauges =
        match recorder with
        | Some r when Recorder.enabled r -> (
            match Recorder.metrics r with
            | Some m ->
                List.rev
                  (Metrics.fold_series m
                     (fun acc ~name ~kind ~labels:_ value ->
                       match kind with
                       | Metrics.Gauge
                         when String.starts_with ~prefix:"vmat_hr_" name
                              || String.equal name "vmat_serve_epochs" ->
                           (name, value) :: acc
                       | _ -> acc)
                     [])
            | None -> [])
        | _ -> []
      in
      f
        {
          Dash.d_seq = wout.wo_frames;
          d_final = true;
          d_strategy = name;
          d_wall_s = wall_s;
          d_txns = txns;
          d_queries = queries;
          d_epochs = epochs;
          d_tps = float_of_int txns /. Float.max 1e-9 writer_s;
          d_qps = float_of_int queries /. Float.max 1e-9 wall_s;
          d_txn_p50_us = txn_lat.l_p50_us;
          d_txn_p95_us = txn_lat.l_p95_us;
          d_txn_p99_us = txn_lat.l_p99_us;
          d_query_p50_us = query_lat.l_p50_us;
          d_query_p95_us = query_lat.l_p95_us;
          d_query_p99_us = query_lat.l_p99_us;
          d_modeled_ms = Cost_meter.total_cost ~excluding:[ Cost_meter.Base ] meter;
          d_categories = dash_categories ();
          d_hot_keys = sketch_hot keys;
          d_key_total = Sketch.total keys;
          d_key_distinct = Sketch.distinct keys;
          d_key_skew = Sketch.skew keys;
          d_flight = ring_stats rings;
          d_gauges = gauges;
        }
  | None -> ());
  {
    r_strategy = name;
    r_readers = config.readers;
    r_txns = txns;
    r_queries = queries;
    r_epochs = epochs;
    r_reclaimed = st.Mvcc.st_reclaimed;
    r_live = st.Mvcc.st_live;
    r_max_live = st.Mvcc.st_max_live;
    r_wall_s = wall_s;
    r_tps = float_of_int txns /. Float.max 1e-9 writer_s;
    r_qps = float_of_int queries /. Float.max 1e-9 wall_s;
    r_txn_latency = txn_lat;
    r_query_latency = query_lat;
    r_category_costs =
      List.map (fun cat -> (cat, Cost_meter.cost meter cat)) Cost_meter.all_categories;
    r_modeled_ms = Cost_meter.total_cost ~excluding:[ Cost_meter.Base ] meter;
    r_final_digest = Snapshot.digest final;
    r_sanitize_checks = Sanitize.checks_run san;
    r_sanitize_violations = Sanitize.violations san;
    r_observations = observations;
    r_flight = rings;
    r_hot_keys = Sketch.top keys;
    r_key_total = Sketch.total keys;
    r_key_distinct = Sketch.distinct keys;
    r_key_skew = Sketch.skew keys;
    r_key_error_bound = Sketch.error_bound keys;
    r_writer_alloc_bytes = wout.wo_alloc_bytes;
    r_writer_alloc_per_txn =
      wout.wo_alloc_bytes /. float_of_int (Int.max 1 txns);
    r_reader_alloc_bytes = reader_alloc;
    r_reader_alloc_per_query =
      reader_alloc /. float_of_int (Int.max 1 queries);
  }
