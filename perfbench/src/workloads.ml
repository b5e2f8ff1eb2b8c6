(* The three workloads.  Each [round] builds its inputs from the seed, sets
   up the engine, runs the whole operation stream through a closed loop
   with one client (the next operation is issued when the previous one
   returns), checks answers against {!Oracle}, restarts the engine and
   checks the restarted state.  It returns the round's deterministic
   counts, keyed by metric name.

   Why these three:
   - scan-read: Hanson's Model 1 under deferred maintenance at the paper's
     N = 100000, query-heavy (P = 1/3, fv = 0.5): almost all busy time is
     the view range scan in [answer_query], on a ~130 MB heap;
   - durable-write: a smaller view of the same shape behind [Durable]
     (in-memory device, group commit 8, a checkpoint every 64
     transactions): WAL appends and checkpoint stalls take most of the
     busy time, then a clean restart goes through [Recovery];
   - fleet-zipf: 64 overlapping selection-projection views in one [Fleet]
     (50% aliases, Zipf 1.1 popularity, default advisor): shared
     screening and refresh, transient answers and promote/demote, on a
     ~25 MB heap, the small-working-set counterpart of scan-read. *)

open Core

type t = {
  name : string;
  kernel_every : int;  (** operations between kernel samples (tens of ms) *)
  round : Meas.t -> seed:int -> scale:float -> (string * float) list;
}

(* Per-operation tags, for splitting per-layer figures. *)
let tag_checkpoint = 1
let tag_refresh = 1
let tag_migrate = 2

let scaled scale x = max 1 (int_of_float (Float.round (float_of_int x *. scale)))

let model1_params ~n ~k ~q ~l ~fv =
  {
    Params.defaults with
    Params.n_tuples = float_of_int n;
    k_updates = float_of_int k;
    q_queries = float_of_int q;
    l_per_txn = float_of_int l;
    f = 0.1;
    fv;
  }

let amount_col = 2

let mutate tids =
  Stream.mutate_column ~tids ~col:amount_col (fun rng ->
      Value.Float (Float.of_int (Rng.int rng 1000)))

(* Dataset and stream as two timed steps; the same recipe as
   [Experiment.model1_setup], split so each step has its own time. *)
let model1_inputs m ~seed (p : Params.t) =
  let rng = Rng.create seed in
  let tids = Tuple.source () in
  let dataset =
    Meas.step m Meas.Setup "workload.dataset" (fun () ->
        Dataset.make_model1 ~rng ~tids ~n:(int_of_float p.Params.n_tuples) ~f:p.Params.f
          ~s_bytes:(int_of_float p.Params.tuple_bytes))
  in
  let ops =
    Meas.step m Meas.Setup "workload.stream" (fun () ->
        let width = p.Params.f *. p.Params.fv in
        Stream.generate ~rng
          ~tuples:(Array.of_list dataset.Dataset.m1_tuples)
          ~mutate:(mutate tids)
          ~k:(int_of_float p.Params.k_updates) ~l:(int_of_float p.Params.l_per_txn)
          ~q:(int_of_float p.Params.q_queries)
          ~query_of:(Stream.range_query_of ~lo_max:(p.Params.f -. width) ~width))
  in
  { Experiment.ms_dataset = dataset; ms_ops = ops; ms_first_tid = Tuple.peek tids }

(* The inner strategy's closures wrapped in view-layer spans (traced rounds
   only; the untraced round calls the strategy as built). *)
let interpose spans (s : Strategy.t) =
  match spans with
  | None -> s
  | Some _ ->
      {
        s with
        Strategy.handle_transaction =
          (fun changes -> Spans.span spans "view.txn" (fun () -> s.Strategy.handle_transaction changes));
        answer_query = (fun q -> Spans.span spans "view.query" (fun () -> s.Strategy.answer_query q));
        view_contents =
          (fun () -> Spans.span spans "view.contents" (fun () -> s.Strategy.view_contents ()));
      }

(* Each round restarts the engine [restarts] times; [recover_s] is the
   median.  A restart is one call of ~0.1-0.5 s, too long for the kernel
   samples around it to follow the machine's phases, so one sample per
   round was the noisiest wall figure.  A restarted engine starts in a
   fresh process, with no GC work pending from the run before it, so that
   work is settled, untimed, before each restart. *)
let restarts = 3

let restart f =
  for tag = 0 to restarts - 1 do
    Gc.full_major ();
    f tag
  done

(* Count an oracle comparison as one attempted operation. *)
let check m ok =
  Meas.attempt m;
  if not ok then Meas.failed m

let rows_match expected = function
  | Ok rows -> Oracle.bag_of_rows rows = expected
  | Error _ -> true (* already counted as a failed operation *)

type disk_mark = { reads : int; writes : int; hits : int; misses : int }

let disk_mark ctx =
  let d = Ctx.disk ctx in
  {
    reads = Disk.physical_reads d;
    writes = Disk.physical_writes d;
    hits = Disk.pool_hits d;
    misses = Disk.pool_misses d;
  }

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Counts every workload reports: storage, meter and GC figures over the
   operation stream, plus the e2e deterministic metrics. *)
let common_counts m ~ctx ~(mark : disk_mark) ~txns ~queries =
  let meter = Ctx.meter ctx in
  let now = disk_mark ctx in
  let ops = fi (txns + queries) and q = fi queries in
  let word = fi (Sys.word_size / 8) in
  [
    ("modeled_ms_per_query", ratio (Cost_meter.total_cost ~excluding:[ Cost_meter.Base ] meter) q);
    ("alloc_bytes_per_op", ratio (m.Meas.alloc_words *. word) ops);
    ("storage.reads_per_op", ratio (fi (now.reads - mark.reads)) ops);
    ("storage.writes_per_op", ratio (fi (now.writes - mark.writes)) ops);
    ( "storage.pool_hit_frac",
      ratio (fi (now.hits - mark.hits)) (fi (now.hits - mark.hits + now.misses - mark.misses)) );
    ("view.screen_tests_per_txn", ratio (fi (Cost_meter.predicate_tests meter Cost_meter.Screen)) (fi txns));
    ("gc.minor_per_op", ratio (fi m.Meas.minor_colls) ops);
    ("gc.major", fi m.Meas.major_colls);
    ("gc.promoted_bytes_per_op", ratio (m.Meas.promoted_words *. word) ops);
  ]
  @ List.map
      (fun cat ->
        (Printf.sprintf "meter.%s_ms_per_query" (Cost_meter.category_name cat), ratio (Cost_meter.cost meter cat) q))
      Cost_meter.all_categories

(* scan-read and durable-write drive a Model-1 stream the same way.  Every
   deferred query refreshes first, draining the differential file of
   [hr]; its size is read before each query, outside the bracket. *)
let drive_model1 m ~check_every ~oracle ~view ~hr ~(s : Strategy.t) ~after_txn ops =
  let txns = ref 0 and queries = ref 0 in
  let ad_entries = ref 0 and ad_pages = ref 0 in
  List.iter
    (function
      | Stream.Txn changes ->
          incr txns;
          let u, _ = Meas.op m Meas.Txn (fun () -> s.Strategy.handle_transaction changes) in
          after_txn u;
          Oracle.apply oracle changes
      | Stream.Query q ->
          incr queries;
          ad_entries := !ad_entries + Hr.ad_entry_count hr;
          ad_pages := !ad_pages + Hr.ad_page_count hr;
          let _, r = Meas.op m Meas.Query (fun () -> s.Strategy.answer_query q) in
          if !queries mod check_every = 0 then
            check m (rows_match (Oracle.expected ~range:q oracle view) r))
    ops;
  let hypo =
    [
      ("hypo.ad_entries_per_refresh", ratio (fi !ad_entries) (fi !queries));
      ("hypo.ad_pages_per_refresh", ratio (fi !ad_pages) (fi !queries));
    ]
  in
  (!txns, !queries, hypo)

let scan_read =
  let round m ~seed ~scale =
    let p = model1_params ~n:(scaled scale 100_000) ~k:(scaled scale 500) ~q:(scaled scale 1000) ~l:25 ~fv:0.5 in
    let setup = model1_inputs m ~seed p in
    let view = setup.Experiment.ms_dataset.Dataset.m1_view in
    let env, (raw, hr) =
      Meas.step m Meas.Setup "view.build" (fun () ->
          let env = Experiment.model1_env p setup in
          (env, Strategy_sp.deferred_introspect env))
    in
    let ctx = env.Strategy_sp.ctx in
    Cost_meter.reset (Ctx.meter ctx);
    let mark = disk_mark ctx in
    let oracle = Oracle.create setup.Experiment.ms_dataset.Dataset.m1_tuples in
    let s = interpose (Meas.spans m) raw in
    let txns, queries, hypo =
      drive_model1 m ~check_every:50 ~oracle ~view ~hr ~s ~after_txn:ignore setup.Experiment.ms_ops
    in
    let counts = common_counts m ~ctx ~mark ~txns ~queries @ hypo in
    let live = Oracle.bag_of_bag (raw.Strategy.view_contents ()) in
    check m (live = Oracle.expected oracle view);
    (* Restart of an in-memory engine: rebuild from the base it left.  The
       operation stream is dropped so that only what a fresh process would
       hold stays reachable. *)
    let restart_setup =
      let dataset = { setup.Experiment.ms_dataset with Dataset.m1_tuples = Oracle.base_contents oracle } in
      { setup with Experiment.ms_dataset = dataset; ms_ops = [] }
    in
    restart (fun tag ->
        let rebuilt =
          Meas.step ~tag m Meas.Restart "view.rebuild" (fun () ->
              fst (Strategy_sp.deferred_introspect (Experiment.model1_env p restart_setup)))
        in
        check m (Oracle.bag_of_bag (rebuilt.Strategy.view_contents ()) = live));
    counts
  in
  { name = "scan-read"; kernel_every = 30; round }

let durable_write =
  let round m ~seed ~scale =
    (* 3 queries per 2 transactions: 2 of every 3 queries refresh a
       transaction's changes first.  At 1 query per transaction every query
       refreshes; at 2, half do, and the median sat between the two modes
       (17% seed-to-seed spread). *)
    let p = model1_params ~n:(scaled scale 20_000) ~k:(scaled scale 1000) ~q:(scaled scale 1500) ~l:25 ~fv:0.05 in
    let setup = model1_inputs m ~seed p in
    let dataset = setup.Experiment.ms_dataset in
    let view = dataset.Dataset.m1_view and initial = dataset.Dataset.m1_tuples in
    let config = Wal.config ~group_commit:8 ~checkpoint_every:64 () in
    let dev = Device.memory () in
    (* [build] keeps the uninterposed strategy for the checks, so the
       oracle's reads never land in a span. *)
    let build ctx base =
      let raw, hr =
        Strategy_sp.deferred_introspect
          { Strategy_sp.ctx; view; initial = base; ad_buckets = Experiment.ad_buckets_for p }
      in
      (raw, hr, interpose (Meas.spans m) raw)
    in
    let ctx = Experiment.fresh_ctx p ~first_tid:setup.Experiment.ms_first_tid in
    let raw, hr, inner = Meas.step m Meas.Setup "view.build" (fun () -> build ctx initial) in
    let durable =
      Meas.step m Meas.Setup "wal.wrap" (fun () ->
          Durable.wrap ~config ~probe:(Durable.hr_probe hr) ~ctx ~dev ~initial inner)
    in
    Cost_meter.reset (Ctx.meter ctx);
    let mark = disk_mark ctx in
    let oracle = Oracle.create initial in
    let s = Durable.strategy durable in
    let s =
      {
        s with
        Strategy.handle_transaction =
          (fun changes -> Spans.span (Meas.spans m) "wal.txn" (fun () -> s.Strategy.handle_transaction changes));
        answer_query = (fun q -> Spans.span (Meas.spans m) "wal.query" (fun () -> s.Strategy.answer_query q));
      }
    in
    let ckpts = ref 0 in
    let after_txn u =
      let c = Durable.checkpoints_taken durable in
      if c > !ckpts then Meas.tag m u tag_checkpoint;
      ckpts := c
    in
    let txns, queries, hypo = drive_model1 m ~check_every:20 ~oracle ~view ~hr ~s ~after_txn setup.Experiment.ms_ops in
    let wal = Durable.wal durable in
    let counts =
      common_counts m ~ctx ~mark ~txns ~queries
      @ hypo
      @ [
          ("wal.forces_per_txn", ratio (fi (Wal.forces wal)) (fi txns));
          ("wal.bytes_per_txn", ratio (fi (Wal.forced_bytes wal)) (fi txns));
          ("wal.checkpoints", fi (Durable.checkpoints_taken durable));
        ]
    in
    let live_view = Durable.view_rows raw in
    check m (Oracle.bag_of_rows live_view = Oracle.expected oracle view);
    (* Clean shutdown, then restart through Recovery's three phases. *)
    Durable.flush durable;
    let rows l = List.map (fun (tuple, c) -> (Tuple.value_key tuple, c)) l in
    let keyed l = List.map (fun tuple -> (Tuple.tid tuple, Tuple.value_key tuple)) l in
    (* The restarts capture only what a fresh process would hold (device,
       initial base, configuration) and the live state's digests, so the
       live engine and the run's inputs are garbage while they recover. *)
    let live_rows = rows live_view and live_base = keyed (Durable.base_contents durable) in
    let first_tid = setup.Experiment.ms_first_tid in
    let replayed = ref 0 in
    (* Recovery only reads the device after a clean shutdown (no torn tail
       to repair, and a new writer writes nothing until it forces), so the
       restarts see the same device. *)
    restart (fun tag ->
        let step name f = Meas.step ~tag m Meas.Restart name f in
        let ctx2 = Experiment.fresh_ctx p ~first_tid in
        let recovered_raw = ref None in
        let sc = step "wal.recover_scan" (fun () -> Recovery.scan ~ctx:ctx2 dev) in
        step "wal.recover_repair" (fun () -> Recovery.repair dev sc);
        let strategy, probe, base =
          step "wal.recover_replay" (fun () ->
              Recovery.replay sc ~initial ~build:(fun ~image:_ base ->
                  let raw2, hr2, inner2 = Spans.span (Meas.spans m) "view.rebuild" (fun () -> build ctx2 base) in
                  recovered_raw := Some raw2;
                  (inner2, Durable.hr_probe hr2)))
        in
        let recovered =
          step "wal.wrap" (fun () ->
              Durable.wrap ~config ~probe ~op_index:sc.Recovery.sc_resume
                ~next_txn_id:sc.Recovery.sc_next_txn_id ~ctx:ctx2 ~dev ~initial:base strategy)
        in
        replayed := List.length sc.Recovery.sc_txns;
        check m
          (Option.fold ~none:false ~some:(fun raw2 -> rows (Durable.view_rows raw2) = live_rows) !recovered_raw
          && keyed (Durable.base_contents recovered) = live_base));
    counts @ [ ("wal.replayed_txns", fi !replayed) ]
  in
  { name = "durable-write"; kernel_every = 40; round }

(* Advisor decisions so far ([Fleet.events] would copy the whole log). *)
let migrations fleet =
  let st = Fleet.stats fleet in
  st.Fleet.st_promotions + st.Fleet.st_demotions

let fleet_zipf =
  let views = 64 in
  let round m ~seed ~scale =
    let rng = Rng.create seed in
    let tids = Tuple.source () in
    let dataset =
      Meas.step m Meas.Setup "workload.dataset" (fun () ->
          Dataset.make_model1 ~rng ~tids ~n:(scaled scale 5_000) ~f:0.5 ~s_bytes:100)
    in
    let base = dataset.Dataset.m1_schema and initial = dataset.Dataset.m1_tuples in
    let spec, ops =
      Meas.step m Meas.Setup "workload.stream" (fun () ->
          (* The view definitions and the operation pattern (which tuple
             slots change, which view each query goes to and its range) are
             fixed; the seed draws the data.  Drawing the pattern from the
             seed too moved the advisor's promote/demote count, and with it
             every figure, by ~10% from seed to seed. *)
          let spec = Fleet_spec.overlapping_fleet ~rng:(Rng.create 11) ~base ~views ~overlap:0.5 () in
          ( spec,
            Stream.generate_fleet ~rng:(Rng.create 12) ~tuples:(Array.of_list initial) ~mutate:(mutate tids) ~views
              ~zipf_s:1.1 ~k:(scaled scale 2000) ~l:8 ~q:(scaled scale 2000)
              ~query_of:(fun rng v -> Fleet_spec.query_of spec ~fv:0.3 rng v) ))
    in
    let defs = Array.of_list spec.Fleet_spec.fs_views in
    let create ctx initial =
      Fleet.create ~ctx ~base ~views:spec.Fleet_spec.fs_views ~initial ~ad_buckets:4 ()
    in
    let first_tid = Tuple.peek tids in
    let ctx = Ctx.create ~seed:(seed + 1) ~first_tid () in
    let fleet = Meas.step m Meas.Setup "fleet.build" (fun () -> create ctx initial) in
    Cost_meter.reset (Ctx.meter ctx);
    let mark = disk_mark ctx in
    let oracle = Oracle.create initial in
    let sp = Meas.spans m in
    let txns = ref 0 and queries = ref 0 in
    List.iter
      (function
        | Stream.Ftxn changes ->
            incr txns;
            ignore
              (Meas.op m Meas.Txn (fun () ->
                   Spans.span sp "fleet.txn" (fun () -> Fleet.handle_transaction fleet changes)));
            Oracle.apply oracle changes
        | Stream.Fquery (v, q) ->
            incr queries;
            let refreshes = Fleet.refreshes fleet and moves = migrations fleet in
            let def = defs.(v) in
            let u, r =
              Meas.op m Meas.Query (fun () ->
                  Spans.span sp "fleet.query" (fun () ->
                      Fleet.answer_query fleet ~view:def.View_def.sp_name q))
            in
            if migrations fleet > moves then Meas.tag m u tag_migrate
            else if Fleet.refreshes fleet > refreshes then Meas.tag m u tag_refresh;
            if !queries mod 20 = 0 then check m (rows_match (Oracle.expected ~range:q oracle def) r))
      ops;
    let st = Fleet.stats fleet in
    let counts =
      common_counts m ~ctx ~mark ~txns:!txns ~queries:!queries
      @ [
          ("fleet.promotions", fi st.Fleet.st_promotions);
          ("fleet.demotions", fi st.Fleet.st_demotions);
          ("fleet.refreshes", fi st.Fleet.st_refreshes);
          ("fleet.materialized", fi st.Fleet.st_materialized);
          ( "fleet.stage2_saved_frac",
            ratio (fi st.Fleet.st_stage2_saved) (fi (st.Fleet.st_stage2_tests + st.Fleet.st_stage2_saved)) );
        ]
    in
    (* Final contents of every fourth view: all 64 would triple the
       round's unmeasured time for little extra coverage. *)
    let checked = List.filteri (fun i _ -> i mod 4 = 0) (Array.to_list defs) in
    let contents f = List.map (fun (d : View_def.sp) -> Oracle.bag_of_bag (Fleet.view_contents f ~view:d.View_def.sp_name)) checked in
    let live = contents fleet in
    check m (List.for_all2 (fun got def -> got = Oracle.expected oracle def) live checked);
    let final_base = Oracle.base_contents oracle in
    restart (fun tag ->
        let rebuilt =
          Meas.step ~tag m Meas.Restart "fleet.rebuild" (fun () -> create (Ctx.create ~seed:(seed + 1) ~first_tid ()) final_base)
        in
        check m (contents rebuilt = live));
    counts
  in
  { name = "fleet-zipf"; kernel_every = 20; round }

let all = [ scan_read; durable_write; fleet_zipf ]
let find name = List.find_opt (fun w -> String.equal w.name name) all
