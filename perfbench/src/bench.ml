(* Rounds, metrics and the report.  A run repeats whole rounds (inputs,
   set-up, stream, checks, restart) until its time is spent; every round
   of one seed does identical work, so the counts of round 1 stand for the
   run and wall figures pool or take medians over rounds.  A run has at
   least {!min_rounds} rounds, so a pooled p99 has at least ten samples
   beyond it on every workload.  With tracing,
   rounds alternate untraced/traced: the untraced ones give the wall and
   raw figures, the traced ones the spans. *)

type config = {
  workload : Workloads.t;
  seed : int;
  seconds : float;
  trace : bool;
  scale : float;  (** input sizes relative to the stated ones (tests) *)
  kernel_every : int option;  (** override the workload's schedule (tests) *)
}

type round = { traced : bool; meas : Meas.t; counts : (string * float) list; wall_ns : int }

type metric = { name : string; unit : string; value : float }

type result = {
  rounds : round list;
  end_to_end : metric list;
  per_layer : metric list;
  attempted : int;
  failed : int;
}

(* Metric names and units; BENCHMARK.json lists the same. *)
let end_to_end_units =
  [
    ("ops_per_s", "ops/s");
    ("query_p50_us", "us");
    ("query_p99_us", "us");
    ("txn_p50_us", "us");
    ("txn_p99_us", "us");
    ("setup_s", "s");
    ("recover_s", "s");
    ("modeled_ms_per_query", "ms");
    ("alloc_bytes_per_op", "B");
    ("peak_heap_mb", "MiB");
  ]

let calibrated_names =
  [ "ops_per_s"; "query_p50_us"; "query_p99_us"; "txn_p50_us"; "txn_p99_us"; "setup_s"; "recover_s" ]

let per_layer_units =
  [
    ("workload.dataset_s", "s");
    ("workload.stream_s", "s");
    ("workload.self_frac", "fraction");
    ("view.build_s", "s");
    ("view.rebuild_s", "s");
    ("view.query_us", "us");
    ("view.txn_us", "us");
    ("view.screen_tests_per_txn", "count");
    ("view.self_frac", "fraction");
    ("storage.reads_per_op", "count");
    ("storage.writes_per_op", "count");
    ("storage.pool_hit_frac", "fraction");
  ]
  @ List.map
      (fun cat -> (Printf.sprintf "meter.%s_ms_per_query" (Core.Cost_meter.category_name cat), "ms"))
      Core.Cost_meter.all_categories
  @ [
      ("hypo.ad_entries_per_refresh", "count");
      ("hypo.ad_pages_per_refresh", "count");
      ("wal.txn_self_us", "us");
      ("wal.forces_per_txn", "count");
      ("wal.bytes_per_txn", "B");
      ("wal.checkpoint_ms", "ms");
      ("wal.checkpoints", "count");
      ("wal.recover_scan_s", "s");
      ("wal.recover_replay_s", "s");
      ("wal.replayed_txns", "count");
      ("wal.self_frac", "fraction");
      ("fleet.build_s", "s");
      ("fleet.txn_us", "us");
      ("fleet.refresh_query_us", "us");
      ("fleet.plain_query_us", "us");
      ("fleet.migrate_query_us", "us");
      ("fleet.promotions", "count");
      ("fleet.demotions", "count");
      ("fleet.refreshes", "count");
      ("fleet.materialized", "count");
      ("fleet.stage2_saved_frac", "fraction");
      ("fleet.self_frac", "fraction");
      ("gc.minor_per_op", "count");
      ("gc.major", "count");
      ("gc.promoted_bytes_per_op", "B");
      ("bench.self_frac", "fraction");
      ("bench.machine_factor", "ratio");
      ("bench.kernel_frac", "fraction");
      ("bench.trace_overhead_frac", "fraction");
      ("bench.reconcile_err_frac", "fraction");
      ("bench.traced_busy_s", "s");
    ]
  @ List.map (fun n -> ("raw." ^ n, List.assoc n end_to_end_units)) calibrated_names

(* Layers whose spans the benchmark records around calls into the program.
   The bench layer's own spans are the operation brackets; their self time
   is what no call into a layer covers. *)
let program_layers = [ "workload"; "view"; "wal"; "fleet" ]

(* Largest share of traced busy time the program layers' self times may
   leave unaccounted: the bench layer's self time plus the recorder's gap
   between an operation's bracket and its root span. *)
let reconcile_tolerance = 0.02

let min_rounds = 3

(* ---- statistics ---- *)

let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((x -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let sorted_of l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l = quantile (sorted_of l) 0.5
let mean l = match l with [] -> 0. | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
let sum l = List.fold_left ( +. ) 0. l

(* ---- per-round views ---- *)

let units (r : round) = List.init r.meas.Meas.nu Fun.id
let units_of kinds r = List.filter (fun u -> List.mem r.meas.Meas.kinds.(u) kinds) (units r)
let is_op = [ Meas.Txn; Meas.Query ]

(* [unit_times ~cal kinds r]: each unit's time in ns. *)
let unit_times ~cal kinds r =
  List.map
    (fun u -> if cal then Meas.calibrated r.meas u else float_of_int r.meas.Meas.raw.(u))
    (units_of kinds r)

let total ~cal kinds r = sum (unit_times ~cal kinds r)

(* ---- running ---- *)

let run_round cfg kernel ~traced =
  let kernel_every = Option.value cfg.kernel_every ~default:cfg.workload.Workloads.kernel_every in
  let meas = Meas.create ~kernel ~kernel_every ~traced in
  let t0 = Clock.now () in
  let counts = cfg.workload.Workloads.round meas ~seed:cfg.seed ~scale:cfg.scale in
  Meas.finish meas;
  { traced; meas; counts; wall_ns = Clock.now () - t0 }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let run cfg =
  let kernel = Kernel.create () in
  (* Warm the kernel's data and code before the first sample. *)
  for _ = 1 to 4 do
    ignore (Sys.opaque_identity (Kernel.run kernel))
  done;
  let start = Clock.now () in
  let budget_ns = cfg.seconds *. 1e9 in
  let rec loop i acc =
    (* Compaction between rounds keeps one round's garbage out of the
       next; it happens at the same point of every run. *)
    Gc.compact ();
    let traced = cfg.trace && i mod 2 = 1 in
    let r = run_round cfg kernel ~traced in
    let r = if i = 0 then { r with counts = ("peak_heap_mb", peak_heap_mb ()) :: r.counts } else r in
    let acc = r :: acc in
    let elapsed = float_of_int (Clock.now () - start) in
    let per_round = elapsed /. float_of_int (i + 1) in
    if i + 1 < min_rounds || elapsed +. per_round <= budget_ns then loop (i + 1) acc
    else List.rev acc
  in
  loop 0 []

(* ---- metrics ---- *)

(* A round's restart time: the median over its repeated restarts (the
   restart steps carry their repeat number as tag). *)
let restart_time ~cal r =
  let m = r.meas in
  let steps = units_of [ Meas.Restart ] r in
  let time u = if cal then Meas.calibrated m u else float_of_int m.Meas.raw.(u) in
  median
    (List.map
       (fun tag -> sum (List.filter_map (fun u -> if m.Meas.tags.(u) = tag then Some (time u) else None) steps))
       (List.sort_uniq compare (List.map (fun u -> m.Meas.tags.(u)) steps)))

(* Latencies and throughput pool the untraced rounds; set-up and restart
   times take the median over rounds. *)
let wall_metrics ~cal rs =
  let pooled kind = sorted_of (List.concat_map (unit_times ~cal [ kind ]) rs) in
  let q = pooled Meas.Query and t = pooled Meas.Txn in
  let ops = sum (List.map (fun r -> float_of_int (List.length (units_of is_op r))) rs) in
  let busy_s = sum (List.map (total ~cal is_op) rs) /. 1e9 in
  [
    ("ops_per_s", if busy_s > 0. then ops /. busy_s else 0.);
    ("query_p50_us", quantile q 0.5 /. 1e3);
    ("query_p99_us", quantile q 0.99 /. 1e3);
    ("txn_p50_us", quantile t 0.5 /. 1e3);
    ("txn_p99_us", quantile t 0.99 /. 1e3);
    ("setup_s", median (List.map (total ~cal [ Meas.Setup ]) rs) /. 1e9);
    ("recover_s", median (List.map (restart_time ~cal) rs) /. 1e9);
  ]

(* Per-layer figures from the traced rounds' spans. *)
let span_metrics traced untraced =
  let busy = sum (List.map (total ~cal:true [ Meas.Txn; Meas.Query; Meas.Setup; Meas.Restart ]) traced) in
  let layer_self = Hashtbl.create 8 in
  let per_op = Hashtbl.create 16 in
  let per_round = Hashtbl.create 16 in
  let add tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  List.iteri
    (fun ri r ->
      let m = r.meas in
      match m.Meas.spans with
      | None -> ()
      | Some sp ->
          let self = Spans.self_times sp in
          for i = 0 to Spans.length sp - 1 do
            let name = Spans.name sp i and u = Spans.unit_of sp i in
            let f = Meas.divisor m u in
            let dur = float_of_int (Spans.duration sp i) /. f and own = float_of_int self.(i) /. f in
            let layer = Spans.layer name in
            Hashtbl.replace layer_self layer
              (own +. Option.value ~default:0. (Hashtbl.find_opt layer_self layer));
            let tag = m.Meas.tags.(u) in
            match m.Meas.kinds.(u) with
            | Meas.Txn | Meas.Query ->
                add per_op (name, tag) dur;
                add per_op (name ^ "#self", tag) own
            | Meas.Setup | Meas.Restart ->
                add per_round (name, (ri, tag)) dur;
                add per_round (name ^ "#self", (ri, tag)) own
          done)
    traced;
  let ops name tags =
    List.concat_map (fun tag -> Option.value ~default:[] (Hashtbl.find_opt per_op (name, tag))) tags
  in
  let all_tags = [ 0; 1; 2 ] in
  (* A step's time: per traced round and repeat, then the median. *)
  let step name =
    median (Hashtbl.fold (fun (n, _) durs acc -> if n = name then sum durs :: acc else acc) per_round [])
    /. 1e9
  in
  let self_of layer = Option.value ~default:0. (Hashtbl.find_opt layer_self layer) in
  let frac x = if busy > 0. then x /. busy else 0. in
  let untraced_busy = mean (List.map (total ~cal:true is_op) untraced) in
  let traced_busy = mean (List.map (total ~cal:true is_op) traced) in
  let program_self = sum (List.map self_of program_layers) in
  [
    ("workload.dataset_s", step "workload.dataset");
    ("workload.stream_s", step "workload.stream");
    ("view.build_s", step "view.build");
    ("view.rebuild_s", step "view.rebuild");
    ("view.query_us", median (ops "view.query" all_tags) /. 1e3);
    ("view.txn_us", median (ops "view.txn" all_tags) /. 1e3);
    ("wal.txn_self_us", median (ops "wal.txn#self" [ 0 ]) /. 1e3);
    ("wal.checkpoint_ms", median (ops "wal.txn#self" [ Workloads.tag_checkpoint ]) /. 1e6);
    ("wal.recover_scan_s", step "wal.recover_scan");
    ("wal.recover_replay_s", step "wal.recover_replay#self");
    ("fleet.build_s", step "fleet.build");
    ("fleet.txn_us", median (ops "fleet.txn" all_tags) /. 1e3);
    ("fleet.refresh_query_us", median (ops "fleet.query" [ Workloads.tag_refresh ]) /. 1e3);
    ("fleet.plain_query_us", median (ops "fleet.query" [ 0 ]) /. 1e3);
    ("fleet.migrate_query_us", mean (ops "fleet.query" [ Workloads.tag_migrate ]) /. 1e3);
    ("bench.trace_overhead_frac", if untraced_busy > 0. then (traced_busy /. untraced_busy) -. 1. else 0.);
    ("bench.reconcile_err_frac", frac (busy -. program_self));
    ("bench.traced_busy_s", busy /. 1e9);
  ]
  @ List.map
      (fun layer -> (layer ^ ".self_frac", frac (self_of layer)))
      (program_layers @ [ "bench" ])

let result rounds =
  let untraced = List.filter (fun r -> not r.traced) rounds in
  let traced = List.filter (fun r -> r.traced) rounds in
  let first = List.hd rounds in
  let count name = Option.value ~default:0. (List.assoc_opt name first.counts) in
  let cal = wall_metrics ~cal:true untraced and raw = wall_metrics ~cal:false untraced in
  let kernel_ns = sum (List.map (fun r -> float_of_int r.meas.Meas.kernel_ns) rounds) in
  let wall_ns = sum (List.map (fun r -> float_of_int r.wall_ns) rounds) in
  let values =
    cal
    @ List.map (fun (n, v) -> ("raw." ^ n, v)) raw
    @ span_metrics traced untraced
    @ [
        ("bench.machine_factor", mean (List.map (fun r -> Meas.machine_factor r.meas) untraced));
        ("bench.kernel_frac", kernel_ns /. wall_ns);
      ]
  in
  let value name =
    match List.assoc_opt name values with Some v -> v | None -> count name
  in
  let metrics units = List.map (fun (name, unit) -> { name; unit; value = value name }) units in
  let attempted = List.fold_left (fun acc r -> acc + r.meas.Meas.attempted) 0 rounds in
  let failed = List.fold_left (fun acc r -> acc + r.meas.Meas.failed) 0 rounds in
  {
    rounds;
    end_to_end = metrics end_to_end_units;
    per_layer = metrics per_layer_units;
    attempted;
    failed;
  }

let measure cfg = result (run cfg)

(* ---- output ---- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted
    failed body

let write_spans path (res : result) =
  let oc = open_out path in
  output_string oc "{\"rounds\": [\n";
  let traced = List.filter (fun r -> r.traced) res.rounds in
  List.iteri
    (fun i r ->
      Option.iter (fun sp -> Spans.write_json sp oc) r.meas.Meas.spans;
      if i < List.length traced - 1 then output_string oc ",\n")
    traced;
  output_string oc "]}\n";
  close_out oc
