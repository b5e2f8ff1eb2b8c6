(* The benchmark harness: regenerates every table and figure of Hanson's
   "A Performance Analysis of View Materialization Strategies" (SIGMOD 1987),
   both from the analytic cost model (exact reproduction of the formulas) and
   by measured simulation on the storage engine, plus Bechamel
   microbenchmarks of the core data structures.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- figure-1 ... -- selected sections
     dune exec bench/main.exe -- --scale 0.2  -- larger measured runs
     dune exec bench/main.exe -- --json adaptive figure-1-measured
                                              -- also write BENCH_*.json
     dune exec bench/main.exe -- --jobs 4 figure-1-measured
                                              -- sweep points on 4 domains
                                                 (output byte-identical to --jobs 1)
     dune exec bench/main.exe -- --durability wal figure-1-measured
                                              -- measured sections under the WAL
                                                 engine (wal cost column only)
     dune exec bench/main.exe -- durability   -- WAL overhead + observer-effect
                                                 check (BENCH_durability.json)
     dune exec bench/main.exe -- --wall --readers 4 --json serving
                                              -- wall-clock serving benchmark:
                                                 TPS + p50/p95/p99 latency per
                                                 strategy (BENCH_serving.json)

   See DESIGN.md section 3 for the experiment index and EXPERIMENTS.md for
   the recorded paper-vs-measured comparison. *)

open Core

let default_scale = 1.0

let scale = ref default_scale

let json_enabled = ref false

(* Number of domains for the measured sweeps (--jobs N; 0 = all cores).
   Every sweep point builds its own Ctx.t, so points are embarrassingly
   parallel and the output is byte-identical for any jobs value. *)
let jobs = ref 1

(* --durability wal runs every measured section under the write-ahead-
   logging engine (DESIGN section 9).  The log device is in-memory, so the
   sweeps stay domain-parallel safe; the only cost difference is the wal
   category. *)
let durability = ref "none"

(* --wall arms the serving section's wall-clock measurements (real TPS and
   latency quantiles from N reader domains, DESIGN section 10).  Off by
   default: wall numbers are machine-dependent, and every other section
   must stay byte-identical run to run. *)
let wall = ref false

(* Reader domains for the serving section (--readers N). *)
let readers = ref 2

let durability_wrap () : Experiment.wrap option =
  match !durability with
  | "none" -> None
  | "wal" ->
      Some
        (fun ~ctx ~initial strategy ->
          Durable.strategy (Durable.wrap ~ctx ~dev:(Device.memory ()) ~initial strategy))
  | other ->
      Printf.eprintf "unknown durability mode %s (expected wal or none)\n" other;
      exit 2

(* ------------------------------------------------------------------ *)
(* JSON: Json_text's builders                                          *)
(* ------------------------------------------------------------------ *)

module J = Json_text

(* The one number format of its own: BENCH_*.json numbers are written at 6
   significant digits, where [Json_text.num] writes 12. *)
let j_num f = if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f else Printf.sprintf "%.6g" f

let write_json path json =
  let oc = open_out path in
  output_string oc json;
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

let json_of_measurement (m : Runner.measurement) =
  J.obj
    [
      ("strategy", J.str m.Runner.strategy_name);
      ("transactions", J.int m.Runner.transactions);
      ("queries", J.int m.Runner.queries);
      ("cost_per_query", j_num m.Runner.cost_per_query);
      ("physical_reads", J.int m.Runner.physical_reads);
      ("physical_writes", J.int m.Runner.physical_writes);
      ("buffer_pool_hits", J.int m.Runner.buffer_pool_hits);
      ("buffer_pool_misses", J.int m.Runner.buffer_pool_misses);
      ( "category_costs",
        J.obj
          (List.filter_map
             (fun (cat, cost) ->
               if cost > 0. then Some (Cost_meter.category_name cat, j_num cost) else None)
             m.Runner.category_costs) );
    ]

(* When --json is on, measured sections run under a live recorder whose
   metric registry is embedded in the BENCH_*.json they write (the
   ["metrics"] field, in Metrics.to_json shape).  Without --json there is no
   recorder, and either way the measured numbers are identical (the recorder
   never touches the meter). *)
let bench_recorder () =
  if not !json_enabled then (None, None)
  else
    let metrics = Metrics.create () in
    (Some metrics, Some (Recorder.create ~metrics ()))

let metrics_field metrics =
  match metrics with None -> [] | Some m -> [ ("metrics", Metrics.to_json m) ]

let section title =
  let rule = String.make 78 '=' in
  Printf.printf "\n%s\n%s\n%s\n" rule title rule

let print_table ~headers rows = print_endline (Table.render ~headers rows)

let p_grid = [ 0.05; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.95 ]

let measured_p_grid = [ 0.1; 0.3; 0.5; 0.7; 0.9 ]

let scaled_params prob =
  Params.with_update_probability (Experiment.scale Params.defaults !scale) prob

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let table_defaults () =
  section "Table (3.1): parameters and defaults";
  print_table ~headers:[ "parameter"; "value" ]
    (List.map (fun (k, v) -> [ k; v ]) (Params.rows Params.defaults))

let table_access_methods () =
  section "Table (3.1): access methods";
  print_table ~headers:[ "relation"; "access method" ]
    [
      [ "R, R1"; "clustered B+-tree on the view predicate column" ];
      [ "R2"; "clustered hashing on the join column (a key)" ];
      [ "materialized view V"; "clustered B+-tree on the view predicate column" ];
      [ "differential file AD"; "clustered hashing on the relation key + Bloom filter" ];
    ]

(* ------------------------------------------------------------------ *)
(* Figure 1: Model 1, cost vs P                                        *)
(* ------------------------------------------------------------------ *)

let figure_1 () =
  section "Figure 1: Model 1 -- average cost per query vs P (defaults)";
  let series =
    [
      ("deferred", 'D', Model1.total_deferred);
      ("immediate", 'I', Model1.total_immediate);
      ("clustered", 'C', Model1.total_clustered);
      ("unclustered", 'U', Model1.total_unclustered);
    ]
  in
  let rows =
    List.map
      (fun prob ->
        let p = Params.with_update_probability Params.defaults prob in
        Table.float_cell ~decimals:2 prob
        :: List.map (fun (_, _, total) -> Table.float_cell ~decimals:1 (total p)) series)
      p_grid
  in
  print_table ~headers:([ "P" ] @ List.map (fun (n, _, _) -> n) series) rows;
  (* unclustered is an order of magnitude above the rest; omit it from the
     plot so the crossover between the other three is visible *)
  let chart_series names =
    List.filter_map
      (fun (name, marker, total) ->
        if List.mem name names then
          Some
            ( name,
              marker,
              List.map
                (fun prob ->
                  (prob, total (Params.with_update_probability Params.defaults prob)))
                p_grid )
        else None)
      series
  in
  print_endline
    (Ascii_plot.line_chart ~title:"Figure 1 (sequential off-scale, unclustered omitted)"
       ~x_label:"P" ~y_label:"ms/query"
       ~series:(chart_series [ "deferred"; "immediate"; "clustered" ])
       ());
  Printf.printf "analytic crossover: immediate/clustered at P = %s\n"
    (match
       Regions.crossover ~lo:0.05 ~hi:0.9 (fun prob ->
           let p = Params.with_update_probability Params.defaults prob in
           Model1.total_immediate p -. Model1.total_clustered p)
     with
    | Some x -> Printf.sprintf "%.3f" x
    | None -> "none")

let figure_1_measured () =
  section
    (Printf.sprintf "Figure 1 (measured): simulated engine at N = %.0f"
       (Experiment.scale Params.defaults !scale).Params.n_tuples);
  let headers = [ "P"; "deferred"; "immediate"; "clustered"; "unclustered"; "winner" ] in
  (* One recorder (and metric registry) per sweep point: every point is an
     isolated engine, so the points can run on separate domains and the
     output is byte-identical for any --jobs value. *)
  let measured =
    Parallel.map_points ~jobs:!jobs
      (fun prob ->
        let p = scaled_params prob in
        let metrics, recorder = bench_recorder () in
        ( prob,
          Experiment.measure_model1 ?recorder ?wrap:(durability_wrap ()) p
            [ `Deferred; `Immediate; `Clustered; `Unclustered ],
          metrics ))
      measured_p_grid
  in
  let rows =
    List.map
      (fun (prob, results, _) ->
        let cost name = (List.assoc name results).Runner.cost_per_query in
        let winner =
          fst
            (List.fold_left
               (fun (bn, bc) (n, m) ->
                 if m.Runner.cost_per_query < bc then (n, m.Runner.cost_per_query)
                 else (bn, bc))
               ("-", Float.infinity) results)
        in
        [
          Table.float_cell ~decimals:2 prob;
          Table.float_cell ~decimals:1 (cost "deferred");
          Table.float_cell ~decimals:1 (cost "immediate");
          Table.float_cell ~decimals:1 (cost "qmod-clustered");
          Table.float_cell ~decimals:1 (cost "qmod-unclustered");
          winner;
        ])
      measured
  in
  print_table ~headers rows;
  if !json_enabled then
    write_json "BENCH_figures.json"
      (J.obj
         ([
           ("figure", J.str "figure-1-measured");
           ("n_tuples", j_num (Experiment.scale Params.defaults !scale).Params.n_tuples);
           ( "points",
             J.arr
               (List.map
                  (fun (prob, results, metrics) ->
                    J.obj
                      ([
                         ("P", j_num prob);
                         ( "strategies",
                           J.arr (List.map (fun (_, m) -> json_of_measurement m) results) );
                       ]
                      @ metrics_field metrics))
                  measured) );
          ]))

(* ------------------------------------------------------------------ *)
(* Figures 2, 3, 4, 6, 7: region maps                                  *)
(* ------------------------------------------------------------------ *)

let strategy_letter = function
  | "deferred" -> 'D'
  | "immediate" -> 'I'
  | "clustered" | "loopjoin" -> 'Q'
  | "unclustered" -> 'U'
  | "sequential" -> 'S'
  | "recompute" -> 'R'
  | _ -> '?'

let region_figure ~title ~base ~best () =
  print_endline
    (Ascii_plot.region_map ~title ~x_label:"P" ~y_label:"f" ~x_range:(0.02, 0.98)
       ~y_range:(0.02, 1.0)
       ~legend:[ ('D', "deferred"); ('I', "immediate"); ('Q', "query modification") ]
       ~classify:(fun p f -> strategy_letter (Regions.classify ~best ~base ~p ~f))
       ());
  (* region shares over a finer grid *)
  let counts = Hashtbl.create 8 in
  let samples = 40 in
  for i = 0 to samples - 1 do
    for j = 0 to samples - 1 do
      let p = 0.02 +. (0.96 *. float_of_int i /. float_of_int (samples - 1)) in
      let f = 0.02 +. (0.98 *. float_of_int j /. float_of_int (samples - 1)) in
      let w = Regions.classify ~best ~base ~p ~f in
      Hashtbl.replace counts w (1 + Option.value ~default:0 (Hashtbl.find_opt counts w))
    done
  done;
  let total = float_of_int (samples * samples) in
  print_table ~headers:[ "strategy"; "share of (P, f) grid" ]
    (List.sort compare
       (Hashtbl.fold
          (fun w c acc ->
            [ w; Printf.sprintf "%.1f%%" (100. *. float_of_int c /. total) ] :: acc)
          counts []))

let figure_2 () =
  section "Figure 2: Model 1 -- best strategy over f vs P (fv = .1)";
  region_figure ~title:"Figure 2" ~base:Params.defaults ~best:Regions.best_model1 ()

let figure_3 () =
  section "Figure 3: Model 1 -- best strategy over f vs P (fv = .01)";
  region_figure ~title:"Figure 3" ~base:{ Params.defaults with Params.fv = 0.01 }
    ~best:Regions.best_model1 ()

let figure_4 () =
  section "Figure 4: Model 1 -- best strategy over f vs P (C3 = 2, fv = .1)";
  region_figure ~title:"Figure 4" ~base:{ Params.defaults with Params.c3 = 2. }
    ~best:Regions.best_model1 ();
  (* the sensitivity claim: deferred's advantage over immediate grows with C3 *)
  let cells c3 =
    let base = { Params.defaults with Params.c3 } in
    List.fold_left
      (fun acc prob ->
        List.fold_left
          (fun acc f ->
            let p = Params.with_update_probability { base with Params.f } prob in
            if Model1.total_deferred p < Model1.total_immediate p then acc + 1 else acc)
          acc
          [ 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ])
      0
      [ 0.1; 0.3; 0.5; 0.7; 0.9; 0.95 ]
  in
  Printf.printf "grid cells where deferred beats immediate: C3=1: %d, C3=2: %d, C3=4: %d\n"
    (cells 1.) (cells 2.) (cells 4.)

(* ------------------------------------------------------------------ *)
(* Figure 5: Model 2, cost vs P                                        *)
(* ------------------------------------------------------------------ *)

let figure_5 () =
  section "Figure 5: Model 2 -- average cost per query vs P (defaults)";
  let series =
    [
      ("deferred", 'D', Model2.total_deferred);
      ("immediate", 'I', Model2.total_immediate);
      ("loopjoin", 'Q', Model2.total_loopjoin);
    ]
  in
  let rows =
    List.map
      (fun prob ->
        let p = Params.with_update_probability Params.defaults prob in
        Table.float_cell ~decimals:2 prob
        :: List.map (fun (_, _, total) -> Table.float_cell ~decimals:1 (total p)) series)
      p_grid
  in
  print_table ~headers:([ "P" ] @ List.map (fun (n, _, _) -> n) series) rows;
  print_endline
    (Ascii_plot.line_chart ~title:"Figure 5" ~x_label:"P" ~y_label:"ms/query"
       ~series:
         (List.map
            (fun (name, marker, total) ->
              ( name,
                marker,
                List.map
                  (fun prob ->
                    (prob, total (Params.with_update_probability Params.defaults prob)))
                  p_grid ))
            series)
       ());
  Printf.printf "analytic crossover: immediate/loopjoin at P = %s\n"
    (match
       Regions.crossover ~lo:0.05 ~hi:0.999 (fun prob ->
           let p = Params.with_update_probability Params.defaults prob in
           Model2.total_immediate p -. Model2.total_loopjoin p)
     with
    | Some x -> Printf.sprintf "%.3f" x
    | None -> "none (materialization wins for all P below .999)")

let figure_5_measured () =
  section
    (Printf.sprintf "Figure 5 (measured): simulated engine at N = %.0f"
       (Experiment.scale Params.defaults !scale).Params.n_tuples);
  let rows =
    Parallel.map_points ~jobs:!jobs
      (fun prob ->
        let p = scaled_params prob in
        let results =
          Experiment.measure_model2 ?wrap:(durability_wrap ()) p
            [ `Deferred; `Immediate; `Loopjoin ]
        in
        let cost name = (List.assoc name results).Runner.cost_per_query in
        [
          Table.float_cell ~decimals:2 prob;
          Table.float_cell ~decimals:1 (cost "deferred");
          Table.float_cell ~decimals:1 (cost "immediate");
          Table.float_cell ~decimals:1 (cost "qmod-loopjoin");
        ])
      measured_p_grid
  in
  print_table ~headers:[ "P"; "deferred"; "immediate"; "loopjoin" ] rows

let figure_6 () =
  section "Figure 6: Model 2 -- best strategy over f vs P (fv = .1)";
  region_figure ~title:"Figure 6" ~base:Params.defaults ~best:Regions.best_model2 ()

let figure_7 () =
  section "Figure 7: Model 2 -- best strategy over f vs P (fv = .01)";
  region_figure ~title:"Figure 7" ~base:{ Params.defaults with Params.fv = 0.01 }
    ~best:Regions.best_model2 ()

(* ------------------------------------------------------------------ *)
(* Figure 8: Model 3, cost vs l                                        *)
(* ------------------------------------------------------------------ *)

let l_grid = [ 1.; 2.; 5.; 10.; 25.; 50.; 100.; 200.; 400. ]

let figure_8 () =
  section "Figure 8: Model 3 -- aggregate query cost vs l (defaults)";
  let series =
    [
      ("deferred", 'D', Model3.total_deferred);
      ("immediate", 'I', Model3.total_immediate);
      ("clustered scan", 'C', Model3.total_recompute);
    ]
  in
  let rows =
    List.map
      (fun l ->
        let p = { Params.defaults with Params.l_per_txn = l } in
        Table.float_cell ~decimals:0 l
        :: List.map (fun (_, _, total) -> Table.float_cell ~decimals:1 (total p)) series)
      l_grid
  in
  print_table ~headers:([ "l" ] @ List.map (fun (n, _, _) -> n) series) rows;
  print_endline
    (Ascii_plot.line_chart
       ~title:"Figure 8 (maintenance only; clustered scan = 17500 off-scale)" ~x_label:"l"
       ~y_label:"ms/query"
       ~series:
         (List.filter_map
            (fun (name, marker, total) ->
              if name = "clustered scan" then None
              else
                Some
                  ( name,
                    marker,
                    List.map
                      (fun l -> (l, total { Params.defaults with Params.l_per_txn = l }))
                      l_grid ))
            series)
       ())

let figure_8_measured () =
  section
    (Printf.sprintf "Figure 8 (measured): simulated engine at N = %.0f"
       (Experiment.scale Params.defaults !scale).Params.n_tuples);
  let rows =
    Parallel.map_points ~jobs:!jobs
      (fun l ->
        let p = { (Experiment.scale Params.defaults !scale) with Params.l_per_txn = l } in
        let results =
          Experiment.measure_model3 ?wrap:(durability_wrap ()) p
            [ `Deferred; `Immediate; `Recompute ]
        in
        let cost name = (List.assoc name results).Runner.cost_per_query in
        [
          Table.float_cell ~decimals:0 l;
          Table.float_cell ~decimals:1 (cost "deferred");
          Table.float_cell ~decimals:1 (cost "immediate");
          Table.float_cell ~decimals:1 (cost "recompute");
        ])
      [ 5.; 25.; 100. ]
  in
  print_table ~headers:[ "l"; "deferred"; "immediate"; "recompute" ] rows

(* ------------------------------------------------------------------ *)
(* Figure 9: Model 3, equal-cost curves                                *)
(* ------------------------------------------------------------------ *)

let figure_9 () =
  section "Figure 9: Model 3 -- equal-cost P vs l for immediate vs clustered scan";
  let fs = [ (0.001, '1'); (0.01, '2'); (0.1, '3'); (1.0, '4') ] in
  let ls = [ 1.; 2.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000. ] in
  let rows =
    List.map
      (fun l ->
        Table.float_cell ~decimals:0 l
        :: List.map
             (fun (f, _) ->
               Table.float_cell ~decimals:4
                 (Regions.fig9_equal_cost_p { Params.defaults with Params.f } ~l))
             fs)
      ls
  in
  print_table
    ~headers:([ "l" ] @ List.map (fun (f, _) -> Printf.sprintf "P* (f=%g)" f) fs)
    rows;
  print_endline
    (Ascii_plot.line_chart
       ~title:"Figure 9: standard processing best above each curve, immediate below"
       ~x_label:"l" ~y_label:"P*"
       ~series:
         (List.map
            (fun (f, marker) ->
              ( Printf.sprintf "f=%g" f,
                marker,
                List.map
                  (fun l ->
                    (l, Regions.fig9_equal_cost_p { Params.defaults with Params.f } ~l))
                  ls ))
            fs)
       ())

(* ------------------------------------------------------------------ *)
(* EMP-DEPT special case (3.5) and Yao table (Appendix B)              *)
(* ------------------------------------------------------------------ *)

let emp_dept () =
  section "EMP-DEPT (3.5): big join view, one-tuple queries (f=1, l=1, fv=1/fN)";
  let base = Regions.emp_dept_params Params.defaults in
  let rows =
    List.map
      (fun prob ->
        let p = Params.with_update_probability base prob in
        [
          Table.float_cell ~decimals:2 prob;
          Table.float_cell ~decimals:1 (Model2.total_deferred p);
          Table.float_cell ~decimals:1 (Model2.total_immediate p);
          Table.float_cell ~decimals:1 (Model2.total_loopjoin p);
          fst (Regions.best_model2 p);
        ])
      [ 0.02; 0.05; 0.08; 0.1; 0.2; 0.5; 0.9 ]
  in
  print_table ~headers:[ "P"; "deferred"; "immediate"; "loopjoin"; "best" ] rows;
  match Regions.emp_dept_crossover Params.defaults with
  | Some x ->
      Printf.printf "query modification wins for all P >= %.3f (paper reports ~.08)\n" x
  | None -> print_endline "no crossover found"

let yao_table () =
  section "Appendix B: Yao function -- exact vs Cardenas approximation";
  let n = 10_000. and m = 500. in
  let rows =
    List.map
      (fun k ->
        let e = Yao.exact ~n ~m ~k and c = Yao.cardenas ~n ~m ~k in
        [
          Table.float_cell ~decimals:0 k;
          Table.float_cell ~decimals:3 e;
          Table.float_cell ~decimals:3 c;
          Printf.sprintf "%.2f%%" (100. *. Stats.relative_error ~expected:e ~actual:c);
        ])
      [ 1.; 5.; 10.; 50.; 100.; 500.; 1000.; 5000. ]
  in
  Printf.printf "n = %.0f records, m = %.0f blocks (blocking factor %.0f)\n" n m (n /. m);
  print_table ~headers:[ "k"; "exact y(n,m,k)"; "Cardenas"; "error" ] rows;
  (* triangle inequality spot check (the paper's section-4 argument) *)
  let y k = Yao.eval ~n ~m ~k in
  Printf.printf "triangle: y(1000) = %.1f <= y(600) + y(400) = %.1f\n" (y 1000.)
    (y 600. +. y 400.)

(* ------------------------------------------------------------------ *)
(* Ablations (section-4 extensions)                                    *)
(* ------------------------------------------------------------------ *)

let small_geometry = { Strategy.page_bytes = 400; index_entry_bytes = 20 }

let ablation_workload ?(seed = 77) ~n ~f ~k ~l ~q () =
  let rng = Rng.create seed in
  let tids = Tuple.source () in
  let dataset = Dataset.make_model1 ~rng ~tids ~n ~f ~s_bytes:100 in
  let tuples = Array.of_list dataset.Dataset.m1_tuples in
  let ops =
    Stream.generate ~rng ~tuples
      ~mutate:
        (Stream.mutate_column ~tids ~col:2 (fun rng ->
             Value.Float (float_of_int (Rng.int rng 100))))
      ~k ~l ~q
      ~query_of:(Stream.range_query_of ~lo_max:(0.8 *. f) ~width:(0.2 *. f))
  in
  (dataset, ops, Tuple.peek tids)

let run_sp_strategy ~first_tid dataset ops ctor =
  let ctx = Ctx.create ~geometry:small_geometry ~first_tid () in
  let env =
    {
      Strategy_sp.ctx;
      view = dataset.Dataset.m1_view;
      initial = dataset.Dataset.m1_tuples;
      ad_buckets = 4;
    }
  in
  Runner.run ~ctx ~strategy:(ctor env) ~ops ()

let ablation_refresh_interval () =
  section "Ablation: refresh frequency (the Yao triangle inequality, section 4)";
  print_endline "Analytic: Model-1 deferred total vs refreshes per query interval";
  print_table ~headers:[ "refreshes/query"; "total ms/query" ]
    (List.map
       (fun m ->
         [
           Table.float_cell ~decimals:0 m;
           Table.float_cell ~decimals:1
             (Extensions.deferred_refresh_rate Params.defaults ~refreshes_per_query:m);
         ])
       [ 1.; 2.; 5.; 10.; 25. ]);
  print_endline "Measured: refresh-category cost per query (simulated engine)";
  let dataset, ops, first_tid = ablation_workload ~n:2000 ~f:0.3 ~k:100 ~l:8 ~q:20 () in
  print_table ~headers:[ "policy"; "refresh ms/query"; "total ms/query" ]
    (Parallel.map_points ~jobs:!jobs
       (fun (name, ctor) ->
         let m = run_sp_strategy ~first_tid dataset ops ctor in
         [
           name;
           Table.float_cell ~decimals:1
             (List.assoc Cost_meter.Refresh m.Runner.category_costs
             /. float_of_int m.Runner.queries);
           Table.float_cell ~decimals:1 m.Runner.cost_per_query;
         ])
       [
         ("on demand (deferred)", Strategy_sp.deferred);
         ("every 5 txns", Strategy_sp.deferred_periodic ~every:5);
         ("every 2 txns", Strategy_sp.deferred_periodic ~every:2);
         ("every txn", Strategy_sp.deferred_periodic ~every:1);
         ("immediate", Strategy_sp.immediate);
         ("asynchronous (idle-time refresh)", Strategy_sp.deferred_async);
         ("snapshot every 10 txns (stale!)", Strategy_sp.snapshot ~period:10);
       ])

let ablation_split_ad () =
  section "Ablation: combined AD file vs separate A and D files (section 2.2.2)";
  Printf.printf
    "analytic: combined %.1f vs split %.1f ms/query (difference = 2 x C_AD = %.1f)\n"
    (Model1.total_deferred Params.defaults)
    (Extensions.deferred_split_ad Params.defaults)
    (2. *. Model1.c_ad Params.defaults);
  let dataset, ops, first_tid = ablation_workload ~n:2000 ~f:0.3 ~k:100 ~l:8 ~q:20 () in
  print_table ~headers:[ "layout"; "physical I/Os"; "hr ms"; "total ms/query" ]
    (Parallel.map_points ~jobs:!jobs
       (fun (name, ctor) ->
         let m = run_sp_strategy ~first_tid dataset ops ctor in
         [
           name;
           string_of_int (m.Runner.physical_reads + m.Runner.physical_writes);
           Table.float_cell ~decimals:0 (List.assoc Cost_meter.Hr m.Runner.category_costs);
           Table.float_cell ~decimals:1 m.Runner.cost_per_query;
         ])
       [
         ("combined AD (3 I/Os per update)", Strategy_sp.deferred);
         ("split A and D (5 I/Os per update)", Strategy_sp.deferred_split_ad);
       ])

let ablation_multidisk () =
  section "Ablation: hypothetical relations on separate disks (section 3.3)";
  print_table
    ~headers:[ "HR I/O overlap"; "deferred ms/query"; "deferred/immediate crossover P" ]
    (List.map
       (fun overlap ->
         let crossover =
           match Extensions.multidisk_crossover_p Params.defaults ~overlap with
           | Some x -> Printf.sprintf "%.3f" x
           | None -> "none"
         in
         [
           Table.float_cell ~decimals:2 overlap;
           Table.float_cell ~decimals:1
             (Extensions.deferred_multidisk Params.defaults ~overlap);
           crossover;
         ])
       [ 0.; 0.25; 0.5; 0.75; 1. ])

let ablation_multiview () =
  section "Ablation: n views sharing one hypothetical relation (section 4)";
  let rng = Rng.create 88 in
  let gen_tids = Tuple.source () in
  let dataset = Dataset.make_model1 ~rng ~tids:gen_tids ~n:2000 ~f:0.9 ~s_bytes:100 in
  let base = dataset.Dataset.m1_schema in
  let views =
    List.map
      (fun (name, lo, hi) ->
        View_def.make_sp ~name ~base
          ~pred:(Predicate.Between (1, Value.Float lo, Value.Float hi))
          ~project:[ "pval"; "amount" ] ~cluster:"pval")
      [ ("v-low", 0., 0.3); ("v-mid", 0.3, 0.6); ("v-high", 0.6, 0.9) ]
  in
  let tuples = Array.of_list dataset.Dataset.m1_tuples in
  let ops =
    Stream.generate ~rng ~tuples
      ~mutate:
        (Stream.mutate_column ~tids:gen_tids ~col:2 (fun rng ->
             Value.Float (float_of_int (Rng.int rng 100))))
      ~k:100 ~l:8 ~q:20
      ~query_of:(Stream.range_query_of ~lo_max:0.8 ~width:0.1)
  in
  let first_tid = Tuple.peek gen_tids in
  (* shared: one fleet, every view kept materialized *)
  let ctx = Ctx.create ~geometry:small_geometry ~first_tid () in
  let meter = Ctx.meter ctx in
  let fleet =
    Fleet.create ~ctx ~base ~views ~initial:dataset.Dataset.m1_tuples ~ad_buckets:4
      ~advisor:None ()
  in
  Cost_meter.reset meter;
  List.iter
    (fun op ->
      match op with
      | Stream.Txn changes -> Fleet.handle_transaction fleet changes
      | Stream.Query q ->
          List.iter
            (fun (v : View_def.sp) -> ignore (Fleet.answer_query fleet ~view:v.sp_name q))
            views)
    ops;
  let shared = Cost_meter.cost meter Cost_meter.Refresh +. Cost_meter.cost meter Cost_meter.Hr in
  (* separate deferred instances *)
  let separate =
    List.fold_left
      (fun acc v ->
        let ctx = Ctx.create ~geometry:small_geometry ~first_tid () in
        let meter = Ctx.meter ctx in
        let s =
          Strategy_sp.deferred
            {
              Strategy_sp.ctx;
              view = v;
              initial = dataset.Dataset.m1_tuples;
              ad_buckets = 4;
            }
        in
        Cost_meter.reset meter;
        List.iter
          (fun op ->
            match op with
            | Stream.Txn changes -> s.Strategy.handle_transaction changes
            | Stream.Query q -> ignore (s.Strategy.answer_query q))
          ops;
        acc +. Cost_meter.cost meter Cost_meter.Refresh +. Cost_meter.cost meter Cost_meter.Hr)
      0. views
  in
  print_table ~headers:[ "organization"; "HR + refresh cost (ms, whole run)" ]
    [
      [ "3 views, shared hypothetical relation"; Table.float_cell ~decimals:0 shared ];
      [ "3 separate deferred instances"; Table.float_cell ~decimals:0 separate ];
    ];
  Printf.printf "sharing saves %.0f%% of maintenance I/O on this workload\n"
    (100. *. (separate -. shared) /. separate)

let ablation_planner () =
  section "Ablation: optimizer choice of access path (section 3.3)";
  let rng = Rng.create 99 in
  let gen_tids = Tuple.source () in
  let dataset = Dataset.make_model1 ~rng ~tids:gen_tids ~n:2000 ~f:0.5 ~s_bytes:100 in
  let first_tid = Tuple.peek gen_tids in
  let measure route column lo hi =
    let ctx = Ctx.create ~geometry:small_geometry ~first_tid () in
    let meter = Ctx.meter ctx in
    let planner =
      Planner.create ~ctx ~view:dataset.Dataset.m1_view ~base_cluster:"amount"
        ~initial:dataset.Dataset.m1_tuples ()
    in
    Cost_meter.reset meter;
    ignore (Planner.answer_via planner route ~column ~lo ~hi);
    Cost_meter.total_cost meter
  in
  print_table
    ~headers:[ "query"; "via base (ms)"; "via view (ms)"; "planner picks" ]
    (List.map
       (fun (label, column, lo, hi) ->
         let base_cost = measure Planner.Via_base column lo hi in
         let view_cost = measure Planner.Via_view column lo hi in
         let ctx = Ctx.create ~geometry:small_geometry ~first_tid () in
         let planner =
           Planner.create ~ctx ~view:dataset.Dataset.m1_view ~base_cluster:"amount"
             ~initial:dataset.Dataset.m1_tuples ()
         in
         let route =
           match Planner.plan planner ~column ~lo ~hi with
           | Planner.Via_base -> "base"
           | Planner.Via_view -> "view"
         in
         [
           label;
           Table.float_cell ~decimals:0 base_cost;
           Table.float_cell ~decimals:0 view_cost;
           route;
         ])
       [
         ("pval in [.2, .25] (view cluster)", "pval", Value.Float 0.2, Value.Float 0.25);
         ("amount in [100, 150] (base cluster)", "amount", Value.Float 100., Value.Float 150.);
       ])

(* ------------------------------------------------------------------ *)
(* Adaptive maintenance on a phase-shifting workload                   *)
(* ------------------------------------------------------------------ *)

let adaptive_bench () =
  section "Adaptive: phase-shifting workload (update-heavy -> query-heavy)";
  (* A region-boundary-crossing workload: phase 1 is update-heavy (query
     modification's region), phase 2 query-heavy (materialization's region).
     The adaptive strategy starts on query modification and must notice the
     shift, pay one migration and track the per-phase winner.  Sized at
     N = 5000 so the cost gap clears the controller's hysteresis margin. *)
  let p =
    {
      (Experiment.scale Params.defaults (Float.min 1. (0.05 *. !scale))) with
      Params.f = 0.5;
      fv = 0.5;
    }
  in
  let l = 8 in
  let phase_specs = [ (120, l, 12); (12, l, 240) ] in
  let phases =
    List.map
      (fun (k, l, q) -> { Experiment.sp_k = k; sp_l = l; sp_q = q; sp_fv = p.Params.fv })
      phase_specs
  in
  let metrics, recorder = bench_recorder () in
  let results =
    Experiment.measure_phased ?recorder p ~phases
      ~adaptive_initial:Migrate.Qmod_clustered
      [ `Clustered; `Deferred; `Immediate; `Adaptive ]
  in
  print_table
    ~headers:[ "strategy"; "phase1 ms/q"; "phase2 ms/q"; "overall ms/q" ]
    (List.map
       (fun r ->
         r.Experiment.ph_name
         :: (List.map
               (fun m -> Table.float_cell ~decimals:1 m.Runner.cost_per_query)
               r.Experiment.ph_per_phase
            @ [ Table.float_cell ~decimals:1 r.Experiment.ph_overall.Runner.cost_per_query ]))
       results);
  let adaptive = List.find (fun r -> r.Experiment.ph_adaptive <> None) results in
  let statics = List.filter (fun r -> r.Experiment.ph_adaptive = None) results in
  let phase_cost r i = (List.nth r.Experiment.ph_per_phase i).Runner.cost_per_query in
  let nphases = List.length phases in
  let per_phase_ok =
    List.init nphases (fun i ->
        let best =
          List.fold_left (fun acc r -> Float.min acc (phase_cost r i)) Float.infinity statics
        in
        let a = phase_cost adaptive i in
        let ok = a <= 1.1 *. best in
        Printf.printf "phase %d: adaptive %.1f vs best static %.1f (%+.1f%%) %s\n" (i + 1) a
          best
          (100. *. ((a /. best) -. 1.))
          (if ok then "[within 10%]" else "[MISSED 10%]");
        ok)
  in
  let worst_overall =
    List.fold_left
      (fun acc r -> Float.max acc r.Experiment.ph_overall.Runner.cost_per_query)
      0. statics
  in
  let adaptive_overall = adaptive.Experiment.ph_overall.Runner.cost_per_query in
  let overall_ok = adaptive_overall < worst_overall in
  Printf.printf "overall: adaptive %.1f vs worst static %.1f %s\n" adaptive_overall
    worst_overall
    (if overall_ok then "[strictly better]" else "[NOT better]");
  (match adaptive.Experiment.ph_adaptive with
  | None -> ()
  | Some a ->
      List.iter
        (fun m ->
          Printf.printf "migration after query %d: %s -> %s (measured %.0f ms)\n"
            m.Adaptive.at_query
            (Migrate.kind_name m.Adaptive.from_kind)
            (Migrate.kind_name m.Adaptive.to_kind)
            m.Adaptive.measured_cost)
        (Adaptive.migrations a));
  if !json_enabled then
    let adaptive_json =
      match adaptive.Experiment.ph_adaptive with
      | None -> []
      | Some a ->
          [
            ( "migrations",
              J.arr
                (List.map
                   (fun m ->
                     J.obj
                       [
                         ("at_query", J.int m.Adaptive.at_query);
                         ("from", J.str (Migrate.kind_name m.Adaptive.from_kind));
                         ("to", J.str (Migrate.kind_name m.Adaptive.to_kind));
                         ("measured_cost", j_num m.Adaptive.measured_cost);
                       ])
                   (Adaptive.migrations a)) );
            ("decisions", J.int (List.length (Adaptive.decision_log a)));
            ("switches", J.int (Controller.switches (Adaptive.controller a)));
          ]
    in
    write_json "BENCH_adaptive.json"
      (J.obj
         ([
            ( "workload",
              J.obj
                [
                  ("n_tuples", j_num p.Params.n_tuples);
                  ("f", j_num p.Params.f);
                  ("fv", j_num p.Params.fv);
                  ( "phases",
                    J.arr
                      (List.map
                         (fun (k, l, q) ->
                           J.obj [ ("k", J.int k); ("l", J.int l); ("q", J.int q) ])
                         phase_specs) );
                ] );
            ( "strategies",
              J.arr
                (List.map
                   (fun r ->
                     J.obj
                       [
                         ("strategy", J.str r.Experiment.ph_name);
                         ("overall", json_of_measurement r.Experiment.ph_overall);
                         ( "phases",
                           J.arr (List.map json_of_measurement r.Experiment.ph_per_phase) );
                       ])
                   results) );
            ( "acceptance",
              J.obj
                [
                  ("within_10pct_each_phase", J.bool (List.for_all Fun.id per_phase_ok));
                  ("better_than_worst_overall", J.bool overall_ok);
                ] );
          ]
         @ adaptive_json @ metrics_field metrics))

(* ------------------------------------------------------------------ *)
(* Durability: WAL + checkpoint overhead                               *)
(* ------------------------------------------------------------------ *)

let durability_bench () =
  section "Durability: WAL + checkpoint overhead (model 1, in-memory log device)";
  let group_commit = 4 and checkpoint_every = 32 in
  let config = Wal.config ~group_commit ~checkpoint_every () in
  let wrap : Experiment.wrap =
   fun ~ctx ~initial strategy ->
    Durable.strategy (Durable.wrap ~config ~ctx ~dev:(Device.memory ()) ~initial strategy)
  in
  let strategies = [ `Deferred; `Immediate; `Clustered ] in
  Printf.printf "group commit every %d txns, checkpoint every %d txns\n" group_commit
    checkpoint_every;
  (* Each point measures the same seeded workload twice — plain and under
     the durable engine — so the delta is exactly the wal category and the
     zero-observer-effect claim is checked on every row. *)
  let measured =
    Parallel.map_points ~jobs:!jobs
      (fun prob ->
        let p = scaled_params prob in
        let plain = Experiment.measure_model1 p strategies in
        let durable = Experiment.measure_model1 ~wrap p strategies in
        (prob, plain, durable))
      measured_p_grid
  in
  let wal_ms (m : Runner.measurement) =
    Option.value ~default:0. (List.assoc_opt Cost_meter.Wal m.Runner.category_costs)
  in
  let observer_free (a : Runner.measurement) (b : Runner.measurement) =
    a.Runner.physical_reads = b.Runner.physical_reads
    && a.Runner.physical_writes = b.Runner.physical_writes
    && List.for_all
         (fun (cat, cost) ->
           cat = Cost_meter.Wal
           || Float.abs (cost -. Option.value ~default:0. (List.assoc_opt cat b.Runner.category_costs)) < 1e-9)
         a.Runner.category_costs
  in
  let rows =
    List.concat_map
      (fun (prob, plain, durable) ->
        List.map
          (fun (name, (d : Runner.measurement)) ->
            let p0 = List.assoc name plain in
            [
              Table.float_cell ~decimals:2 prob;
              name;
              Table.float_cell ~decimals:1 p0.Runner.cost_per_query;
              Table.float_cell ~decimals:1 d.Runner.cost_per_query;
              Table.float_cell ~decimals:1 (wal_ms d /. float_of_int d.Runner.queries);
              Printf.sprintf "%.1f%%"
                (100. *. (d.Runner.cost_per_query /. p0.Runner.cost_per_query -. 1.));
              (if observer_free p0 d then "ok" else "DRIFT");
            ])
          durable)
      measured
  in
  print_table
    ~headers:
      [ "P"; "strategy"; "none ms/q"; "wal ms/q"; "wal-only ms/q"; "overhead"; "observer" ]
    rows;
  let drift =
    List.exists (fun row -> match List.rev row with last :: _ -> last <> "ok" | [] -> false) rows
  in
  if drift then print_endline "WARNING: durability changed a non-wal cost category"
  else
    print_endline
      "durability cost is fully isolated to the wal category (no observer effect)";
  if !json_enabled then
    write_json "BENCH_durability.json"
      (J.obj
         [
           ("figure", J.str "durability");
           ("n_tuples", j_num (Experiment.scale Params.defaults !scale).Params.n_tuples);
           ("group_commit", J.int group_commit);
           ("checkpoint_every", J.int checkpoint_every);
           ( "points",
             J.arr
               (List.map
                  (fun (prob, plain, durable) ->
                    J.obj
                      [
                        ("P", j_num prob);
                        ( "strategies",
                          J.arr
                            (List.map
                               (fun (name, (d : Runner.measurement)) ->
                                 let p0 = List.assoc name plain in
                                 J.obj
                                   [
                                     ("strategy", J.str name);
                                     ("none", json_of_measurement p0);
                                     ("wal", json_of_measurement d);
                                     ( "wal_ms_per_query",
                                       j_num (wal_ms d /. float_of_int d.Runner.queries) );
                                     ("observer_effect_free", J.bool (observer_free p0 d));
                                   ])
                               durable) );
                      ])
                  measured) );
         ])

(* ------------------------------------------------------------------ *)
(* Serving: wall-clock TPS / latency (DESIGN section 10)               *)
(* ------------------------------------------------------------------ *)

let j_latency (l : Serve.latency) =
  J.obj
    [
      ("count", J.int l.Serve.l_count);
      ("mean", j_num l.Serve.l_mean_us);
      ("p50", j_num l.Serve.l_p50_us);
      ("p95", j_num l.Serve.l_p95_us);
      ("p99", j_num l.Serve.l_p99_us);
      ("max", j_num l.Serve.l_max_us);
    ]

let serving_bench () =
  section "Serving: MVCC snapshot readers + single-writer group commit (wall clock)";
  if not !wall then
    print_endline
      "skipped (pass --wall to measure; wall-clock numbers are machine-dependent, \
       so they only run when asked and never land in the deterministic sections)"
  else begin
    let prob = 0.5 in
    let p = scaled_params prob in
    let queries_per_reader = 200 and publish_every = 8 and group_commit = 8 in
    let config =
      {
        Serve.readers = !readers;
        queries_per_reader;
        publish_every;
        durability = Serve.Wal_group_commit (Wal.config ~group_commit ());
        record_observations = false;
        trace_sample = 0;
        sketch_capacity = 0;
        flight_capacity = 0;
        dash_every = 0;
      }
    in
    let strategies = [ `Deferred; `Immediate; `Clustered ] in
    Printf.printf "P=%.2f, N=%.0f, %d readers x %d queries, epoch every %d txns, group commit %d\n"
      prob p.Params.n_tuples !readers queries_per_reader publish_every group_commit;
    (* One classic (single-session, modeled-clock) measurement per strategy
       runs alongside the wall-clock serve: the modeled column below must
       match a --wall-less run exactly — serving never contaminates the
       modeled axis. *)
    let results =
      List.map
        (fun s ->
          let modeled = snd (List.hd (Experiment.measure_model1 p [ s ])) in
          let r = Serve.run ~config ~params:p ~strategy:s () in
          (r, modeled))
        strategies
    in
    let rows =
      List.map
        (fun ((r : Serve.report), (modeled : Runner.measurement)) ->
          [
            r.Serve.r_strategy;
            Table.float_cell ~decimals:1 modeled.Runner.cost_per_query;
            Table.float_cell ~decimals:0 r.Serve.r_tps;
            Table.float_cell ~decimals:0 r.Serve.r_qps;
            Table.float_cell ~decimals:1 r.Serve.r_query_latency.Serve.l_p50_us;
            Table.float_cell ~decimals:1 r.Serve.r_query_latency.Serve.l_p95_us;
            Table.float_cell ~decimals:1 r.Serve.r_query_latency.Serve.l_p99_us;
            Table.float_cell ~decimals:1 r.Serve.r_txn_latency.Serve.l_p99_us;
            J.int r.Serve.r_epochs;
            J.int r.Serve.r_reclaimed;
            Table.float_cell ~decimals:0 r.Serve.r_writer_alloc_per_txn;
            Table.float_cell ~decimals:0 r.Serve.r_reader_alloc_per_query;
          ])
        results
    in
    print_table
      ~headers:
        [
          "strategy"; "modeled ms/q"; "tps"; "qps"; "q p50 us"; "q p95 us"; "q p99 us";
          "txn p99 us"; "epochs"; "reclaimed"; "B/txn"; "B/query";
        ]
      rows;
    if !json_enabled then
      write_json "BENCH_serving.json"
        (J.obj
           [
             ("figure", J.str "serving");
             ("n_tuples", j_num p.Params.n_tuples);
             ("P", j_num prob);
             ("readers", J.int !readers);
             ("queries_per_reader", J.int queries_per_reader);
             ("publish_every", J.int publish_every);
             ("group_commit", J.int group_commit);
             ( "strategies",
               J.arr
                 (List.map
                    (fun ((r : Serve.report), modeled) ->
                      J.obj
                        [
                          ("strategy", J.str r.Serve.r_strategy);
                          ("modeled", json_of_measurement modeled);
                          ("modeled_serving_ms", j_num r.Serve.r_modeled_ms);
                          ("final_digest", J.str r.Serve.r_final_digest);
                          ( "wall",
                            J.obj
                              [
                                ("tps", j_num r.Serve.r_tps);
                                ("qps", j_num r.Serve.r_qps);
                                ("wall_s", j_num r.Serve.r_wall_s);
                                ("txns", J.int r.Serve.r_txns);
                                ("queries", J.int r.Serve.r_queries);
                                ("epochs", J.int r.Serve.r_epochs);
                                ("reclaimed", J.int r.Serve.r_reclaimed);
                                ("max_live", J.int r.Serve.r_max_live);
                                ("query_latency_us", j_latency r.Serve.r_query_latency);
                                ("txn_latency_us", j_latency r.Serve.r_txn_latency);
                                ( "alloc",
                                  J.obj
                                    [
                                      ( "writer_bytes",
                                        j_num r.Serve.r_writer_alloc_bytes );
                                      ( "writer_bytes_per_txn",
                                        j_num r.Serve.r_writer_alloc_per_txn );
                                      ( "reader_bytes",
                                        j_num r.Serve.r_reader_alloc_bytes );
                                      ( "reader_bytes_per_query",
                                        j_num r.Serve.r_reader_alloc_per_query );
                                    ] );
                              ] );
                        ])
                    results) );
           ])
  end

(* ------------------------------------------------------------------ *)
(* Fleet: shared-subexpression maintenance at 16/64/256 views          *)
(* ------------------------------------------------------------------ *)

let fleet_bench () =
  section "Fleet: shared maintenance + advisor vs isolated engines (DESIGN section 14)";
  let metrics, recorder = bench_recorder () in
  let sc x = max 1 (int_of_float (float_of_int x *. !scale)) in
  let sizes = [ 16; 64; 256 ] in
  let results =
    List.map
      (fun views ->
        let opts =
          {
            Fleet_report.default_opts with
            Fleet_report.ro_views = views;
            ro_overlap = 0.5;
            ro_zipf = 1.1;
            ro_n_tuples = sc 2000;
            ro_k = sc 200;
            ro_l = 8;
            ro_q = max 40 (sc 100);
            ro_seed = 11;
          }
        in
        (views, Fleet_report.run_comparison ?recorder opts))
      sizes
  in
  print_table
    ~headers:
      [
        "views";
        "classes";
        "groups";
        "aliases";
        "mat";
        "promote";
        "demote";
        "shared ms/delta";
        "isolated ms/delta";
        "maint speedup";
        "exact";
      ]
    (List.map
       (fun (views, r) ->
         [
           string_of_int views;
           string_of_int r.Fleet_report.r_classes;
           string_of_int r.Fleet_report.r_groups;
           string_of_int r.Fleet_report.r_aliases;
           string_of_int r.Fleet_report.r_materialized;
           string_of_int r.Fleet_report.r_promotions;
           string_of_int r.Fleet_report.r_demotions;
           Table.float_cell ~decimals:2 r.Fleet_report.r_shared_ms_per_delta;
           Table.float_cell ~decimals:2 r.Fleet_report.r_isolated_ms_per_delta;
           Table.float_cell ~decimals:2 r.Fleet_report.r_maint_speedup;
           (if r.Fleet_report.r_match then "yes" else "NO");
         ])
       results);
  let _, largest = List.nth results (List.length results - 1) in
  let exact = List.for_all (fun (_, r) -> r.Fleet_report.r_match) results in
  Printf.printf "equivalence: every answer and final content matches the isolated oracles %s\n"
    (if exact then "[ok]" else "[NOT ok]");
  Printf.printf
    "acceptance: shared maintenance %.2fx cheaper than isolated at 256 views, 50%% overlap %s\n"
    largest.Fleet_report.r_maint_speedup
    (if largest.Fleet_report.r_maint_speedup >= 2. then "[ok, >= 2x]" else "[NOT ok, < 2x]");
  if !json_enabled then
    write_json "BENCH_fleet.json"
      (J.obj
         ([
            ("scale", j_num !scale);
            ( "workload",
              J.obj
                [
                  ("overlap", j_num 0.5);
                  ("zipf_s", j_num 1.1);
                  ("n_tuples", J.int (sc 2000));
                  ("k", J.int (sc 200));
                  ("l", J.int 8);
                  ("q", J.int (max 40 (sc 100)));
                  ("seed", J.int 11);
                ] );
            ( "sizes",
              J.arr
                (List.map
                   (fun (views, r) ->
                     J.obj
                       [
                         ("views", J.int views);
                         ("classes", J.int r.Fleet_report.r_classes);
                         ("groups", J.int r.Fleet_report.r_groups);
                         ("aliases", J.int r.Fleet_report.r_aliases);
                         ("materialized", J.int r.Fleet_report.r_materialized);
                         ("refreshes", J.int r.Fleet_report.r_refreshes);
                         ("promotions", J.int r.Fleet_report.r_promotions);
                         ("demotions", J.int r.Fleet_report.r_demotions);
                         ("shared_maint_ms", j_num r.Fleet_report.r_shared_maint_ms);
                         ("isolated_maint_ms", j_num r.Fleet_report.r_isolated_maint_ms);
                         ("shared_total_ms", j_num r.Fleet_report.r_shared_total_ms);
                         ("isolated_total_ms", j_num r.Fleet_report.r_isolated_total_ms);
                         ("shared_ms_per_delta", j_num r.Fleet_report.r_shared_ms_per_delta);
                         ("isolated_ms_per_delta", j_num r.Fleet_report.r_isolated_ms_per_delta);
                         ("maint_speedup", j_num r.Fleet_report.r_maint_speedup);
                         ("total_speedup", j_num r.Fleet_report.r_total_speedup);
                         ("digest", J.str r.Fleet_report.r_digest);
                         ("match", J.bool r.Fleet_report.r_match);
                       ])
                   results) );
          ]
         @ metrics_field metrics))

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let microbenchmarks () =
  section "Bechamel microbenchmarks (wall-clock of core operations)";
  let open Bechamel in
  let rng = Rng.create 7 in
  let meter = Cost_meter.create () in
  let disk = Disk.create meter in
  let tree =
    Btree.create ~disk ~name:"bench" ~fanout:200 ~leaf_capacity:40
      ~key_col:0 ()
  in
  for i = 0 to 9_999 do
    Btree.insert tree (Tuple.make ~tid:(i + 1) [| Value.Int i; Value.Str "x" |])
  done;
  let hash =
    Hash_file.create ~disk ~name:"bench" ~buckets:64 ~tuples_per_page:40
      ~key_col:0 ()
  in
  for i = 0 to 9_999 do
    Hash_file.insert hash (Tuple.make ~tid:(i + 10_001) [| Value.Int i; Value.Str "x" |])
  done;
  let screen =
    Screen.create ~meter ~view_name:"bench"
      ~pred:
        (Predicate.Cmp (Predicate.Lt, Predicate.Column 1, Predicate.Const (Value.Float 0.1)))
      ()
  in
  let tids = Tuple.source ~first:20_001 () in
  let sample_tuple () =
    Tuple.make ~tid:(Tuple.next tids)
      [| Value.Int (Rng.int rng 10_000); Value.Float (Rng.float rng) |]
  in
  let tests =
    Test.make_grouped ~name:"vmat"
      [
        Test.make ~name:"yao.eval"
          (Staged.stage (fun () -> ignore (Yao.eval ~n:10000. ~m:125. ~k:5.)));
        Test.make ~name:"btree.find"
          (Staged.stage (fun () -> ignore (Btree.find tree (Value.Int (Rng.int rng 10_000)))));
        Test.make ~name:"btree.insert+remove"
          (Staged.stage (fun () ->
               let t = sample_tuple () in
               Btree.insert tree t;
               ignore (Btree.remove tree ~key:(Tuple.get t 0) ~tid:(Tuple.tid t))));
        Test.make ~name:"hash.lookup"
          (Staged.stage (fun () ->
               ignore (Hash_file.lookup hash (Value.Int (Rng.int rng 10_000)))));
        Test.make ~name:"screen.screen"
          (Staged.stage (fun () -> ignore (Screen.screen screen (sample_tuple ()))));
        Test.make ~name:"model1.total_deferred"
          (Staged.stage (fun () -> ignore (Model1.total_deferred Params.defaults)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (estimate :: _) -> Table.float_cell ~decimals:1 estimate
          | _ -> "-"
        in
        [ name; ns ] :: acc)
      results []
  in
  print_table ~headers:[ "operation"; "ns/run" ] (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* CSV export                                                          *)
(* ------------------------------------------------------------------ *)

let csv_dir = ref "bench_csv"

let write_csv name headers rows =
  (try Unix.mkdir !csv_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat !csv_dir (name ^ ".csv") in
  let oc = open_out path in
  output_string oc (String.concat "," headers ^ "\n");
  List.iter (fun row -> output_string oc (String.concat "," row ^ "\n")) rows;
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n" path (List.length rows)

let csv_export () =
  section (Printf.sprintf "CSV export of every figure's data series (to %s/)" !csv_dir);
  let num = Printf.sprintf "%.6g" in
  let fine_p = List.init 46 (fun i -> 0.02 +. (0.02 *. float_of_int i)) in
  write_csv "figure1"
    [ "P"; "deferred"; "immediate"; "clustered"; "unclustered"; "sequential" ]
    (List.map
       (fun prob ->
         let p = Params.with_update_probability Params.defaults prob in
         num prob
         :: List.map num
              [ Model1.total_deferred p; Model1.total_immediate p; Model1.total_clustered p;
                Model1.total_unclustered p; Model1.total_sequential p ])
       fine_p);
  write_csv "figure5" [ "P"; "deferred"; "immediate"; "loopjoin" ]
    (List.map
       (fun prob ->
         let p = Params.with_update_probability Params.defaults prob in
         num prob
         :: List.map num
              [ Model2.total_deferred p; Model2.total_immediate p; Model2.total_loopjoin p ])
       fine_p);
  write_csv "figure8" [ "l"; "deferred"; "immediate"; "recompute" ]
    (List.map
       (fun l ->
         let p = { Params.defaults with Params.l_per_txn = l } in
         num l
         :: List.map num
              [ Model3.total_deferred p; Model3.total_immediate p; Model3.total_recompute p ])
       (List.init 50 (fun i -> float_of_int (1 + (i * 10)))));
  write_csv "figure9" [ "l"; "pstar_f0.001"; "pstar_f0.01"; "pstar_f0.1"; "pstar_f1" ]
    (List.map
       (fun l ->
         num l
         :: List.map
              (fun f -> num (Regions.fig9_equal_cost_p { Params.defaults with Params.f } ~l))
              [ 0.001; 0.01; 0.1; 1.0 ])
       (List.init 50 (fun i -> float_of_int (1 + (i * 20)))));
  List.iter
    (fun (name, base, best) ->
      write_csv name [ "P"; "f"; "winner" ]
        (List.concat_map
           (fun prob ->
             List.map
               (fun f ->
                 [ num prob; num f; Regions.classify ~best ~base ~p:prob ~f ])
               (List.init 25 (fun i -> 0.02 +. (0.98 /. 24. *. float_of_int i))))
           (List.init 25 (fun i -> 0.02 +. (0.96 /. 24. *. float_of_int i)))))
    [
      ("figure2_regions", Params.defaults, Regions.best_model1);
      ("figure3_regions", { Params.defaults with Params.fv = 0.01 }, Regions.best_model1);
      ("figure4_regions", { Params.defaults with Params.c3 = 2. }, Regions.best_model1);
      ("figure6_regions", Params.defaults, Regions.best_model2);
      ("figure7_regions", { Params.defaults with Params.fv = 0.01 }, Regions.best_model2);
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table-defaults", table_defaults);
    ("table-access-methods", table_access_methods);
    ("figure-1", figure_1);
    ("figure-1-measured", figure_1_measured);
    ("figure-2", figure_2);
    ("figure-3", figure_3);
    ("figure-4", figure_4);
    ("figure-5", figure_5);
    ("figure-5-measured", figure_5_measured);
    ("figure-6", figure_6);
    ("figure-7", figure_7);
    ("figure-8", figure_8);
    ("figure-8-measured", figure_8_measured);
    ("figure-9", figure_9);
    ("emp-dept", emp_dept);
    ("ablation-refresh-interval", ablation_refresh_interval);
    ("ablation-split-ad", ablation_split_ad);
    ("ablation-multidisk", ablation_multidisk);
    ("ablation-multiview", ablation_multiview);
    ("ablation-planner", ablation_planner);
    ("adaptive", adaptive_bench);
    ("durability", durability_bench);
    ("serving", serving_bench);
    ("fleet", fleet_bench);
    ("yao", yao_table);
    ("csv", csv_export);
    ("bechamel", microbenchmarks);
  ]

let () =
  let args = Array.to_list Sys.argv in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        parse acc rest
    | "--csv-dir" :: v :: rest ->
        csv_dir := v;
        parse acc rest
    | "--json" :: rest ->
        json_enabled := true;
        parse acc rest
    | "--jobs" :: v :: rest ->
        let n = int_of_string v in
        if n < 0 then begin
          Printf.eprintf "--jobs %d is negative; expected N >= 0 (0 = all cores)\n" n;
          exit 2
        end;
        jobs := (if n = 0 then Parallel.default_jobs () else n);
        parse acc rest
    | "--durability" :: v :: rest ->
        durability := v;
        parse acc rest
    | "--wall" :: rest ->
        wall := true;
        parse acc rest
    | "--readers" :: v :: rest ->
        let n = int_of_string v in
        if n < 1 then begin
          Printf.eprintf "--readers %d is out of range; expected N >= 1\n" n;
          exit 2
        end;
        readers := n;
        parse acc rest
    | arg :: rest -> parse (arg :: acc) rest
  in
  let requested = parse [] (List.tl args) in
  let chosen =
    match requested with
    | [] -> sections
    | names ->
        List.filter_map
          (fun name ->
            match List.assoc_opt name sections with
            | Some fn -> Some (name, fn)
            | None ->
                Printf.eprintf "unknown section %s (known: %s)\n" name
                  (String.concat ", " (List.map fst sections));
                exit 2)
          names
  in
  List.iter (fun (_, fn) -> fn ()) chosen
