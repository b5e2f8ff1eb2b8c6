(* vmperf: command-line interface to the view-materialization cost model and
   simulator.

     vmperf costs    --model 1 -P 0.7 -f 0.2      analytic costs + winner
     vmperf simulate --model 1 --scale 0.1        measured simulation
     vmperf advise   --model 2 --fv 0.01          strategy recommendation
     vmperf regions  --model 1 --c3 2             best-strategy map (Figures 2-4, 6-7)
     vmperf sweep    --model 3 --param l          cost table over a parameter sweep
     vmperf adapt    --scale 0.05 -f 0.5          adaptive vs static on a phase shift
     vmperf top      --strategy deferred          profile one strategy (spans + metrics)
     vmperf serve    --readers 4 --scale 0.05     concurrent serving: MVCC snapshot
                                                  readers + single writer, wall-clock
                                                  TPS / latency quantiles
     vmperf params                                the paper's parameter table
     vmperf crash-test --scale 0.002              crash at every WAL point, check
                                                  recovery == the uncrashed run
     vmperf recover  --dir DIR --strategy KIND    recover a crashed on-disk engine

   simulate, adapt and top accept --trace FILE (Chrome trace_event JSON),
   --metrics FILE (Prometheus text) and --metrics-json FILE.  simulate and
   sweep accept --durability wal (write-ahead logging + checkpoints; the
   cost lands in the wal category and nowhere else). *)

open Core
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared parameter flags                                              *)
(* ------------------------------------------------------------------ *)

let params_term =
  let open Term in
  let mk n s b k l q nbytes f fv fr2 c1 c2 c3 prob =
    let p =
      {
        Params.n_tuples = n;
        tuple_bytes = s;
        page_bytes = b;
        k_updates = k;
        l_per_txn = l;
        q_queries = q;
        index_bytes = nbytes;
        f;
        fv;
        f_r2 = fr2;
        c1;
        c2;
        c3;
      }
    in
    let p = match prob with Some prob -> Params.with_update_probability p prob | None -> p in
    match Params.validate p with
    | Ok () -> p
    | Error msg ->
        Printf.eprintf "invalid parameters: %s\n" msg;
        Stdlib.exit 2
  in
  let d = Params.defaults in
  let flag name doc default =
    Arg.(value & opt float default & info [ name ] ~doc ~docv:"FLOAT")
  in
  const mk
  $ flag "N" "Tuples in the base relation." d.Params.n_tuples
  $ flag "S" "Bytes per tuple." d.Params.tuple_bytes
  $ flag "B" "Bytes per page." d.Params.page_bytes
  $ flag "k" "Number of update transactions." d.Params.k_updates
  $ flag "l" "Tuples modified per transaction." d.Params.l_per_txn
  $ flag "q" "Number of view queries." d.Params.q_queries
  $ flag "n" "Bytes per index record." d.Params.index_bytes
  $ flag "f" "View predicate selectivity." d.Params.f
  $ flag "fv" "Fraction of the view retrieved per query." d.Params.fv
  $ flag "fr2" "Size of R2 as a fraction of R1." d.Params.f_r2
  $ flag "c1" "CPU cost (ms) per predicate test." d.Params.c1
  $ flag "c2" "Cost (ms) per page read/write." d.Params.c2
  $ flag "c3" "Cost (ms) per tuple of A/D set manipulation." d.Params.c3
  $ Arg.(
      value
      & opt (some float) None
      & info [ "P" ] ~doc:"Update probability (overrides k, keeping q)." ~docv:"FLOAT")

let model_term =
  Arg.(
    value
    & opt int 1
    & info [ "model" ] ~docv:"1|2|3"
        ~doc:"View model: 1 selection-projection, 2 two-way join, 3 aggregate.")

let model_of_int = function
  | 1 -> Advisor.Selection_projection
  | 2 -> Advisor.Two_way_join
  | 3 -> Advisor.Aggregate_over_view
  | m ->
      Printf.eprintf "unknown model %d (expected 1, 2 or 3)\n" m;
      exit 2

let costs_of_model model p =
  match model with
  | Advisor.Selection_projection -> Model1.all p
  | Advisor.Two_way_join -> Model2.all p
  | Advisor.Aggregate_over_view -> Model3.all p

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let params_cmd =
  let run p = print_endline (Table.render ~headers:[ "parameter"; "value" ]
                               (List.map (fun (k, v) -> [ k; v ]) (Params.rows p))) in
  Cmd.v (Cmd.info "params" ~doc:"Print the parameter table (paper section 3.1).")
    Term.(const run $ params_term)

let costs_cmd =
  let run model p =
    let model = model_of_int model in
    Format.printf "%s at P = %.3f:@." (Advisor.model_name model) (Params.update_probability p);
    print_endline
      (Table.render ~headers:[ "strategy"; "ms/query" ]
         (List.map
            (fun (name, c) -> [ name; Table.float_cell ~decimals:1 c ])
            (List.sort (fun (_, a) (_, b) -> Float.compare a b) (costs_of_model model p))))
  in
  Cmd.v (Cmd.info "costs" ~doc:"Analytic cost of every strategy at one parameter point.")
    Term.(const run $ model_term $ params_term)

let seed_term =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"INT" ~doc:"Workload RNG seed.")

(* Validated count converters: a negative --jobs/--readers is a usage error
   (reported by cmdliner with the offending option), never silently clamped
   and never handed to Parallel.map_points. *)
let count_conv ~least ~hint =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= least -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%d is out of range; expected %s" n hint))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let nonneg_int = count_conv ~least:0 ~hint:"N >= 0"
let pos_int = count_conv ~least:1 ~hint:"N >= 1"

(* Validated float converters, on the same terms (NaN is out of range). *)
let float_conv ~ok ~hint =
  let parse s =
    match float_of_string_opt s with
    | Some x when ok x -> Ok x
    | Some x -> Error (`Msg (Printf.sprintf "%g is out of range; expected %s" x hint))
    | None -> Error (`Msg (Printf.sprintf "%S is not a number" s))
  in
  Arg.conv ~docv:"FLOAT" (parse, Format.pp_print_float)

let unit_float = float_conv ~ok:(fun x -> x >= 0. && x <= 1.) ~hint:"0 <= X <= 1"
let nonneg_float = float_conv ~ok:(fun x -> x >= 0.) ~hint:"X >= 0"

(* A usage error for a factor outside (0, 1] (NaN and the infinities
   included), before anything is built from it. *)
let scale_term =
  Arg.(
    value
    & opt (float_conv ~ok:(fun x -> x > 0. && x <= 1.) ~hint:"0 < X <= 1") 0.1
    & info [ "scale" ] ~docv:"FLOAT"
        ~doc:"Shrink the relation to SCALE * N tuples for the simulation.")

(* ------------------------------------------------------------------ *)
(* Observability flags (simulate / adapt / top)                        *)
(* ------------------------------------------------------------------ *)

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON of the run to $(docv) (load it in \
           chrome://tracing or ui.perfetto.dev).  Timestamps are modeled \
           milliseconds — the cost meter's virtual clock — so traces of a seeded \
           workload are deterministic.")

let metrics_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a Prometheus text-format metrics snapshot to $(docv) after the run.  \
           The vmat_cost_ms_total counters mirror the cost meter and are reset at each \
           strategy's run start, so with several strategies they reflect the last one \
           measured; use --only (or the top command) for an unambiguous snapshot.")

let metrics_json_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:"Write a JSON metrics snapshot to $(docv) after the run.")

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

(* Build the recorder implied by the flags (if any) and a flush function that
   writes the requested files after the run. *)
let make_recorder ~trace_jsonl_file ~trace_file ~metrics_file ~metrics_json_file
    =
  if
    trace_file = None && trace_jsonl_file = None && metrics_file = None
    && metrics_json_file = None
  then (None, fun () -> ())
  else begin
    let trace =
      if trace_file = None && trace_jsonl_file = None then None
      else Some (Trace.create ())
    in
    let metrics =
      if metrics_file = None && metrics_json_file = None then None
      else Some (Metrics.create ())
    in
    let recorder = Recorder.create ?trace ?metrics () in
    let flush () =
      Option.iter
        (fun path ->
          write_file path (Trace.to_chrome_json (Option.get trace));
          Printf.printf "trace written to %s (%d events)\n" path
            (Trace.event_count (Option.get trace)))
        trace_file;
      Option.iter
        (fun path ->
          write_file path (Trace.to_jsonl (Option.get trace));
          Printf.printf "trace JSONL written to %s (%d events)\n" path
            (Trace.event_count (Option.get trace)))
        trace_jsonl_file;
      Option.iter
        (fun path ->
          write_file path (Metrics.to_prometheus (Option.get metrics));
          Printf.printf "metrics written to %s\n" path)
        metrics_file;
      Option.iter
        (fun path ->
          write_file path (Metrics.to_json (Option.get metrics));
          Printf.printf "metrics JSON written to %s\n" path)
        metrics_json_file
    in
    (Some recorder, flush)
  end

let strategy_tag = function
  | `Deferred -> "deferred"
  | `Immediate -> "immediate"
  | `Clustered -> "clustered"
  | `Unclustered -> "unclustered"
  | `Sequential -> "sequential"
  | `Recompute -> "recompute"
  | `Adaptive -> "adaptive"
  | `Loopjoin -> "loopjoin"

let filter_only only all =
  match only with
  | None -> all
  | Some name -> (
      let name = String.lowercase_ascii name in
      match List.filter (fun s -> strategy_tag s = name) all with
      | [] ->
          Printf.eprintf "unknown or unavailable strategy %s (expected one of: %s)\n"
            name
            (String.concat ", " (List.map strategy_tag all));
          exit 2
      | l -> l)

let only_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "only" ] ~docv:"NAME"
        ~doc:
          "Measure only the named strategy (deferred, immediate, clustered, ...).  \
           With --metrics this makes the cost counters an unambiguous mirror of that \
           strategy's meter.")

let sanitize_term =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Enable the runtime invariant sanitizers (cost conservation, refresh = \
           recompute) in every measured context; violations abort with exit code \
           3.  Equivalent to VMAT_SANITIZE=1.")

(* The flag only *forces on*: absent, the env default (VMAT_SANITIZE) applies. *)
let sanitize_opt flag = if flag then Some true else None

(* ------------------------------------------------------------------ *)
(* Durability flags (simulate / sweep / crash-test / recover)          *)
(* ------------------------------------------------------------------ *)

let durability_term =
  Arg.(
    value
    & opt string "none"
    & info [ "durability" ] ~docv:"wal|none"
        ~doc:
          "Run every measured strategy under the write-ahead-logging engine \
           (group commit + periodic checkpoints, DESIGN section 9).  Durability \
           I/O is charged to the wal cost category and nowhere else: every other \
           column is identical to --durability none.")

let group_commit_term =
  Arg.(
    value
    & opt int Wal.default_config.Wal.group_commit
    & info [ "group-commit" ] ~docv:"INT"
        ~doc:"Force the log after $(docv) committed transactions (default 1).")

let checkpoint_every_term =
  Arg.(
    value
    & opt int Wal.default_config.Wal.checkpoint_every
    & info [ "checkpoint-every" ] ~docv:"INT"
        ~doc:"Take a checkpoint image every $(docv) transactions.")

let wal_config ~group_commit ~checkpoint_every =
  match Wal.config ~group_commit ~checkpoint_every () with
  | config -> config
  | exception Invalid_argument msg ->
      Printf.eprintf "invalid durability configuration: %s\n" msg;
      exit 2

(* An [Experiment.wrap] that slips the durable engine (over an in-memory
   device, so sweeps stay domain-parallel safe) between the workload
   runner and the strategy it measures. *)
let wrap_of_durability ~durability ~group_commit ~checkpoint_every :
    Experiment.wrap option =
  match durability with
  | "none" -> None
  | "wal" ->
      let config = wal_config ~group_commit ~checkpoint_every in
      Some
        (fun ~ctx ~initial strategy ->
          Durable.strategy
            (Durable.wrap ~config ~ctx ~dev:(Device.memory ()) ~initial strategy))
  | other ->
      Printf.eprintf "unknown durability mode %s (expected wal or none)\n" other;
      exit 2

let simulate_cmd =
  let run model p scale seed only sanitize durability group_commit checkpoint_every
      trace_file metrics_file metrics_json_file alloc_stats =
    let sanitize = sanitize_opt sanitize in
    let wrap = wrap_of_durability ~durability ~group_commit ~checkpoint_every in
    let p = Experiment.scale p scale in
    let recorder, flush_obs = make_recorder ~trace_jsonl_file:None ~trace_file ~metrics_file ~metrics_json_file in
    Format.printf "simulating at N = %.0f, P = %.3f, seed %d%s@." p.Params.n_tuples
      (Params.update_probability p) seed
      (if Option.is_none wrap then "" else ", durability wal");
    let alloc0 = if alloc_stats then Alloc_meter.bytes () else 0. in
    let results =
      match model_of_int model with
      | Advisor.Selection_projection ->
          Experiment.measure_model1 ~seed ?recorder ?sanitize ?wrap p
            (filter_only only
               [ `Deferred; `Immediate; `Clustered; `Unclustered; `Recompute ])
      | Advisor.Two_way_join ->
          Experiment.measure_model2 ~seed ?recorder ?sanitize ?wrap p
            (filter_only only [ `Deferred; `Immediate; `Loopjoin ])
      | Advisor.Aggregate_over_view ->
          Experiment.measure_model3 ~seed ?recorder ?sanitize ?wrap p
            (filter_only only [ `Deferred; `Immediate; `Recompute ])
    in
    let alloc_delta = if alloc_stats then Alloc_meter.bytes () -. alloc0 else 0. in
    let category_names =
      List.filter (fun c -> c <> Cost_meter.Base) Cost_meter.all_categories
    in
    print_endline
      (Table.render
         ~headers:
           ([ "strategy"; "ms/query"; "reads"; "writes" ]
           @ List.map Cost_meter.category_name category_names)
         (List.map
            (fun (name, m) ->
              [
                name;
                Table.float_cell ~decimals:1 m.Runner.cost_per_query;
                string_of_int m.Runner.physical_reads;
                string_of_int m.Runner.physical_writes;
              ]
              @ List.map
                  (fun c ->
                    Table.float_cell ~decimals:0 (List.assoc c m.Runner.category_costs))
                  category_names)
            results));
    if alloc_stats then begin
      (* One machine-parseable line for the CI allocation-budget smoke: the
         whole measured run's GC allocation, amortized per executed query.
         Off by default so the ordinary output stays byte-identical. *)
      let queries =
        List.fold_left (fun acc (_, m) -> acc + m.Runner.queries) 0 results
      in
      Printf.printf "alloc-stats: total_bytes=%.0f queries=%d bytes_per_query=%.0f\n"
        alloc_delta queries
        (alloc_delta /. float_of_int (max 1 queries))
    end;
    flush_obs ()
  in
  let alloc_stats_term =
    Arg.(
      value & flag
      & info [ "alloc-stats" ]
          ~doc:
            "Append a machine-parseable GC-allocation summary line \
             (total bytes allocated over the measured run and bytes per \
             query) after the cost table.  Does not change any other output.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the strategies on the simulated engine and report measured costs.")
    Term.(
      const run $ model_term $ params_term $ scale_term $ seed_term $ only_term
      $ sanitize_term $ durability_term $ group_commit_term $ checkpoint_every_term
      $ trace_term $ metrics_term $ metrics_json_term $ alloc_stats_term)

let advise_cmd =
  let run model p =
    Format.printf "%a" Advisor.pp (Advisor.recommend (model_of_int model) p)
  in
  Cmd.v (Cmd.info "advise" ~doc:"Recommend a materialization strategy from the cost model.")
    Term.(const run $ model_term $ params_term)

let regions_cmd =
  let run model p =
    let best =
      match model_of_int model with
      | Advisor.Selection_projection -> Regions.best_model1
      | Advisor.Two_way_join -> Regions.best_model2
      | Advisor.Aggregate_over_view -> Regions.best_model3
    in
    let letter name =
      match name with
      | "deferred" -> 'D'
      | "immediate" -> 'I'
      | "clustered" | "loopjoin" -> 'Q'
      | "unclustered" -> 'U'
      | "sequential" -> 'S'
      | "recompute" -> 'R'
      | _ -> '?'
    in
    print_endline
      (Ascii_plot.region_map
         ~title:(Printf.sprintf "best strategy, model %d (fv = %g, C3 = %g)" model p.Params.fv p.Params.c3)
         ~x_label:"P" ~y_label:"f" ~x_range:(0.02, 0.98) ~y_range:(0.02, 1.0)
         ~legend:
           [
             ('D', "deferred"); ('I', "immediate"); ('Q', "query modification");
             ('R', "recompute");
           ]
         ~classify:(fun prob f -> letter (Regions.classify ~best ~base:p ~p:prob ~f))
         ())
  in
  Cmd.v
    (Cmd.info "regions"
       ~doc:"Best-strategy region map over (P, f), like Figures 2-4 and 6-7.")
    Term.(const run $ model_term $ params_term)

let sweep_cmd =
  let param_term =
    Arg.(
      value
      & opt string "P"
      & info [ "param" ] ~docv:"P|f|fv|l|c3" ~doc:"Parameter to sweep.")
  in
  let from_term = Arg.(value & opt float 0.05 & info [ "from" ] ~docv:"FLOAT") in
  let to_term = Arg.(value & opt float 0.95 & info [ "to" ] ~docv:"FLOAT") in
  let steps_term = Arg.(value & opt int 10 & info [ "steps" ] ~docv:"INT") in
  let measured_term =
    Arg.(
      value & flag
      & info [ "measured" ]
          ~doc:
            "Measure each sweep point on the simulated engine (seeded by --seed, \
             shrunk by --scale) instead of evaluating the analytic formulas.")
  in
  let jobs_term =
    Arg.(
      value & opt nonneg_int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Run the sweep points on $(docv) domains in parallel (0 = one per \
             core).  Every point is an isolated engine, so the output is \
             byte-identical for any value of $(docv).")
  in
  let csv_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Also write the sweep as CSV to $(docv) (use - for stdout).")
  in
  let run model p param lo hi steps measured scale seed jobs csv sanitize durability
      group_commit checkpoint_every =
    let sanitize = sanitize_opt sanitize in
    let wrap = wrap_of_durability ~durability ~group_commit ~checkpoint_every in
    let model = model_of_int model in
    let jobs = if jobs = 0 then Parallel.default_jobs () else jobs in
    let apply v =
      match param with
      | "P" -> Params.with_update_probability p v
      | "f" -> { p with Params.f = v }
      | "fv" -> { p with Params.fv = v }
      | "l" -> { p with Params.l_per_txn = v }
      | "c3" -> { p with Params.c3 = v }
      | other ->
          Printf.eprintf "unknown sweep parameter %s\n" other;
          exit 2
    in
    let costs_at p =
      if not measured then costs_of_model model p
      else
        let p = Experiment.scale p scale in
        let results =
          match model with
          | Advisor.Selection_projection ->
              Experiment.measure_model1 ~seed ?sanitize ?wrap p
                [ `Deferred; `Immediate; `Clustered ]
          | Advisor.Two_way_join ->
              Experiment.measure_model2 ~seed ?sanitize ?wrap p
                [ `Deferred; `Immediate; `Loopjoin ]
          | Advisor.Aggregate_over_view ->
              Experiment.measure_model3 ~seed ?sanitize ?wrap p
                [ `Deferred; `Immediate; `Recompute ]
        in
        List.map (fun (name, m) -> (name, m.Runner.cost_per_query)) results
    in
    let names = List.map fst (costs_at p) in
    let values =
      List.init (max 2 steps) (fun i ->
          lo +. ((hi -. lo) *. float_of_int i /. float_of_int (max 1 (steps - 1))))
    in
    (* Each sweep point builds its own execution context inside [costs_at],
       so the points are independent and run on [jobs] domains. *)
    let point_costs = Parallel.map_points ~jobs (fun v -> (v, costs_at (apply v))) values in
    let rows =
      List.map
        (fun (v, costs) ->
          Table.float_cell ~decimals:3 v
          :: (List.map (fun (_, c) -> Table.float_cell ~decimals:1 c) costs
             @ [ fst (Regions.argmin costs) ]))
        point_costs
    in
    print_endline (Table.render ~headers:(param :: (names @ [ "best" ])) rows);
    match csv with
    | None -> ()
    | Some path ->
        let header = String.concat "," (param :: (names @ [ "best" ])) in
        let line (v, costs) =
          String.concat ","
            (Printf.sprintf "%.6g" v
            :: (List.map (fun (_, c) -> Printf.sprintf "%.6g" c) costs
               @ [ fst (Regions.argmin costs) ]))
        in
        let text =
          String.concat "\n" (header :: List.map line point_costs) ^ "\n"
        in
        if path = "-" then print_string text
        else begin
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          Printf.eprintf "wrote %s (%d rows)\n%!" path (List.length point_costs)
        end
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Cost table over a parameter sweep (analytic, or measured with --measured; \
          points run in parallel with --jobs).")
    Term.(
      const run $ model_term $ params_term $ param_term $ from_term $ to_term $ steps_term
      $ measured_term $ scale_term $ seed_term $ jobs_term $ csv_term $ sanitize_term
      $ durability_term $ group_commit_term $ checkpoint_every_term)

let adapt_cmd =
  let int_flag name doc default =
    Arg.(value & opt int default & info [ name ] ~doc ~docv:"INT")
  in
  let k1_term = int_flag "k1" "Update transactions in phase 1." 120 in
  let q1_term = int_flag "q1" "View queries in phase 1." 12 in
  let k2_term = int_flag "k2" "Update transactions in phase 2." 12 in
  let q2_term = int_flag "q2" "View queries in phase 2." 240 in
  let initial_term =
    Arg.(
      value
      & opt string "clustered"
      & info [ "initial" ] ~docv:"KIND"
          ~doc:"Initial maintenance discipline (immediate, deferred, clustered, ...).")
  in
  let horizon_term =
    Arg.(
      value
      & opt float Controller.default_config.Controller.horizon
      & info [ "horizon" ] ~docv:"FLOAT"
          ~doc:"Queries over which a migration must pay for itself.")
  in
  let hysteresis_term =
    Arg.(
      value
      & opt float Controller.default_config.Controller.hysteresis
      & info [ "hysteresis" ] ~docv:"FLOAT"
          ~doc:"Relative advantage a challenger needs before a switch (e.g. 0.15).")
  in
  let run p scale seed k1 q1 k2 q2 initial horizon hysteresis trace_file metrics_file
      metrics_json_file =
    let p = Experiment.scale p scale in
    let recorder, flush_obs = make_recorder ~trace_jsonl_file:None ~trace_file ~metrics_file ~metrics_json_file in
    let initial_kind =
      match Migrate.kind_of_name initial with
      | Some k -> k
      | None ->
          Printf.eprintf "unknown strategy kind %s\n" initial;
          exit 2
    in
    let l = max 1 (int_of_float p.Params.l_per_txn) in
    let phases =
      [
        { Experiment.sp_k = k1; sp_l = l; sp_q = q1; sp_fv = p.Params.fv };
        { Experiment.sp_k = k2; sp_l = l; sp_q = q2; sp_fv = p.Params.fv };
      ]
    in
    let cfg = { Controller.default_config with Controller.horizon; hysteresis } in
    Format.printf
      "phase-shifting workload at N = %.0f, f = %g, fv = %g, seed %d:@.  phase 1: %d \
       txns x %d tuples, %d queries@.  phase 2: %d txns x %d tuples, %d queries@.@."
      p.Params.n_tuples p.Params.f p.Params.fv seed k1 l q1 k2 l q2;
    let results =
      Experiment.measure_phased ~seed ?recorder ~adaptive_config:cfg
        ~adaptive_initial:initial_kind p ~phases
        [ `Clustered; `Deferred; `Immediate; `Adaptive ]
    in
    print_endline
      (Table.render
         ~headers:[ "strategy"; "phase1 ms/q"; "phase2 ms/q"; "overall ms/q" ]
         (List.map
            (fun r ->
              r.Experiment.ph_name
              :: (List.map
                    (fun m -> Table.float_cell ~decimals:1 m.Runner.cost_per_query)
                    r.Experiment.ph_per_phase
                 @ [
                     Table.float_cell ~decimals:1
                       r.Experiment.ph_overall.Runner.cost_per_query;
                   ]))
            results));
    List.iter
      (fun r ->
        match r.Experiment.ph_adaptive with
        | None -> ()
        | Some a ->
            Format.printf "@.adaptive decision log:@.";
            List.iter
              (fun d -> Format.printf "  %a@." Controller.pp_decision d)
              (Adaptive.decision_log a);
            Format.printf "@.migrations:@.";
            (match Adaptive.migrations a with
            | [] -> Format.printf "  (none)@."
            | ms ->
                List.iter
                  (fun m ->
                    Format.printf "  after query %d: %s -> %s (measured %.0f ms)@."
                      m.Adaptive.at_query
                      (Migrate.kind_name m.Adaptive.from_kind)
                      (Migrate.kind_name m.Adaptive.to_kind)
                      m.Adaptive.measured_cost)
                  ms);
            Format.printf "@.final observer state: %a@." Wstats.pp (Adaptive.wstats a))
      results;
    flush_obs ()
  in
  Cmd.v
    (Cmd.info "adapt"
       ~doc:
         "Replay a two-phase (update-heavy then query-heavy) workload against the \
          static strategies and the adaptive one, printing per-phase costs and the \
          adaptive controller's decision log.")
    Term.(
      const run $ params_term $ scale_term $ seed_term $ k1_term $ q1_term $ k2_term
      $ q2_term $ initial_term $ horizon_term $ hysteresis_term $ trace_term
      $ metrics_term $ metrics_json_term)

let model1_strategy_of_name = function
  | "deferred" -> `Deferred
  | "immediate" -> `Immediate
  | "clustered" -> `Clustered
  | "unclustered" -> `Unclustered
  | "sequential" -> `Sequential
  | "recompute" -> `Recompute
  | "adaptive" -> `Adaptive
  | other ->
      Printf.eprintf
        "unknown strategy %s (expected deferred, immediate, clustered, unclustered, \
         sequential, recompute or adaptive)\n"
        other;
      exit 2

(* ------------------------------------------------------------------ *)
(* Dashboard plumbing (DESIGN §11), shared by top --live and            *)
(* serve --dashboard                                                    *)
(* ------------------------------------------------------------------ *)

(* A dashboard sink renders refreshing ASCII frames to the terminal and/or
   writes each frame as machine-readable JSON (dash-NNNN.json plus the
   post-join dash-final.json) into a directory.  It runs on the writer
   domain mid-run: files and stdout only, never the metrics registry
   (vmlint rule D6). *)
let make_dash_sink ~live ~dash_dir =
  if (not live) && dash_dir = None then None
  else begin
    Option.iter (fun dir -> try Sys.mkdir dir 0o755 with Sys_error _ -> ()) dash_dir;
    let view = Dash.view () in
    Some
      (fun (snap : Dash.snapshot) ->
        if live then begin
          print_string "\027[2J\027[H";
          print_string (Dash.render view snap);
          Stdlib.flush Stdlib.stdout
        end;
        Option.iter
          (fun dir ->
            let file =
              if snap.Dash.d_final then "dash-final.json"
              else Printf.sprintf "dash-%04d.json" snap.Dash.d_seq
            in
            write_file (Filename.concat dir file) (Dash.to_json snap))
          dash_dir)
  end

(* The serving report's observability tail: merged hot keys and per-domain
   flight-ring stats (printed only when the corresponding extra was on). *)
let print_serve_obs (r : Serve.report) =
  if r.Serve.r_key_total > 0 then begin
    Printf.printf
      "  workload keys    %d touches, ~%.0f distinct, skew %.2f (count err <= %.1f)\n"
      r.Serve.r_key_total r.Serve.r_key_distinct r.Serve.r_key_skew
      r.Serve.r_key_error_bound;
    List.iteri
      (fun i (h : Sketch.heavy) ->
        if i < 8 then
          Printf.printf "    hot %-16s %6d (+-%d)\n" h.Sketch.hh_key h.Sketch.hh_count
            h.Sketch.hh_err)
      r.Serve.r_hot_keys
  end;
  List.iter
    (fun ring ->
      Printf.printf "  flight %-10s %6d events appended, %d dropped\n"
        (Flight.label ring) (Flight.appended ring) (Flight.dropped ring))
    r.Serve.r_flight

let top_cmd =
  let strategy_term =
    Arg.(
      value
      & opt string "deferred"
      & info [ "strategy" ] ~docv:"NAME"
          ~doc:
            "Strategy to profile (model 1: deferred, immediate, clustered, \
             unclustered, sequential, recompute, adaptive; model 2: deferred, \
             immediate, loopjoin; model 3: deferred, immediate, recompute).")
  in
  let live_term =
    Arg.(
      value & flag
      & info [ "live" ]
          ~doc:
            "Profile the concurrent serving subsystem instead of a serial replay: \
             run vmperf serve under the hood (model 1 only) with the flight \
             recorder, workload sketches and per-query trace sampling on, \
             rendering a refreshing dashboard to the terminal.")
  in
  let readers_term =
    Arg.(
      value & opt pos_int 2
      & info [ "readers" ] ~docv:"N"
          ~doc:"Reader domains for --live (ignored otherwise).")
  in
  let queries_term =
    Arg.(
      value & opt nonneg_int 200
      & info [ "queries" ] ~docv:"N"
          ~doc:"Queries per reader domain for --live (ignored otherwise).")
  in
  let run model p scale seed strat live readers queries trace_file metrics_file
      metrics_json_file =
    let p = Experiment.scale p scale in
    if live then begin
      if model <> 1 then begin
        Printf.eprintf "--live profiles the serving subsystem, which is model 1 only\n";
        exit 2
      end;
      let strategy = model1_strategy_of_name strat in
      let recorder, flush_obs = make_recorder ~trace_jsonl_file:None ~trace_file ~metrics_file ~metrics_json_file in
      let on_snapshot = make_dash_sink ~live:true ~dash_dir:None in
      let config =
        {
          Serve.default_config with
          Serve.readers;
          queries_per_reader = queries;
          trace_sample = 8;
          sketch_capacity = 64;
          flight_capacity = 4096;
          dash_every = 2;
        }
      in
      let r = Serve.run ~config ?recorder ?on_snapshot ~seed ~params:p ~strategy () in
      Printf.printf "\n";
      print_serve_obs r;
      flush_obs ();
      Printf.printf "serve: ok tps=%.1f qps=%.1f\n" r.Serve.r_tps r.Serve.r_qps;
      exit 0
    end;
    let trace = if trace_file = None then None else Some (Trace.create ()) in
    let metrics = Metrics.create () in
    let recorder = Recorder.create ?trace ~metrics () in
    let name, m =
      let one = function
        | [ r ] -> r
        | _ -> assert false (* filter_only returns exactly one strategy *)
      in
      match model_of_int model with
      | Advisor.Selection_projection ->
          one
            (Experiment.measure_model1 ~seed ~recorder ~track_keys:true p
               (filter_only (Some strat)
                  [
                    `Deferred; `Immediate; `Clustered; `Unclustered; `Sequential;
                    `Recompute; `Adaptive;
                  ]))
      | Advisor.Two_way_join ->
          one
            (Experiment.measure_model2 ~seed ~recorder p
               (filter_only (Some strat) [ `Deferred; `Immediate; `Loopjoin ]))
      | Advisor.Aggregate_over_view ->
          one
            (Experiment.measure_model3 ~seed ~recorder p
               (filter_only (Some strat) [ `Deferred; `Immediate; `Recompute ]))
    in
    Format.printf "%a@.@." Runner.pp m;
    (* Per-category cost, meter vs the mirrored metric counter (the two agree
       by construction; printing both makes the consistency visible). *)
    let active = List.filter (fun (_, c) -> c > 0.) m.Runner.category_costs in
    let max_cost = List.fold_left (fun acc (_, c) -> Float.max acc c) 1. active in
    print_endline
      (Table.render
         ~headers:[ "category"; "meter ms"; "metric ms"; "" ]
         (List.map
            (fun (cat, cost) ->
              let mirrored =
                Option.value ~default:0.
                  (Metrics.counter_value metrics
                     ~labels:[ ("category", Cost_meter.category_name cat) ]
                     "vmat_cost_ms_total")
              in
              [
                Cost_meter.category_name cat;
                Table.float_cell ~decimals:1 cost;
                Table.float_cell ~decimals:1 mirrored;
                String.make
                  (max 1 (int_of_float (Float.round (24. *. cost /. max_cost))))
                  '#';
              ])
            active));
    Format.printf "@.per-operation cost (log2 buckets, 1 ms .. overflow):@.";
    List.iter
      (fun op ->
        let labels = [ ("op", op); ("strategy", name) ] in
        match Metrics.histogram_buckets metrics ~labels "vmat_op_cost_ms" with
        | None -> ()
        | Some (_, counts) ->
            let n, sum =
              Option.value ~default:(0, 0.)
                (Metrics.histogram_totals metrics ~labels "vmat_op_cost_ms")
            in
            Format.printf "  %-6s |%s|  n=%d, mean %.1f ms@." op
              (Ascii_plot.sparkline
                 (Array.to_list (Array.map float_of_int counts)))
              n
              (if n = 0 then 0. else sum /. float_of_int n))
      [ "txn"; "query" ];
    Format.printf "@.counters and gauges:@.";
    let series =
      Metrics.fold_series metrics
        (fun acc ~name ~kind ~labels value ->
          match kind with
          | Metrics.Histogram -> acc
          | _ when value = 0. -> acc
          | _ ->
              let rendered =
                match labels with
                | [] -> name
                | l ->
                    name ^ "{"
                    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l)
                    ^ "}"
              in
              (rendered, value) :: acc)
        []
    in
    List.iter
      (fun (nm, v) -> Format.printf "  %-60s %.1f@." nm v)
      (List.sort (fun (n1, _) (n2, _) -> String.compare n1 n2) series);
    Option.iter
      (fun t -> Format.printf "@.trace: %d events recorded@." (Trace.event_count t))
      trace;
    Option.iter
      (fun path -> write_file path (Trace.to_chrome_json (Option.get trace)))
      trace_file;
    Option.iter (fun path -> write_file path (Metrics.to_prometheus metrics)) metrics_file;
    Option.iter (fun path -> write_file path (Metrics.to_json metrics)) metrics_json_file
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Profile one strategy with the full observability layer: measured costs \
          beside their mirrored metric counters, per-operation cost histograms as \
          sparklines, and every counter the run touched (buffer-pool hits, \
          screening tests, migrations).  With --live, profile the serving \
          subsystem instead, rendering a refreshing dashboard (TPS/QPS, latency \
          quantiles, hot keys) while it runs.")
    Term.(
      const run $ model_term $ params_term $ scale_term $ seed_term $ strategy_term
      $ live_term $ readers_term $ queries_term $ trace_term $ metrics_term
      $ metrics_json_term)

(* ------------------------------------------------------------------ *)
(* serve: the concurrent serving subsystem (DESIGN §10)                *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let strategy_term =
    Arg.(
      value
      & opt string "deferred"
      & info [ "strategy" ] ~docv:"NAME"
          ~doc:
            "Model-1 strategy the writer maintains the view with (deferred, \
             immediate, clustered, unclustered, sequential, recompute, adaptive).")
  in
  let readers_term =
    Arg.(
      value & opt pos_int 2
      & info [ "readers" ] ~docv:"N"
          ~doc:"Client domains executing view queries against pinned snapshots.")
  in
  let queries_term =
    Arg.(
      value & opt nonneg_int 200
      & info [ "queries" ] ~docv:"N" ~doc:"Range queries issued per reader domain.")
  in
  let publish_every_term =
    Arg.(
      value & opt pos_int 8
      & info [ "publish-every" ] ~docv:"N"
          ~doc:"Publish a new snapshot epoch every $(docv) committed transactions.")
  in
  let trace_sample_term =
    Arg.(
      value & opt nonneg_int 0
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Record flight events for every $(docv)-th query and transaction per \
             domain (deterministic counter sampling; 0 disables the flight \
             recorder).  Drained rings land in the report, in --trace / \
             --trace-jsonl artifacts, and in --metrics as vmat_flight_* series.")
  in
  let sketch_term =
    Arg.(
      value & flag
      & info [ "sketch" ]
          ~doc:
            "Maintain per-domain Space-Saving sketches over the quantized cluster \
             keys the workload touches (updated keys on the writer, queried keys \
             on readers), merged post-join into hot-key output and vmat_key_* \
             metrics.")
  in
  let flight_cap_term =
    Arg.(
      value & opt pos_int 4096
      & info [ "flight-cap" ] ~docv:"N"
          ~doc:
            "Per-domain flight-ring capacity; older events are evicted (and \
             counted as dropped) beyond it.  Only meaningful with --trace-sample.")
  in
  let trace_jsonl_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-jsonl" ] ~docv:"FILE"
          ~doc:"Write the trace as line-delimited JSON (one event per line) to $(docv).")
  in
  let dashboard_term =
    Arg.(
      value & flag
      & info [ "dashboard" ]
          ~doc:
            "Render a refreshing ASCII dashboard (TPS/QPS sparklines, latency \
             quantiles, meter-vs-metric costs, hot keys) every --dash-every epochs \
             while serving.")
  in
  let dash_dir_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "dash-dir" ] ~docv:"DIR"
          ~doc:
            "Write every dashboard frame as machine-readable JSON into $(docv) \
             (dash-NNNN.json per frame, dash-final.json for the merged post-join \
             frame).")
  in
  let dash_every_term =
    Arg.(
      value & opt pos_int 4
      & info [ "dash-every" ] ~docv:"K"
          ~doc:"Emit a dashboard frame every $(docv) epochs (with --dashboard or --dash-dir).")
  in
  let run p scale seed strat readers queries publish_every durability group_commit
      checkpoint_every sanitize trace_sample sketch flight_cap dashboard dash_dir
      dash_every trace_file trace_jsonl_file metrics_file metrics_json_file =
    let p = Experiment.scale p scale in
    let strategy = model1_strategy_of_name strat in
    let durability =
      match durability with
      | "none" -> Serve.No_wal
      | "wal" -> Serve.Wal_group_commit (wal_config ~group_commit ~checkpoint_every)
      | other ->
          Printf.eprintf "unknown durability mode %s (expected wal or none)\n" other;
          exit 2
    in
    let config =
      {
        Serve.readers;
        queries_per_reader = queries;
        publish_every;
        durability;
        record_observations = false;
        trace_sample;
        sketch_capacity = (if sketch then 64 else 0);
        flight_capacity = (if trace_sample > 0 then flight_cap else 0);
        dash_every = (if dashboard || dash_dir <> None then dash_every else 0);
      }
    in
    let recorder, flush_obs =
      make_recorder ~trace_jsonl_file ~trace_file ~metrics_file ~metrics_json_file
    in
    let on_snapshot = make_dash_sink ~live:dashboard ~dash_dir in
    let r =
      Serve.run ~config ?recorder ?on_snapshot ?sanitize:(sanitize_opt sanitize) ~seed
        ~params:p ~strategy ()
    in
    Printf.printf
      "serving %s: N=%.0f, %d reader%s x %d queries, epoch every %d txns, durability %s\n"
      r.Serve.r_strategy p.Params.n_tuples r.Serve.r_readers
      (if r.Serve.r_readers = 1 then "" else "s")
      queries publish_every
      (match durability with
      | Serve.No_wal -> "none"
      | Serve.Wal_group_commit c ->
          Printf.sprintf "wal (group commit %d)" c.Wal.group_commit);
    Printf.printf "  transactions     %6d   (%.0f tps)\n" r.Serve.r_txns r.Serve.r_tps;
    Printf.printf "  queries          %6d   (%.0f qps)\n" r.Serve.r_queries r.Serve.r_qps;
    Printf.printf "  epochs published %6d   (reclaimed %d, live %d, max live %d)\n"
      r.Serve.r_epochs r.Serve.r_reclaimed r.Serve.r_live r.Serve.r_max_live;
    let pl tag (l : Serve.latency) =
      Printf.printf
        "  %s latency us  p50 %8.1f  p95 %8.1f  p99 %8.1f  max %8.1f  (mean %.1f, n=%d)\n"
        tag l.Serve.l_p50_us l.Serve.l_p95_us l.Serve.l_p99_us l.Serve.l_max_us
        l.Serve.l_mean_us l.Serve.l_count
    in
    pl "query" r.Serve.r_query_latency;
    pl "txn  " r.Serve.r_txn_latency;
    Printf.printf "  modeled cost     %.1f ms excluding base [%s]\n" r.Serve.r_modeled_ms
      (String.concat ", "
         (List.filter_map
            (fun (cat, cost) ->
              if cost > 0. then
                Some (Printf.sprintf "%s=%.0f" (Cost_meter.category_name cat) cost)
              else None)
            r.Serve.r_category_costs));
    if r.Serve.r_sanitize_checks > 0 then
      Printf.printf "  sanitizers       %d checks, %d violations\n"
        r.Serve.r_sanitize_checks r.Serve.r_sanitize_violations;
    Printf.printf "  final digest     %s\n" r.Serve.r_final_digest;
    print_serve_obs r;
    flush_obs ();
    (* Machine-checkable closing line (the CI serving-smoke job greps it). *)
    Printf.printf "serve: ok tps=%.1f qps=%.1f\n" r.Serve.r_tps r.Serve.r_qps
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a model-1 workload concurrently: one writer domain applies update \
          transactions and publishes MVCC snapshots at epoch boundaries; N reader \
          domains answer view range queries from pinned snapshots.  Reports \
          wall-clock TPS and p50/p95/p99 latency alongside the unchanged modeled \
          cost (DESIGN section 10).  --trace-sample, --sketch, --dashboard and \
          --dash-dir switch on the serving observability layer (DESIGN section 11); \
          all of it is off by default and none of it perturbs the modeled artifacts.")
    Term.(
      const run $ params_term $ scale_term $ seed_term $ strategy_term $ readers_term
      $ queries_term $ publish_every_term $ durability_term $ group_commit_term
      $ checkpoint_every_term $ sanitize_term $ trace_sample_term $ sketch_term
      $ flight_cap_term $ dashboard_term $ dash_dir_term $ dash_every_term $ trace_term
      $ trace_jsonl_term $ metrics_term $ metrics_json_term)

let shell_cmd =
  let run () =
    let db = Db.create () in
    Printf.printf
      "vmat shell -- statements end at newline; try:\n\
      \  create table r (id int key, pval float, amount float) size 100\n\
      \  insert into r values (1, 0.05, 10)\n\
      \  define view v (pval, amount) from r where pval < 0.1 cluster on pval using deferred\n\
      \    -- strategies: immediate, deferred, clustered, unclustered, sequential,\n\
      \    --             recompute, snapshot, adaptive (observes the workload and\n\
      \    --             migrates between disciplines on its own)\n\
      \  select * from v\n\
      \  cost          -- accumulated modeled cost\n\
      \  quit\n\n";
    let rec loop () =
      print_string "vmat> ";
      match read_line () with
      | exception End_of_file -> ()
      | "quit" | "exit" -> ()
      | "" -> loop ()
      | "cost" ->
          Printf.printf "%.0f ms modeled (excluding base maintenance)\n"
            (Cost_meter.total_cost ~excluding:[ Cost_meter.Base ] (Db.meter db));
          loop ()
      | line ->
          (match Db.exec db line with
          | Ok result -> Format.printf "%a@." Db.pp_result result
          | Error message -> Printf.printf "error: %s\n" message);
          loop ()
    in
    loop ()
  in
  Cmd.v
    (Cmd.info "shell"
       ~doc:"Interactive session: tables, views under chosen strategies, queries.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* Durability commands: crash-test and recover                         *)
(* ------------------------------------------------------------------ *)

let kind_arg name =
  match Crash_harness.kind_of_name (String.lowercase_ascii name) with
  | Some kind -> kind
  | None ->
      Printf.eprintf "unknown strategy kind %s (expected one of: %s)\n" name
        (String.concat ", " (List.map Crash_harness.kind_name Crash_harness.all_kinds));
      exit 2

let write_state_file path outcome =
  write_file path (String.concat "\n" (Crash_harness.state_lines outcome) ^ "\n")

let crash_test_cmd =
  let strategy_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "strategy" ] ~docv:"KIND"
          ~doc:
            "Only test $(docv) (immediate, deferred, clustered, unclustered, \
             sequential, adaptive).  Default: all six.")
  in
  let crash_at_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-at" ] ~docv:"K"
          ~doc:
            "Instead of the full matrix, crash once at fault point $(docv) and \
             stop, leaving the device exactly as the crash left it (requires \
             --dir and --strategy); inspect and heal it with `vmperf recover'.")
  in
  let dir_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Directory device for --crash-at (log segments + checkpoint images).")
  in
  let out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Write KIND-reference.txt and KIND-recovered.txt (canonical final \
             state of the uncrashed run and of recovery from the deepest crash \
             point) to $(docv) for a byte-for-byte diff — the CI recovery-smoke \
             job's artifact.")
  in
  let run p scale seed group_commit checkpoint_every strategy crash_at dir out =
    let p = Experiment.scale p scale in
    let config = wal_config ~group_commit ~checkpoint_every in
    let kinds =
      match strategy with
      | None -> Crash_harness.all_kinds
      | Some name -> [ kind_arg name ]
    in
    match crash_at with
    | Some point -> begin
        let kind =
          match kinds with
          | [ kind ] -> kind
          | _ ->
              Printf.eprintf "--crash-at needs --strategy to pick one kind\n";
              exit 2
        in
        let dev =
          match dir with
          | Some d -> Device.dir d
          | None ->
              Printf.eprintf "--crash-at needs --dir (the device must outlive the crash)\n";
              exit 2
        in
        let spec = Crash_harness.spec ~seed ~config ~params:p kind in
        match Crash_harness.crash_into spec ~dev ~crash_at:point with
        | Ok outcome ->
            Printf.printf
              "run completed before reaching point %d (%d ops, %d checkpoints) — \
               nothing to recover\n"
              point outcome.Crash_harness.oc_ops outcome.Crash_harness.oc_checkpoints
        | Error (label, _) ->
            Printf.printf "crashed at point %d (%s)\n" point label;
            Printf.printf "device: %s (%d bytes in %d files)\n" (Device.describe dev)
              (Device.total_bytes dev)
              (List.length (Device.files dev));
            Printf.printf "recover with: vmperf recover --dir %s --strategy %s --seed %d --scale %g\n"
              (Option.get dir) (Crash_harness.kind_name kind) seed scale
      end
    | None ->
        let total_mismatches = ref 0 in
        let rows =
          List.map
            (fun kind ->
              let spec = Crash_harness.spec ~seed ~config ~params:p kind in
              let m = Crash_harness.crash_matrix spec in
              total_mismatches := !total_mismatches + List.length m.Crash_harness.mx_mismatches;
              Option.iter
                (fun out_dir ->
                  let dev = Device.dir out_dir in
                  ignore (Device.describe dev);
                  let name = Crash_harness.kind_name kind in
                  write_state_file
                    (Filename.concat out_dir (name ^ "-reference.txt"))
                    m.Crash_harness.mx_reference;
                  (* The deepest crash point exercises the longest
                     checkpoint-plus-log-tail recovery. *)
                  match List.rev m.Crash_harness.mx_reports with
                  | deepest :: _ ->
                      write_state_file
                        (Filename.concat out_dir (name ^ "-recovered.txt"))
                        deepest.Crash_harness.cr_outcome
                  | [] -> ())
                out;
              let torn =
                List.length
                  (List.filter
                     (fun r ->
                       match r.Crash_harness.cr_tail with
                       | Wal_record.Clean -> false
                       | Wal_record.Torn | Wal_record.Bad_crc -> true)
                     m.Crash_harness.mx_reports)
              in
              [
                Crash_harness.kind_name kind;
                string_of_int m.Crash_harness.mx_points;
                string_of_int torn;
                string_of_int m.Crash_harness.mx_reference.Crash_harness.oc_checkpoints;
                (match m.Crash_harness.mx_mismatches with
                | [] -> "ok"
                | points ->
                    "MISMATCH at "
                    ^ String.concat "," (List.map string_of_int points));
              ])
            kinds
        in
        Printf.printf
          "crash-equivalence matrix at N = %.0f, seed %d, group commit %d, checkpoint \
           every %d:\n"
          p.Params.n_tuples seed config.Wal.group_commit config.Wal.checkpoint_every;
        print_endline
          (Table.render
             ~headers:[ "strategy"; "crash points"; "torn tails"; "checkpoints"; "recovery" ]
             rows);
        if !total_mismatches > 0 then begin
          Printf.eprintf "%d crash point(s) diverged from the uncrashed run\n"
            !total_mismatches;
          exit 1
        end
        else print_endline "every crash point recovered to the uncrashed outcome"
  in
  Cmd.v
    (Cmd.info "crash-test"
       ~doc:
         "Enumerate every WAL/checkpoint fault point the workload passes, crash at \
          each, recover, and verify the recovered run is logically identical to the \
          uncrashed one (exit 1 on any divergence).")
    Term.(
      const run $ params_term $ scale_term $ seed_term $ group_commit_term
      $ checkpoint_every_term $ strategy_term $ crash_at_term $ dir_term $ out_term)

let recover_cmd =
  (* The directory must exist: recovering a directory that is not there
     would create it and re-drive the whole workload from nothing. *)
  let dir_term =
    Arg.(
      required
      & opt (some dir) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Existing device directory holding the log segments and checkpoint images.")
  in
  let strategy_term =
    Arg.(
      value
      & opt string "deferred"
      & info [ "strategy" ] ~docv:"KIND"
          ~doc:"Strategy kind the crashed engine was running (must match crash-test).")
  in
  let state_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "state" ] ~docv:"FILE"
          ~doc:"Also write the canonical recovered state (view + base) to $(docv).")
  in
  let run p scale seed group_commit checkpoint_every strategy dir state =
    let p = Experiment.scale p scale in
    let config = wal_config ~group_commit ~checkpoint_every in
    let kind = kind_arg strategy in
    let dev = Device.dir dir in
    let spec = Crash_harness.spec ~seed ~config ~params:p kind in
    let outcome, scan = Crash_harness.recover_on spec ~dev in
    Printf.printf "device            %s\n" (Device.describe dev);
    (match scan.Recovery.sc_image with
    | None -> Printf.printf "checkpoint chain  none (recovering from the initial base)\n"
    | Some ch ->
        Printf.printf "checkpoint chain  full %s + %s (op %d, strategy %s)\n"
          (Checkpoint.file_name ch.Checkpoint.ch_full_id)
          (match ch.Checkpoint.ch_delta_ids with
          | [] -> "no deltas"
          | ids -> "deltas " ^ String.concat "," (List.map string_of_int ids))
          ch.Checkpoint.ch_op_index ch.Checkpoint.ch_strategy;
        Printf.printf "image bytes read  %d in %d images\n"
          (List.fold_left ( + ) 0 ch.Checkpoint.ch_image_bytes)
          (List.length ch.Checkpoint.ch_image_bytes));
    Printf.printf "log tail          %s%s\n"
      (Wal_record.tail_name scan.Recovery.sc_tail)
      (match scan.Recovery.sc_invalid with
      | None -> ""
      | Some (segment, keep) ->
          Printf.sprintf " (truncated %s to %d bytes)" segment keep);
    Printf.printf "log records       %d valid (%d bytes)\n" scan.Recovery.sc_records
      scan.Recovery.sc_log_bytes;
    Printf.printf "txns replayed     %d\n" (List.length scan.Recovery.sc_txns);
    Printf.printf "resume op         %d (next txn id %d)\n" scan.Recovery.sc_resume
      scan.Recovery.sc_next_txn_id;
    Printf.printf "re-driven to      %d ops, %d checkpoints\n"
      outcome.Crash_harness.oc_ops outcome.Crash_harness.oc_checkpoints;
    Printf.printf "final state       %d view rows, %d base tuples\n"
      (List.length outcome.Crash_harness.oc_view)
      (List.length outcome.Crash_harness.oc_base);
    Option.iter
      (fun path ->
        write_state_file path outcome;
        Printf.printf "state written to %s\n" path)
      state
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "ARIES-lite recovery of a crashed on-disk engine (see crash-test --crash-at): \
          load the newest valid checkpoint, replay the committed log tail, truncate \
          any torn frame, then re-drive the rest of the seeded workload.")
    Term.(
      const run $ params_term $ scale_term $ seed_term $ group_commit_term
      $ checkpoint_every_term $ strategy_term $ dir_term $ state_term)

let fleet_cmd =
  let views_term =
    Arg.(value & opt pos_int 64 & info [ "views" ] ~docv:"N" ~doc:"Number of views in the fleet.")
  in
  let overlap_term =
    Arg.(
      value
      & opt unit_float 0.5
      & info [ "overlap" ] ~docv:"FLOAT"
          ~doc:"Fraction of views that alias an earlier definition exactly.")
  in
  let subsume_term =
    Arg.(
      value
      & opt unit_float 0.25
      & info [ "subsume" ] ~docv:"FLOAT"
          ~doc:"Probability a fresh definition tightens an earlier one's range.")
  in
  let hetero_term =
    Arg.(
      value
      & opt unit_float 0.2
      & info [ "hetero" ] ~docv:"FLOAT"
          ~doc:"Probability a definition clusters on amount instead of pval.")
  in
  let zipf_term =
    Arg.(
      value
      & opt nonneg_float 1.1
      & info [ "zipf" ] ~docv:"S" ~doc:"Zipf exponent of the query popularity across views.")
  in
  let decide_term =
    Arg.(
      value
      & opt pos_int 8
      & info [ "decide-every" ] ~docv:"N" ~doc:"Fleet queries between advisor decision points.")
  in
  let no_advisor_term =
    Arg.(
      value
      & flag
      & info [ "no-advisor" ]
          ~doc:"Disable promote/demote; every shared definition stays materialized.")
  in
  let no_check_term =
    Arg.(
      value
      & flag
      & info [ "no-check" ]
          ~doc:
            "Skip the per-query equivalence check against the isolated oracles (the \
             isolated engines still run, for the cost comparison).")
  in
  let run views overlap subsume hetero zipf scale seed decide_every no_advisor no_check
      metrics_file metrics_json_file =
    let sc x = max 1 (int_of_float (float_of_int x *. scale)) in
    let opts =
      {
        Fleet_report.default_opts with
        Fleet_report.ro_views = views;
        ro_overlap = overlap;
        ro_subsume = subsume;
        ro_hetero = hetero;
        ro_zipf = zipf;
        ro_n_tuples = sc 2000;
        ro_k = sc 200;
        ro_q = max 16 (sc 100);
        ro_seed = seed;
        ro_advisor =
          (if no_advisor then None
           else Some { Fleet_advisor.default_config with Fleet_advisor.decide_every });
        ro_check = not no_check;
      }
    in
    let recorder, flush =
      make_recorder ~trace_jsonl_file:None ~trace_file:None ~metrics_file ~metrics_json_file
    in
    let r = Fleet_report.run_comparison ?recorder opts in
    Printf.printf
      "fleet of %d views (overlap %.2f, subsume %.2f, hetero %.2f, zipf %.1f, seed %d)\n"
      views overlap subsume hetero zipf seed;
    Printf.printf "workload: %d tuples, k=%d l=%d q=%d\n\n" opts.Fleet_report.ro_n_tuples
      opts.Fleet_report.ro_k opts.Fleet_report.ro_l opts.Fleet_report.ro_q;
    print_endline "view DAG:";
    List.iter (fun line -> Printf.printf "  %s\n" line) r.Fleet_report.r_dag;
    print_newline ();
    print_endline
      (Table.render
         ~headers:[ "node"; "kind"; "members"; "parent"; "state"; "rows"; "queries"; "applied" ]
         (List.map
            (fun n ->
              [
                n.Fleet.ni_name;
                n.Fleet.ni_kind;
                string_of_int (List.length n.Fleet.ni_members);
                Option.value n.Fleet.ni_parent ~default:"base";
                (if n.Fleet.ni_materialized then "materialized" else "transient");
                string_of_int n.Fleet.ni_rows;
                string_of_int n.Fleet.ni_queries;
                string_of_int n.Fleet.ni_applied;
              ])
            r.Fleet_report.r_nodes));
    (match r.Fleet_report.r_events with
    | [] -> print_endline "advisor: no promote/demote events"
    | events ->
        Printf.printf "advisor events (%d):\n" (List.length events);
        List.iter
          (fun (e : Fleet.event) ->
            let c = e.ev_costs in
            Printf.printf
              "  after query %4d: %-7s %-20s score %+.1f (margin %.1f; per window %.2f queries, \
               %.2f deltas; qc_mat %.1f qc_trans %.1f apply_mat %.1f build %.1f)\n"
              e.ev_query e.ev_action e.ev_node e.ev_score e.ev_margin e.ev_query_rate
              e.ev_delta_rate c.Fleet_advisor.qc_mat c.qc_trans c.apply_mat c.build)
          events);
    print_newline ();
    Printf.printf "%d views -> %d classes (+%d aliases), %d groups, %d materialized at end\n"
      r.Fleet_report.r_views r.Fleet_report.r_classes r.Fleet_report.r_aliases
      r.Fleet_report.r_groups r.Fleet_report.r_materialized;
    Printf.printf "refresh passes %d, promotions %d, demotions %d\n" r.Fleet_report.r_refreshes
      r.Fleet_report.r_promotions r.Fleet_report.r_demotions;
    Printf.printf "maintenance: shared %.0f ms vs isolated %.0f ms (%.2fx, %.2f vs %.2f ms/delta)\n"
      r.Fleet_report.r_shared_maint_ms r.Fleet_report.r_isolated_maint_ms
      r.Fleet_report.r_maint_speedup r.Fleet_report.r_shared_ms_per_delta
      r.Fleet_report.r_isolated_ms_per_delta;
    Printf.printf "total (excl. base): shared %.0f ms vs isolated %.0f ms (%.2fx)\n"
      r.Fleet_report.r_shared_total_ms r.Fleet_report.r_isolated_total_ms
      r.Fleet_report.r_total_speedup;
    Printf.printf "digest %s\n" r.Fleet_report.r_digest;
    flush ();
    if not r.Fleet_report.r_match then begin
      print_endline "fleet: MISMATCH against the isolated oracles";
      exit 1
    end;
    Printf.printf "fleet: ok (%s, %.2fx maintenance speedup)\n"
      (if opts.Fleet_report.ro_check then "verified against isolated oracles"
       else "checks skipped")
      r.Fleet_report.r_maint_speedup
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run a multi-view fleet (shared-subexpression DAG + online materialization \
          advisor) against isolated per-view engines on one Zipf-addressed stream: \
          print the DAG, advisor events and the cost comparison, verifying every \
          answer is value-identical (exit 1 on divergence).")
    Term.(
      const run $ views_term $ overlap_term $ subsume_term $ hetero_term $ zipf_term
      $ scale_term $ seed_term $ decide_term $ no_advisor_term $ no_check_term
      $ metrics_term $ metrics_json_term)

let () =
  let doc = "cost analysis and simulation of view materialization strategies (Hanson, SIGMOD 1987)" in
  let info = Cmd.info "vmperf" ~version:"1.0.0" ~doc in
  match
    Cmd.eval_value
      (Cmd.group info
         [
           params_cmd; costs_cmd; simulate_cmd; advise_cmd; regions_cmd; sweep_cmd;
           adapt_cmd; top_cmd; serve_cmd; shell_cmd; crash_test_cmd; recover_cmd;
           fleet_cmd;
         ])
  with
  | exception Sanitize.Violation message ->
      Printf.eprintf "sanitizer violation: %s\n" message;
      exit 3
  | Ok (`Ok () | `Version | `Help) -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit Cmd.Exit.internal_error
