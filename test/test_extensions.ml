open Core
open Core.Predicate

let test_tids = Tuple.source ()

(* Tests for the section-4 extensions: refresh policies and snapshots, the
   split-AD ablation, multi-view shared refresh, triggers/alerters, the
   access-path planner, and the cost-model extension formulas. *)

let geometry = { Strategy.page_bytes = 400; index_entry_bytes = 20 }

(* each engine owns an isolated ctx; engines whose answers are compared pin
   the same first_tid so their generated view tids agree *)
let fresh_ctx () = Ctx.create ~geometry ~first_tid:1_000_000 ()

let sp_env dataset ctx =
  {
    Strategy_sp.ctx;
    view = dataset.Dataset.m1_view;
    initial = dataset.Dataset.m1_tuples;
    ad_buckets = 4;
  }

let model1_workload ?(seed = 51) ?(n = 200) ?(f = 0.4) ?(k = 20) ?(l = 4) ?(q = 8) () =
  let rng = Rng.create seed in
  let dataset = Dataset.make_model1 ~rng ~tids:test_tids ~n ~f ~s_bytes:100 in
  let tuples = Array.of_list dataset.m1_tuples in
  let ops =
    Stream.generate ~rng ~tuples
      ~mutate:
        (Stream.mutate_column ~tids:test_tids ~col:2 (fun rng -> Value.Float (float_of_int (Rng.int rng 100))))
      ~k ~l ~q
      ~query_of:(Stream.range_query_of ~lo_max:(0.8 *. f) ~width:(0.2 *. f))
  in
  (dataset, ops)

let run_measure ctor dataset ops =
  let ctx = fresh_ctx () in
  Runner.run ~ctx ~strategy:(ctor (sp_env dataset ctx)) ~ops ()

let answers (strategy : Strategy.t) ops =
  List.filter_map
    (fun op ->
      match op with
      | Stream.Txn changes ->
          strategy.Strategy.handle_transaction changes;
          None
      | Stream.Query q ->
          let bag = Bag.create () in
          List.iter
            (fun (t, c) ->
              for _ = 1 to c do
                ignore (Bag.add bag t)
              done)
            (strategy.Strategy.answer_query q);
          Some bag)
    ops

(* ------------------------------------------------------------------ *)
(* Refresh policies                                                    *)
(* ------------------------------------------------------------------ *)

let test_periodic_same_answers () =
  let dataset, ops = model1_workload () in
  let reference =
    let ctx = fresh_ctx () in
    answers (Strategy_sp.deferred (sp_env dataset ctx)) ops
  in
  List.iter
    (fun every ->
      let ctx = fresh_ctx () in
      let periodic = answers (Strategy_sp.deferred_periodic ~every (sp_env dataset ctx)) ops in
      List.iteri
        (fun i (a, b) ->
          if not (Bag.equal a b) then Alcotest.failf "every=%d: query %d differs" every i)
        (List.combine reference periodic))
    [ 1; 2; 5 ]

let test_periodic_costs_more_refresh_io () =
  (* The Yao triangle inequality at work: refreshing more often never reduces
     total refresh + differential-file I/O. *)
  let dataset, ops = model1_workload ~n:400 ~k:40 ~l:6 ~q:8 () in
  let refresh_cost ctor =
    let m = run_measure ctor dataset ops in
    List.assoc Cost_meter.Refresh m.Runner.category_costs
  in
  let on_demand = refresh_cost Strategy_sp.deferred in
  let every2 = refresh_cost (Strategy_sp.deferred_periodic ~every:2) in
  let every1 = refresh_cost (Strategy_sp.deferred_periodic ~every:1) in
  Alcotest.(check bool)
    (Printf.sprintf "on-demand (%.0f) <= every-2 (%.0f) <= every-1 (%.0f)" on_demand every2
       every1)
    true
    (on_demand <= every2 +. 1e-6 && every2 <= every1 +. 1e-6)

let test_periodic_validation () =
  let dataset, _ = model1_workload () in
  match Strategy_sp.deferred_periodic ~every:0 (sp_env dataset (fresh_ctx ())) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "every=0 accepted"

let test_async_same_answers_lower_visible_cost () =
  (* §4: asynchronous (idle-time) refresh gives the same answers while the
     query path no longer pays the refresh. *)
  let dataset, ops = model1_workload ~seed:61 ~n:400 ~k:30 ~l:6 ~q:10 () in
  let plain_answers =
    let ctx = fresh_ctx () in
    answers (Strategy_sp.deferred (sp_env dataset ctx)) ops
  in
  let async_answers =
    let ctx = fresh_ctx () in
    answers (Strategy_sp.deferred_async (sp_env dataset ctx)) ops
  in
  List.iteri
    (fun i (a, b) -> if not (Bag.equal a b) then Alcotest.failf "query %d differs" i)
    (List.combine plain_answers async_answers);
  let plain = run_measure Strategy_sp.deferred dataset ops in
  let async = run_measure Strategy_sp.deferred_async dataset ops in
  Alcotest.(check bool)
    (Printf.sprintf "async visible cost (%.0f) < deferred (%.0f)"
       async.Runner.cost_per_query plain.Runner.cost_per_query)
    true
    (async.Runner.cost_per_query < plain.Runner.cost_per_query);
  (* the work did not vanish: it moved to the excluded idle category *)
  let base m = List.assoc Cost_meter.Base m.Runner.category_costs in
  Alcotest.(check bool) "idle work recorded" true (base async > base plain)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let test_snapshot_staleness_and_catchup () =
  let rng = Rng.create 52 in
  let dataset = Dataset.make_model1 ~rng ~tids:test_tids ~n:100 ~f:1.0 ~s_bytes:100 in
  let snap = Strategy_sp.snapshot ~period:2 (sp_env dataset (fresh_ctx ())) in
  let live = Array.of_list dataset.m1_tuples in
  let change idx =
    let old_tuple = live.(idx) in
    let new_tuple =
      Tuple.with_tid (Tuple.set old_tuple 2 (Value.Float 777.)) (Tuple.next test_tids)
    in
    live.(idx) <- new_tuple;
    Strategy.modify ~old_tuple ~new_tuple
  in
  let whole = { Strategy.q_lo = Value.Float 0.; q_hi = Value.Float 1. } in
  let count_777 () =
    List.length
      (List.filter
         (fun (t, _) -> Value.equal (Value.Float 777.) (Tuple.get t 1))
         (snap.Strategy.answer_query whole))
  in
  (* one transaction: snapshot (period 2) has not refreshed yet -> stale *)
  snap.Strategy.handle_transaction [ change 0 ];
  Alcotest.(check int) "stale after 1 txn" 0 (count_777 ());
  (* second transaction triggers the periodic refresh *)
  snap.Strategy.handle_transaction [ change 1 ];
  Alcotest.(check int) "fresh after period" 2 (count_777 ());
  (* view_contents reports the logical (fresh) state regardless *)
  Alcotest.(check int) "logical contents fresh" 100
    (Bag.total_size (snap.Strategy.view_contents ()))

let test_snapshot_cheaper_queries_than_deferred () =
  (* Snapshots skip the on-demand refresh, so with many queries per
     transaction their query-path cost is lower (they pay with staleness). *)
  let dataset, ops = model1_workload ~n:400 ~k:4 ~l:10 ~q:40 () in
  let deferred = run_measure Strategy_sp.deferred dataset ops in
  let snapshot = run_measure (Strategy_sp.snapshot ~period:2) dataset ops in
  Alcotest.(check bool) "snapshot cheaper per query" true
    (snapshot.Runner.cost_per_query < deferred.Runner.cost_per_query)

(* ------------------------------------------------------------------ *)
(* Split AD files                                                      *)
(* ------------------------------------------------------------------ *)

let test_split_ad_same_answers () =
  let dataset, ops = model1_workload ~seed:53 () in
  let reference =
    let ctx = fresh_ctx () in
    answers (Strategy_sp.deferred (sp_env dataset ctx)) ops
  in
  let split =
    let ctx = fresh_ctx () in
    answers (Strategy_sp.deferred_split_ad (sp_env dataset ctx)) ops
  in
  List.iteri
    (fun i (a, b) -> if not (Bag.equal a b) then Alcotest.failf "query %d differs" i)
    (List.combine reference split)

let test_split_ad_costs_more_io () =
  (* §2.2.2: the combined AD file needs 3 I/Os per update where separate A
     and D files need at least 5. *)
  let dataset, ops = model1_workload ~n:400 ~k:40 ~l:8 ~q:8 () in
  let combined = run_measure Strategy_sp.deferred dataset ops in
  let split = run_measure Strategy_sp.deferred_split_ad dataset ops in
  let io m = m.Runner.physical_reads + m.Runner.physical_writes in
  Alcotest.(check bool)
    (Printf.sprintf "split (%d) > combined (%d) I/O" (io split) (io combined))
    true
    (io split > io combined);
  (* the gap is specifically in the Hr category (extra differential reads) *)
  let hr m = List.assoc Cost_meter.Hr m.Runner.category_costs in
  Alcotest.(check bool) "extra cost lands in Hr" true (hr split > hr combined)

let test_hr_split_layout_semantics () =
  (* the split layout preserves all hypothetical-relation semantics *)
  let schema =
    Schema.make ~name:"R"
      ~columns:
        Schema.[
          { name = "id"; ty = T_int };
          { name = "pval"; ty = T_float };
          { name = "amount"; ty = T_float };
        ]
      ~tuple_bytes:100 ~key:"id"
  in
  let disk = Disk.create (Cost_meter.create ()) in
  let base =
    Btree.create ~disk ~name:"R" ~fanout:8 ~leaf_capacity:4
      ~key_col:1
      ()
  in
  let t0 = Tuple.make ~tid:100 [| Value.Int 1; Value.Float 0.5; Value.Float 1. |] in
  Btree.bulk_load base [ t0 ];
  let hr =
    Hr.create ~tids:test_tids ~disk ~base ~schema ~ad_buckets:4 ~tuples_per_page:4
      ~layout:Hr.Split ()
  in
  let t1 = Tuple.make ~tid:101 [| Value.Int 1; Value.Float 0.5; Value.Float 2. |] in
  Hr.apply_update hr ~old_tuple:t0 ~new_tuple:t1 ~marked_old:true ~marked_new:true;
  Hr.apply_insert hr (Tuple.make ~tid:102 [| Value.Int 2; Value.Float 0.6; Value.Float 3. |]) ~marked:true;
  Hr.end_transaction hr;
  let a_net, d_net = Hr.net_changes_unmetered hr in
  Alcotest.(check int) "a_net" 2 (List.length a_net);
  Alcotest.(check int) "d_net" 1 (List.length d_net);
  Alcotest.(check int) "entries across both files" 3 (Hr.ad_entry_count hr);
  Alcotest.(check (list int)) "read-through sees new version" [ 101 ]
    (List.filter_map
       (fun t -> if Value.equal (Tuple.get t 0) (Value.Int 1) then Some (Tuple.tid t) else None)
       (Hr.contents_unmetered hr));
  Hr.reset hr (Hr.net_changes hr);
  Alcotest.(check int) "reset clears both files" 0 (Hr.ad_entry_count hr);
  Alcotest.(check int) "base folded" 2 (Btree.tuple_count base)

(* ------------------------------------------------------------------ *)
(* Multi-view: one fleet, every view kept materialized (§4)            *)
(* ------------------------------------------------------------------ *)

let make_views base =
  List.map
    (fun (name, lo, hi) ->
      View_def.make_sp ~name ~base
        ~pred:(Between (1, Value.Float lo, Value.Float hi))
        ~project:[ "pval"; "amount" ] ~cluster:"pval")
    [ ("narrow", 0., 0.1); ("middle", 0.2, 0.5); ("wide", 0., 0.9) ]

let test_multiview_matches_separate_instances () =
  let rng = Rng.create 54 in
  let dataset = Dataset.make_model1 ~rng ~tids:test_tids ~n:200 ~f:0.5 ~s_bytes:100 in
  let base = dataset.m1_schema in
  let views = make_views base in
  let multi =
    Fleet.create ~ctx:(fresh_ctx ()) ~base ~views ~initial:dataset.m1_tuples ~ad_buckets:4
      ~advisor:None ()
  in
  let separate =
    List.map
      (fun (v : View_def.sp) ->
        ( v.sp_name,
          Strategy_sp.deferred
            { Strategy_sp.ctx = fresh_ctx (); view = v; initial = dataset.m1_tuples; ad_buckets = 4 } ))
      views
  in
  let tuples = Array.of_list dataset.m1_tuples in
  let ops =
    Stream.generate ~rng ~tuples
      ~mutate:
        (Stream.mutate_column ~tids:test_tids ~col:2 (fun rng -> Value.Float (float_of_int (Rng.int rng 100))))
      ~k:15 ~l:4 ~q:5
      ~query_of:(Stream.range_query_of ~lo_max:0.5 ~width:0.1)
  in
  List.iter
    (fun op ->
      match op with
      | Stream.Txn changes ->
          Fleet.handle_transaction multi changes;
          List.iter (fun (_, s) -> s.Strategy.handle_transaction changes) separate
      | Stream.Query q ->
          List.iter
            (fun (name, s) ->
              let bag_of results =
                let bag = Bag.create () in
                List.iter
                  (fun (t, c) ->
                    for _ = 1 to c do
                      ignore (Bag.add bag t)
                    done)
                  results;
                bag
              in
              let from_multi = bag_of (Fleet.answer_query multi ~view:name q) in
              let from_single = bag_of (s.Strategy.answer_query q) in
              if not (Bag.equal from_multi from_single) then
                Alcotest.failf "view %s: multi != single" name)
            separate)
    ops;
  (* final contents agree too *)
  List.iter
    (fun (name, s) ->
      if not (Bag.equal (Fleet.view_contents multi ~view:name) (s.Strategy.view_contents ()))
      then Alcotest.failf "view %s: final contents differ" name)
    separate

let test_multiview_shares_ad_read () =
  (* one shared refresh serves all views: the fleet's Refresh and Hr I/O is
     below the sum of three separate deferred instances *)
  let rng = Rng.create 55 in
  let dataset = Dataset.make_model1 ~rng ~tids:test_tids ~n:400 ~f:0.9 ~s_bytes:100 in
  let base = dataset.m1_schema in
  let views = make_views base in
  let tuples = Array.of_list dataset.m1_tuples in
  let ops =
    Stream.generate ~rng ~tuples
      ~mutate:
        (Stream.mutate_column ~tids:test_tids ~col:2 (fun rng -> Value.Float (float_of_int (Rng.int rng 100))))
      ~k:30 ~l:6 ~q:6
      ~query_of:(Stream.range_query_of ~lo_max:0.05 ~width:0.05)
  in
  (* shared *)
  let ctx = fresh_ctx () in
  let meter = Ctx.meter ctx in
  let multi =
    Fleet.create ~ctx ~base ~views ~initial:dataset.m1_tuples ~ad_buckets:4 ~advisor:None ()
  in
  Cost_meter.reset meter;
  List.iter
    (fun op ->
      match op with
      | Stream.Txn changes -> Fleet.handle_transaction multi changes
      | Stream.Query q ->
          List.iter (fun v -> ignore (Fleet.answer_query multi ~view:v q)) (Fleet.view_names multi))
    ops;
  let shared_hr_and_refresh =
    Cost_meter.cost meter Cost_meter.Refresh +. Cost_meter.cost meter Cost_meter.Hr
  in
  Alcotest.(check bool) "refreshed at least once" true (Fleet.refreshes multi > 0);
  (* separate instances *)
  let separate_total =
    List.fold_left
      (fun acc (v : View_def.sp) ->
        let ctx = fresh_ctx () in
        let meter = Ctx.meter ctx in
        let s =
          Strategy_sp.deferred
            { Strategy_sp.ctx; view = v; initial = dataset.m1_tuples; ad_buckets = 4 }
        in
        Cost_meter.reset meter;
        List.iter
          (fun op ->
            match op with
            | Stream.Txn changes -> s.Strategy.handle_transaction changes
            | Stream.Query q -> ignore (s.Strategy.answer_query q))
          ops;
        acc
        +. Cost_meter.cost meter Cost_meter.Refresh
        +. Cost_meter.cost meter Cost_meter.Hr)
      0. views
  in
  Alcotest.(check bool)
    (Printf.sprintf "shared (%.0f) < separate sum (%.0f)" shared_hr_and_refresh separate_total)
    true
    (shared_hr_and_refresh < separate_total)

let test_multiview_validation () =
  let rng = Rng.create 56 in
  let dataset = Dataset.make_model1 ~rng ~tids:test_tids ~n:20 ~f:0.5 ~s_bytes:100 in
  (match
     Fleet.create ~ctx:(fresh_ctx ()) ~base:dataset.m1_schema ~views:[]
       ~initial:dataset.m1_tuples ~ad_buckets:2 ~advisor:None ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty view list accepted");
  let v = List.hd (make_views dataset.m1_schema) in
  match
    Fleet.create ~ctx:(fresh_ctx ()) ~base:dataset.m1_schema ~views:[ v; v ]
      ~initial:dataset.m1_tuples ~ad_buckets:2 ~advisor:None ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate names accepted"

(* ------------------------------------------------------------------ *)
(* Triggers                                                            *)
(* ------------------------------------------------------------------ *)

let trigger_setup conditions =
  let rng = Rng.create 57 in
  let dataset = Dataset.make_model3 ~rng ~tids:test_tids ~n:20 ~f:1.0 ~s_bytes:100 ~kind:(`Sum "amount") in
  let t =
    Trigger.create ~ctx:(fresh_ctx ()) ~agg:dataset.m3_agg ~initial:dataset.m3_tuples
      ~conditions ()
  in
  (t, Array.of_list dataset.m3_tuples)

let bump_amount live idx delta =
  let old_tuple = live.(idx) in
  let new_amount = Value.as_float (Tuple.get old_tuple 2) +. delta in
  let new_tuple =
    Tuple.with_tid (Tuple.set old_tuple 2 (Value.Float new_amount)) (Tuple.next test_tids)
  in
  live.(idx) <- new_tuple;
  Strategy.modify ~old_tuple ~new_tuple

let test_trigger_threshold_fires_once_per_crossing () =
  let t, live = trigger_setup [] in
  let initial = Trigger.current_value t in
  let t, live2 = trigger_setup [ Trigger.Above (initial +. 50.) ] in
  ignore live;
  (* push the sum up past the threshold in two steps of +30 *)
  Trigger.handle_transaction t [ bump_amount live2 0 30. ];
  Alcotest.(check int) "not fired yet" 0 (List.length (Trigger.events t));
  Trigger.handle_transaction t [ bump_amount live2 1 30. ];
  (match Trigger.events t with
  | [ event ] ->
      Alcotest.(check int) "fired at txn 2" 2 event.Trigger.transaction;
      Alcotest.(check bool) "value above threshold" true (event.Trigger.value > initial +. 50.)
  | events -> Alcotest.failf "expected 1 event, got %d" (List.length events));
  (* staying above does not re-fire *)
  Trigger.handle_transaction t [ bump_amount live2 2 30. ];
  Alcotest.(check int) "no re-fire" 1 (List.length (Trigger.events t));
  (* dropping below and crossing again re-fires *)
  Trigger.handle_transaction t [ bump_amount live2 0 (-200.) ];
  Trigger.handle_transaction t [ bump_amount live2 1 500. ];
  Alcotest.(check int) "re-fires after re-crossing" 2 (List.length (Trigger.events t))

let test_trigger_empty_nonempty () =
  let rng = Rng.create 58 in
  (* f = 0.5 view: tuples with pval < 0.5 are aggregated *)
  let dataset = Dataset.make_model3 ~rng ~tids:test_tids ~n:4 ~f:0.5 ~s_bytes:100 ~kind:`Count in
  let t =
    Trigger.create ~ctx:(fresh_ctx ()) ~agg:dataset.m3_agg ~initial:[]
      ~conditions:[ Trigger.Nonempty; Trigger.Empty ] ()
  in
  let inside = Tuple.make ~tid:(Tuple.next test_tids) [| Value.Int 1; Value.Float 0.1; Value.Float 1.; Value.Str "n" |] in
  Trigger.handle_transaction t [ Strategy.insert inside ];
  Alcotest.(check int) "nonempty fired" 1
    (List.length (List.filter (fun e -> e.Trigger.condition = Trigger.Nonempty) (Trigger.events t)));
  Trigger.handle_transaction t [ Strategy.delete inside ];
  Alcotest.(check int) "empty fired" 1
    (List.length (List.filter (fun e -> e.Trigger.condition = Trigger.Empty) (Trigger.events t)))

let test_trigger_screens_irrelevant_updates () =
  let rng = Rng.create 59 in
  let dataset = Dataset.make_model3 ~rng ~tids:test_tids ~n:10 ~f:0.0001 ~s_bytes:100 ~kind:(`Sum "amount") in
  let t =
    Trigger.create ~ctx:(fresh_ctx ()) ~agg:dataset.m3_agg ~initial:dataset.m3_tuples
      ~conditions:[ Trigger.Above 0. ] ()
  in
  let live = Array.of_list dataset.m3_tuples in
  let before = Trigger.current_value t in
  Trigger.handle_transaction t [ bump_amount live 0 10. ];
  (* virtually no tuple passes the f = .0001 predicate, so nothing changes *)
  Alcotest.(check (float 1e-9)) "value unchanged" before (Trigger.current_value t)

let test_condition_holds () =
  Alcotest.(check bool) "above" true (Trigger.condition_holds (Above 5.) ~value:6. ~cardinality:1);
  Alcotest.(check bool) "above nan" false
    (Trigger.condition_holds (Above 5.) ~value:Float.nan ~cardinality:0);
  Alcotest.(check bool) "below" true (Trigger.condition_holds (Below 5.) ~value:4. ~cardinality:1);
  Alcotest.(check bool) "nonempty" false
    (Trigger.condition_holds Trigger.Nonempty ~value:0. ~cardinality:0);
  Alcotest.(check bool) "empty" true (Trigger.condition_holds Trigger.Empty ~value:0. ~cardinality:0)

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)
(* ------------------------------------------------------------------ *)

let planner_setup () =
  let rng = Rng.create 60 in
  (* amount uniform-ish in [0, 1000); base clustered on amount, the view on
     pval.  View predicate selects pval < .5. *)
  let dataset = Dataset.make_model1 ~rng ~tids:test_tids ~n:300 ~f:0.5 ~s_bytes:100 in
  let planner =
    Planner.create ~ctx:(fresh_ctx ()) ~view:dataset.m1_view ~base_cluster:"amount"
      ~initial:dataset.m1_tuples ()
  in
  (planner, dataset)

let test_planner_routes () =
  let planner, _ = planner_setup () in
  (* narrow range on the view's clustering column -> via view *)
  Alcotest.(check bool) "pval range via view" true
    (Planner.plan planner ~column:"pval" ~lo:(Value.Float 0.1) ~hi:(Value.Float 0.15)
    = Planner.Via_view);
  (* narrow range on the base clustering column -> via base *)
  Alcotest.(check bool) "amount range via base" true
    (Planner.plan planner ~column:"amount" ~lo:(Value.Int 100) ~hi:(Value.Int 105)
    = Planner.Via_base);
  (* a column not projected into the view can only go via base *)
  Alcotest.(check bool) "unprojected column via base" true
    (Planner.plan planner ~column:"note" ~lo:(Value.Str "a") ~hi:(Value.Str "z")
    = Planner.Via_base)

let test_planner_routes_agree () =
  let planner, dataset = planner_setup () in
  ignore dataset;
  let bag_of results =
    let bag = Bag.create () in
    List.iter
      (fun (t, c) ->
        for _ = 1 to c do
          ignore (Bag.add bag t)
        done)
      results;
    bag
  in
  List.iter
    (fun (column, lo, hi) ->
      let via_base = bag_of (Planner.answer_via planner Planner.Via_base ~column ~lo ~hi) in
      let via_view = bag_of (Planner.answer_via planner Planner.Via_view ~column ~lo ~hi) in
      if not (Bag.equal via_base via_view) then Alcotest.failf "routes disagree on %s" column)
    [
      ("pval", Value.Float 0.1, Value.Float 0.3);
      ("amount", Value.Float 100., Value.Float 400.);
    ]

let test_planner_after_updates () =
  let planner, dataset = planner_setup () in
  let live = Array.of_list dataset.m1_tuples in
  let old_tuple = live.(0) in
  let new_tuple =
    Tuple.with_tid (Tuple.set old_tuple 2 (Value.Float 123456.)) (Tuple.next test_tids)
  in
  Planner.handle_transaction planner [ Strategy.modify ~old_tuple ~new_tuple ];
  let route, results =
    Planner.answer planner ~column:"amount" ~lo:(Value.Float 123456.) ~hi:(Value.Float 123456.)
  in
  Alcotest.(check bool) "narrow amount query via base" true (route = Planner.Via_base);
  let expected = if Predicate.eval dataset.m1_view.sp_pred new_tuple then 1 else 0 in
  Alcotest.(check int) "updated tuple found iff in view" expected (List.length results)

let test_planner_charges_set_overhead () =
  (* a modification whose old and new images both pass the view predicate
     (it rewrites amount, which the view projects but does not test) *)
  let rng = Rng.create 60 in
  let dataset = Dataset.make_model1 ~rng ~tids:test_tids ~n:300 ~f:0.5 ~s_bytes:100 in
  let old_tuple = List.find (Predicate.eval dataset.m1_view.sp_pred) dataset.m1_tuples in
  let new_tuple =
    Tuple.with_tid (Tuple.set old_tuple 2 (Value.Float 7.)) (Tuple.next test_tids)
  in
  let txn = [ Strategy.modify ~old_tuple ~new_tuple ] in
  let overhead ctx handle_transaction =
    Cost_meter.reset (Ctx.meter ctx);
    handle_transaction txn;
    Cost_meter.cost (Ctx.meter ctx) Cost_meter.Overhead
  in
  let immediate =
    let ctx = fresh_ctx () in
    overhead ctx (Strategy_sp.immediate (sp_env dataset ctx)).Strategy.handle_transaction
  in
  let planner =
    let ctx = fresh_ctx () in
    overhead ctx
      (Planner.handle_transaction
         (Planner.create ~ctx ~view:dataset.m1_view ~base_cluster:"amount"
            ~initial:dataset.m1_tuples ()))
  in
  Alcotest.(check (float 0.)) "both images marked: 2 C3" 2. immediate;
  Alcotest.(check (float 0.)) "planner charges the A/D sets like immediate" immediate planner

let test_planner_skips_readily_ignorable () =
  (* a modification of Model 1's note column, which the view neither tests
     nor projects, to a tuple that is in the view *)
  let rng = Rng.create 60 in
  let dataset = Dataset.make_model1 ~rng ~tids:test_tids ~n:300 ~f:0.5 ~s_bytes:100 in
  let note_col = 3 in
  let old_tuple = List.find (Predicate.eval dataset.m1_view.sp_pred) dataset.m1_tuples in
  let new_tuple =
    Tuple.with_tid (Tuple.set old_tuple note_col (Value.Str "riu")) (Tuple.next test_tids)
  in
  let txn = [ Strategy.modify ~old_tuple ~new_tuple ] in
  let costs ctx handle_transaction =
    Cost_meter.reset (Ctx.meter ctx);
    handle_transaction txn;
    List.map (Cost_meter.cost (Ctx.meter ctx)) Cost_meter.[ Screen; Overhead; Refresh ]
  in
  let immediate =
    let ctx = fresh_ctx () in
    costs ctx (Strategy_sp.immediate (sp_env dataset ctx)).Strategy.handle_transaction
  in
  let planner =
    let ctx = fresh_ctx () in
    costs ctx
      (Planner.handle_transaction
         (Planner.create ~ctx ~view:dataset.m1_view ~base_cluster:"amount"
            ~initial:dataset.m1_tuples ()))
  in
  Alcotest.(check (list (float 0.))) "immediate: no screen, overhead or refresh" [ 0.; 0.; 0. ]
    immediate;
  Alcotest.(check (list (float 0.))) "planner charges like immediate" immediate planner

let test_planner_chosen_route_costs_less () =
  (* for a narrow range on the view's clustering column, the view route
     really is cheaper than forcing the base route, and vice versa *)
  let measure ~column ~lo ~hi route =
    let rng = Rng.create 60 in
    let dataset = Dataset.make_model1 ~rng ~tids:test_tids ~n:300 ~f:0.5 ~s_bytes:100 in
    let ctx = fresh_ctx () in
    let meter = Ctx.meter ctx in
    let planner =
      Planner.create ~ctx ~view:dataset.m1_view ~base_cluster:"amount"
        ~initial:dataset.m1_tuples ()
    in
    Cost_meter.reset meter;
    ignore (Planner.answer_via planner route ~column ~lo ~hi);
    Cost_meter.total_cost meter
  in
  let pval_query = ("pval", Value.Float 0.2, Value.Float 0.25) in
  let amount_query = ("amount", Value.Float 100., Value.Float 150.) in
  List.iter
    (fun ((column, lo, hi), cheap_route, dear_route) ->
      let cheap = measure ~column ~lo ~hi cheap_route in
      let dear = measure ~column ~lo ~hi dear_route in
      if cheap >= dear then
        Alcotest.failf "%s: planned route %.0f not cheaper than %.0f" column cheap dear)
    [
      (pval_query, Planner.Via_view, Planner.Via_base);
      (amount_query, Planner.Via_base, Planner.Via_view);
    ];
  (* and the plan function agrees with the measurement *)
  let planner, _ = planner_setup () in
  Alcotest.(check bool) "plan picks view for its clustering column" true
    (Planner.plan planner ~column:"pval" ~lo:(Value.Float 0.2) ~hi:(Value.Float 0.25)
    = Planner.Via_view)

(* ------------------------------------------------------------------ *)
(* Readily ignorable updates (Bune79), wired into the strategies        *)
(* ------------------------------------------------------------------ *)

let test_riu_skips_screening_and_maintenance () =
  (* the Model-1 view reads pval (predicate) and projects pval, amount;
     updates to the unread, unprojected note column are readily ignorable *)
  let rng = Rng.create 91 in
  let dataset = Dataset.make_model1 ~rng ~tids:test_tids ~n:150 ~f:0.5 ~s_bytes:100 in
  let note_col = 3 in
  let tuples = Array.of_list dataset.m1_tuples in
  let riu_ops =
    Stream.generate ~rng ~tuples
      ~mutate:
        (Stream.mutate_column ~tids:test_tids ~col:note_col (fun rng ->
             Value.Str (Printf.sprintf "n%d" (Rng.int rng 1000))))
      ~k:10 ~l:5 ~q:4
      ~query_of:(Stream.range_query_of ~lo_max:0.4 ~width:0.1)
  in
  List.iter
    (fun (name, ctor) ->
      let m = run_measure ctor dataset riu_ops in
      Alcotest.(check (float 1e-9)) (name ^ ": no screening for RIU updates") 0.
        (List.assoc Cost_meter.Screen m.Runner.category_costs);
      Alcotest.(check bool) (name ^ ": answers still flow") true
        (m.Runner.tuples_returned > 0))
    [ ("deferred", Strategy_sp.deferred); ("immediate", Strategy_sp.immediate) ];
  (* immediate also performs no view maintenance at all for RIU updates *)
  let m = run_measure Strategy_sp.immediate dataset riu_ops in
  Alcotest.(check (float 1e-9)) "no refresh I/O" 0.
    (List.assoc Cost_meter.Refresh m.Runner.category_costs);
  Alcotest.(check (float 1e-9)) "no A/D set overhead" 0.
    (List.assoc Cost_meter.Overhead m.Runner.category_costs);
  (* a pval-writing workload from the same seed is NOT ignorable *)
  let rng = Rng.create 91 in
  let dataset2 = Dataset.make_model1 ~rng ~tids:test_tids ~n:150 ~f:0.5 ~s_bytes:100 in
  let tuples2 = Array.of_list dataset2.m1_tuples in
  let hot_ops =
    Stream.generate ~rng ~tuples:tuples2
      ~mutate:(Stream.mutate_column ~tids:test_tids ~col:1 (fun rng -> Value.Float (Rng.float rng)))
      ~k:10 ~l:5 ~q:4
      ~query_of:(Stream.range_query_of ~lo_max:0.4 ~width:0.1)
  in
  let hot = run_measure Strategy_sp.immediate dataset2 hot_ops in
  Alcotest.(check bool) "non-RIU updates still screened" true
    (List.assoc Cost_meter.Screen hot.Runner.category_costs > 0.)

(* An RIU modification and a screened change to one tuple in one refresh
   epoch.  The RIU change's two A/D entries are unscreened, and cancellation
   pairs one of them with a screened entry of the same tuple instance, so
   the surviving half must take that entry's screening result: otherwise
   the old view row is kept ([note; amount]) or the new one is lost
   ([amount; note]).  Every deferred-family engine must answer like query
   modification and hold the recomputed contents, whether each step is its
   own transaction or all share one. *)

type riu_step = Note | Amount | Delete

let riu_chains =
  [
    ("note, amount", [ Note; Amount ]);
    ("amount, note", [ Amount; Note ]);
    ("note, delete", [ Note; Delete ]);
    ("note, note, amount", [ Note; Note; Amount ]);
    ("amount, note, note", [ Amount; Note; Note ]);
    ("note, amount, note", [ Note; Amount; Note ]);
  ]

let riu_dataset () =
  Dataset.make_model1 ~rng:(Rng.create 93) ~tids:test_tids ~n:60 ~f:0.7 ~s_bytes:100

(* The chain's changes, each image with a fresh tid, starting from [first]
   (already in the relation) or inserting it first. *)
let riu_changes ~insert_first first steps =
  let bump col tuple =
    let v =
      match Tuple.get tuple col with
      | Value.Float a -> Value.Float (a +. 1.)
      | Value.Str s -> Value.Str (s ^ "'")
      | v -> v
    in
    Tuple.with_tid (Tuple.set tuple col v) (Tuple.next test_tids)
  in
  let rec go current = function
    | [] -> []
    | Delete :: rest -> Strategy.delete current :: go current rest
    | ((Note | Amount) as step) :: rest ->
        let next = bump (match step with Note -> 3 | _ -> 2) current in
        Strategy.modify ~old_tuple:current ~new_tuple:next :: go next rest
  in
  (if insert_first then [ Strategy.insert first ] else []) @ go first steps

let check_riu_chain ~name ~pad ctor ~chain ~insert_first ~first steps ~one_txn =
  let dataset = riu_dataset () in
  let engine = ctor (sp_env dataset (fresh_ctx ())) in
  let qmod = Strategy_sp.qmod_sequential (sp_env dataset (fresh_ctx ())) in
  let recompute = Strategy_sp.recompute (sp_env dataset (fresh_ctx ())) in
  let changes = riu_changes ~insert_first (first dataset) steps in
  let txns = if one_txn then [ changes ] else List.map (fun c -> [ c ]) changes in
  let txns = txns @ List.init (pad (List.length txns)) (fun _ -> []) in
  List.iter
    (fun txn ->
      List.iter (fun (s : Strategy.t) -> s.Strategy.handle_transaction txn) [ engine; qmod; recompute ])
    txns;
  let full = { Strategy.q_lo = Value.Float (-1.); q_hi = Value.Float 2. } in
  let bag_of rows =
    let bag = Bag.create () in
    List.iter (fun (t, c) -> Bag.add_count bag t c) rows;
    bag
  in
  let case = Printf.sprintf "%s, %s, %s" name chain (if one_txn then "one txn" else "txn per step") in
  let got = engine.Strategy.answer_query full and want = qmod.Strategy.answer_query full in
  if not (Bag.equal (bag_of got) (bag_of want)) then
    Alcotest.failf "%s: %d rows answered, query modification answers %d" case (List.length got)
      (List.length want);
  if not (Bag.equal (engine.Strategy.view_contents ()) (recompute.Strategy.view_contents ())) then
    Alcotest.failf "%s: contents differ from recompute" case

let test_riu_chains ?(pad = fun _ -> 0) ctor name () =
  (* a tuple in the view (pval < 0.7), and a fresh one to insert *)
  let in_view dataset =
    List.find
      (fun t -> match Tuple.get t 1 with Value.Float p -> p < 0.5 | _ -> false)
      dataset.Dataset.m1_tuples
  in
  let fresh _ =
    Tuple.make ~tid:(Tuple.next test_tids)
      [| Value.Int 1000; Value.Float 0.25; Value.Float 5.; Value.Str "p" |]
  in
  List.iter
    (fun one_txn ->
      List.iter
        (fun (chain, steps) ->
          check_riu_chain ~name ~pad ctor ~chain ~insert_first:false ~first:in_view steps ~one_txn)
        riu_chains;
      (* insert p, RIU p -> x, amount x -> z: cancelling the screened insert
         against the RIU delete must not leave a delete of an absent row *)
      check_riu_chain ~name ~pad ctor ~chain:"insert, note, amount" ~insert_first:true ~first:fresh
        [ Note; Amount ] ~one_txn)
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Cost-model extensions                                               *)
(* ------------------------------------------------------------------ *)

let test_refresh_rate_monotone () =
  let p = Params.defaults in
  let costs =
    List.map (fun m -> Extensions.deferred_refresh_rate p ~refreshes_per_query:m)
      [ 1.; 2.; 5.; 10.; 25. ]
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "non-decreasing in refresh rate" true (monotone costs);
  Alcotest.(check bool) "m=1 close to the plain deferred total" true
    (Stats.relative_error ~expected:(Model1.total_deferred p)
       ~actual:(List.hd costs)
    < 0.01)

let test_multidisk () =
  let p = Params.defaults in
  Alcotest.(check (float 1e-9)) "overlap 0 = plain deferred" (Model1.total_deferred p)
    (Extensions.deferred_multidisk p ~overlap:0.);
  Alcotest.(check bool) "overlap reduces cost" true
    (Extensions.deferred_multidisk p ~overlap:1. < Model1.total_deferred p);
  (match Extensions.deferred_multidisk p ~overlap:1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overlap > 1 accepted");
  (* the paper's claim: hiding HR I/O widens deferred's advantage over
     immediate *)
  let crossover_without = Extensions.multidisk_crossover_p p ~overlap:0. in
  let crossover_with = Extensions.multidisk_crossover_p p ~overlap:1. in
  match (crossover_without, crossover_with) with
  | _, Some with_overlap ->
      let without = Option.value ~default:1.0 crossover_without in
      Alcotest.(check bool)
        (Printf.sprintf "crossover moves down (%.3f -> %.3f)" without with_overlap)
        true
        (with_overlap <= without +. 1e-6)
  | _, None -> Alcotest.fail "no crossover even with full overlap"

let test_split_ad_formula () =
  let p = Params.defaults in
  let combined = Model1.total_deferred p in
  let split = Extensions.deferred_split_ad p in
  Alcotest.(check (float 1e-6)) "difference is exactly 2 C_AD" (2. *. Model1.c_ad p)
    (split -. combined)

let suites =
  [
    ( "ext.refresh-policy",
      [
        Alcotest.test_case "periodic same answers" `Quick test_periodic_same_answers;
        Alcotest.test_case "periodic refresh I/O monotone" `Quick
          test_periodic_costs_more_refresh_io;
        Alcotest.test_case "validation" `Quick test_periodic_validation;
        Alcotest.test_case "asynchronous refresh" `Quick
          test_async_same_answers_lower_visible_cost;
      ] );
    ( "ext.snapshot",
      [
        Alcotest.test_case "staleness and catch-up" `Quick test_snapshot_staleness_and_catchup;
        Alcotest.test_case "cheaper queries" `Quick test_snapshot_cheaper_queries_than_deferred;
      ] );
    ( "ext.split-ad",
      [
        Alcotest.test_case "same answers" `Quick test_split_ad_same_answers;
        Alcotest.test_case "costs more I/O (5 vs 3)" `Quick test_split_ad_costs_more_io;
        Alcotest.test_case "split layout semantics" `Quick test_hr_split_layout_semantics;
      ] );
    ( "ext.multi-view",
      [
        Alcotest.test_case "matches separate instances" `Quick
          test_multiview_matches_separate_instances;
        Alcotest.test_case "shares the AD read" `Quick test_multiview_shares_ad_read;
        Alcotest.test_case "validation" `Quick test_multiview_validation;
      ] );
    ( "ext.trigger",
      [
        Alcotest.test_case "threshold crossing" `Quick test_trigger_threshold_fires_once_per_crossing;
        Alcotest.test_case "empty/nonempty" `Quick test_trigger_empty_nonempty;
        Alcotest.test_case "screens irrelevant updates" `Quick
          test_trigger_screens_irrelevant_updates;
        Alcotest.test_case "condition semantics" `Quick test_condition_holds;
      ] );
    ( "ext.planner",
      [
        Alcotest.test_case "route choice" `Quick test_planner_routes;
        Alcotest.test_case "routes agree" `Quick test_planner_routes_agree;
        Alcotest.test_case "after updates" `Quick test_planner_after_updates;
        Alcotest.test_case "C3 per A/D set entry" `Quick test_planner_charges_set_overhead;
        Alcotest.test_case "readily-ignorable update costs nothing" `Quick
          test_planner_skips_readily_ignorable;
        Alcotest.test_case "chosen route measurably cheaper" `Quick
          test_planner_chosen_route_costs_less;
      ] );
    ( "ext.riu",
      [
        Alcotest.test_case "RIU skips screening and maintenance" `Quick
          test_riu_skips_screening_and_maintenance;
        Alcotest.test_case "RIU chains: deferred" `Quick
          (test_riu_chains Strategy_sp.deferred "deferred");
        Alcotest.test_case "RIU chains: deferred-async" `Quick
          (test_riu_chains Strategy_sp.deferred_async "deferred-async");
        Alcotest.test_case "RIU chains: deferred-split-ad" `Quick
          (test_riu_chains Strategy_sp.deferred_split_ad "deferred-split-ad");
        Alcotest.test_case "RIU chains: deferred-every-4" `Quick
          (test_riu_chains (Strategy_sp.deferred_periodic ~every:4) "deferred-every-4");
        Alcotest.test_case "RIU chains: snapshot after its period" `Quick
          (test_riu_chains
             ~pad:(fun txns -> 4 - txns)
             (Strategy_sp.snapshot ~period:4) "snapshot-4");
      ] );
    ( "ext.cost-model",
      [
        Alcotest.test_case "refresh rate monotone (Yao triangle)" `Quick
          test_refresh_rate_monotone;
        Alcotest.test_case "multi-disk overlap" `Quick test_multidisk;
        Alcotest.test_case "split AD formula" `Quick test_split_ad_formula;
      ] );
  ]
