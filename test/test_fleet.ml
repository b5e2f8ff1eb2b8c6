open Core

(* The fleet subsystem (DESIGN §14): the selection-projection IR must
   canonicalize reordered/flipped/redundant conjuncts, the DAG compiler must
   find aliases, containment edges and group hulls, the advisor's guards
   must hold, and — the design invariant — a fleet engine must be
   value-identical to isolated per-view engines on every answer and every
   final view content, across advisor promote/demote events. *)

let geometry = { Strategy.page_bytes = 400; index_entry_bytes = 20 }

let base_schema () =
  Schema.make ~name:"R"
    ~columns:
      Schema.
        [
          { name = "id"; ty = T_int };
          { name = "pval"; ty = T_float };
          { name = "amount"; ty = T_float };
          { name = "note"; ty = T_string };
        ]
    ~tuple_bytes:100 ~key:"id"

let sp ?(project = [ "pval"; "amount" ]) ?(cluster = "pval") name pred base =
  View_def.make_sp ~name ~base ~pred ~project ~cluster

let between lo hi = Predicate.Between (1, Value.Float lo, Value.Float hi)

(* ------------------------------------------------------------------ *)
(* IR normalization                                                    *)
(* ------------------------------------------------------------------ *)

let test_ir_canonical () =
  let a =
    Fleet_ir.normalize
      (Predicate.And
         ( Predicate.Cmp (Predicate.Ge, Predicate.Column 1, Predicate.Const (Value.Float 0.2)),
           Predicate.Cmp (Predicate.Le, Predicate.Column 1, Predicate.Const (Value.Float 0.5)) ))
  in
  let b = Fleet_ir.normalize (between 0.2 0.5) in
  Alcotest.(check bool) "cmp pair == between" true (Fleet_ir.equal a b);
  let flipped =
    Fleet_ir.normalize
      (Predicate.And
         ( Predicate.Cmp (Predicate.Le, Predicate.Const (Value.Float 0.2), Predicate.Column 1),
           Predicate.Cmp (Predicate.Ge, Predicate.Const (Value.Float 0.5), Predicate.Column 1) ))
  in
  Alcotest.(check bool) "flipped operands normalize" true (Fleet_ir.equal b flipped);
  let redundant = Fleet_ir.normalize (Predicate.And (between 0.2 0.5, between 0.0 0.9)) in
  Alcotest.(check bool) "redundant bound intersects away" true (Fleet_ir.equal b redundant)

let test_ir_relations () =
  let wide = Fleet_ir.normalize (between 0.1 0.8) in
  let narrow = Fleet_ir.normalize (between 0.3 0.5) in
  let apart = Fleet_ir.normalize (between 0.85 0.95) in
  Alcotest.(check bool) "wide subsumes narrow" true (Fleet_ir.subsumes wide narrow);
  Alcotest.(check bool) "narrow does not subsume wide" false (Fleet_ir.subsumes narrow wide);
  (match Fleet_ir.relation wide narrow with
  | Fleet_ir.Subsumes -> ()
  | _ -> Alcotest.fail "expected Subsumes");
  Alcotest.(check bool) "disjoint ranges" true (Fleet_ir.disjoint narrow apart);
  (match Fleet_ir.relation wide wide with
  | Fleet_ir.Equivalent -> ()
  | _ -> Alcotest.fail "expected Equivalent");
  let empty = Fleet_ir.normalize (between 0.9 0.1) in
  Alcotest.(check bool) "inverted bounds unsat" false (Fleet_ir.satisfiable empty);
  Alcotest.(check bool) "unsat subsumed by anything" true (Fleet_ir.subsumes apart empty)

let test_ir_common_prefix () =
  let p = between 0.2 0.6 in
  let a = Fleet_ir.normalize (Predicate.And (p, between 0.2 0.4)) in
  let b = Fleet_ir.normalize (Predicate.And (p, between 0.3 0.6)) in
  let common = Fleet_ir.common_conjuncts a b in
  Alcotest.(check bool) "overlapping envelopes share no exact conjunct" true
    (List.is_empty common);
  let c = Fleet_ir.normalize (Predicate.And (between 0.2 0.6, Predicate.True)) in
  let d = Fleet_ir.normalize p in
  Alcotest.(check bool) "identical envelope is the common prefix" false
    (List.is_empty (Fleet_ir.common_conjuncts c d))

(* ------------------------------------------------------------------ *)
(* DAG compilation                                                     *)
(* ------------------------------------------------------------------ *)

let test_dag_aliases_and_subsumption () =
  let base = base_schema () in
  let views =
    [
      sp "a" (between 0.1 0.8) base;
      sp "b" (between 0.3 0.5) base;
      sp "c" (between 0.1 0.8) base;
      (* alias of a *)
    ]
  in
  let dag = Fleet_dag.build ~base views in
  Alcotest.(check int) "two classes" 2 dag.Fleet_dag.dag_classes;
  Alcotest.(check int) "one alias" 1 dag.Fleet_dag.dag_aliases;
  let node_a = Fleet_dag.node_of_view dag "a" in
  let node_b = Fleet_dag.node_of_view dag "b" in
  let node_c = Fleet_dag.node_of_view dag "c" in
  Alcotest.(check int) "alias shares the class node" node_a.Fleet_dag.nd_id
    node_c.Fleet_dag.nd_id;
  Alcotest.(check (option int)) "narrow parented to wide" (Some node_a.Fleet_dag.nd_id)
    node_b.Fleet_dag.nd_parent;
  Alcotest.(check bool) "wide lists narrow as child" true
    (List.exists (fun c -> c = node_b.Fleet_dag.nd_id) node_a.Fleet_dag.nd_children)

let test_dag_group_hull () =
  let base = base_schema () in
  let views = [ sp "a" (between 0.1 0.3) base; sp "b" (between 0.5 0.7) base ] in
  let dag = Fleet_dag.build ~base views in
  Alcotest.(check int) "one group" 1 dag.Fleet_dag.dag_groups;
  let node_a = Fleet_dag.node_of_view dag "a" in
  let g =
    match node_a.Fleet_dag.nd_parent with
    | Some p -> dag.Fleet_dag.dag_nodes.(p)
    | None -> Alcotest.fail "class should be group-parented"
  in
  (match g.Fleet_dag.nd_kind with
  | Fleet_dag.Group -> ()
  | Fleet_dag.Class -> Alcotest.fail "parent should be a group");
  (match Fleet_ir.interval_on g.Fleet_dag.nd_norm ~col:1 with
  | Some iv ->
      Alcotest.(check (option string)) "hull lower bound" (Some (Value.key_string (Value.Float 0.1)))
        (Option.map Value.key_string iv.Fleet_ir.iv_lo);
      Alcotest.(check (option string)) "hull upper bound" (Some (Value.key_string (Value.Float 0.7)))
        (Option.map Value.key_string iv.Fleet_ir.iv_hi)
  | None -> Alcotest.fail "group must constrain the shared cluster column");
  Alcotest.(check int) "group ids precede children (topological)" 0 g.Fleet_dag.nd_id

let test_dag_no_overlap_degenerate () =
  let base = base_schema () in
  let views =
    [
      sp "a" (between 0.1 0.3) base;
      sp ~cluster:"amount" "b"
        (Predicate.Between (2, Value.Float 100., Value.Float 300.))
        base;
    ]
  in
  let dag = Fleet_dag.build ~base views in
  Alcotest.(check int) "no groups across different cluster columns" 0 dag.Fleet_dag.dag_groups;
  Alcotest.(check int) "two classes" 2 dag.Fleet_dag.dag_classes;
  List.iter
    (fun nd -> Alcotest.(check (option int)) "both base-parented" None nd.Fleet_dag.nd_parent)
    (Array.to_list dag.Fleet_dag.dag_nodes)

(* ------------------------------------------------------------------ *)
(* Advisor guards                                                      *)
(* ------------------------------------------------------------------ *)

let costs_cheap_mat = { Fleet_advisor.qc_mat = 2.; qc_trans = 100.; apply_mat = 1.; build = 50. }

(* One node's flip at a decision point, if any. *)
let decide_once adv ~materialized ~applied ~costs =
  let flips = ref [] in
  Fleet_advisor.decide adv
    ~materialized:(fun _ -> materialized)
    ~applied:(fun _ -> applied)
    ~costs_of:(fun _ -> costs)
    ~flip:(fun v -> flips := v :: !flips);
  match !flips with
  | [] -> None
  | [ v ] -> Some (v.Fleet_advisor.v_decision, v.Fleet_advisor.v_score)
  | _ -> Alcotest.fail "one node expected"

let test_advisor_promotes_hot () =
  let adv = Fleet_advisor.create ~n_nodes:1 () in
  for _ = 1 to 8 do
    Fleet_advisor.note_query adv [ 0 ]
  done;
  Alcotest.(check bool) "decision due after window" true (Fleet_advisor.decision_due adv);
  match decide_once adv ~materialized:false ~applied:0 ~costs:costs_cheap_mat with
  | Some (Fleet_advisor.Promote, score) -> Alcotest.(check bool) "positive score" true (score > 0.)
  | _ -> Alcotest.fail "hot transient node with cheap materialization must promote"

let test_advisor_demotes_cold () =
  let adv = Fleet_advisor.create ~n_nodes:1 () in
  (* No queries, heavy delta traffic: holding the node materialized only
     costs apply I/O. *)
  match
    decide_once adv ~materialized:true ~applied:50
      ~costs:{ Fleet_advisor.qc_mat = 2.; qc_trans = 10.; apply_mat = 5.; build = 50. }
  with
  | Some (Fleet_advisor.Demote, score) -> Alcotest.(check bool) "negative score" true (score < 0.)
  | _ -> Alcotest.fail "cold materialized node with delta traffic must demote"

let test_advisor_min_evidence_and_build_gate () =
  let adv = Fleet_advisor.create ~n_nodes:1 () in
  (* Nothing observed at all: stay put both ways. *)
  (match decide_once adv ~materialized:true ~applied:0 ~costs:costs_cheap_mat with
  | None -> ()
  | Some _ -> Alcotest.fail "no evidence must mean Stay");
  let adv = Fleet_advisor.create ~n_nodes:1 () in
  for _ = 1 to 8 do
    Fleet_advisor.note_query adv [ 0 ]
  done;
  (* Clear per-window win, but a build cost that can never amortize within
     the horizon: the break-even gate must block the promotion. *)
  match
    decide_once adv ~materialized:false ~applied:0
      ~costs:{ costs_cheap_mat with Fleet_advisor.build = 1.e12 }
  with
  | None -> ()
  | Some _ -> Alcotest.fail "build break-even gate must block promotion"

let test_advisor_window_counts_fleet_queries () =
  let adv = Fleet_advisor.create ~n_nodes:3 () in
  (* A query on transient node 2 whose answer flows through transient node
     1 to its server, node 0, credits all three nodes but is one fleet
     query. *)
  Fleet_advisor.note_query adv [ 2; 1; 0 ];
  Alcotest.(check int) "one fleet query in the window" 1 (Fleet_advisor.queries_in_window adv);
  for _ = 2 to 7 do
    Fleet_advisor.note_query adv [ 2; 1; 0 ]
  done;
  Alcotest.(check bool) "not due after 7 queries" false (Fleet_advisor.decision_due adv);
  Fleet_advisor.note_query adv [ 2; 1; 0 ];
  Alcotest.(check bool) "due after 8 queries" true (Fleet_advisor.decision_due adv);
  Fleet_advisor.decide adv
    ~materialized:(fun i -> i = 0)
    ~applied:(fun _ -> 0)
    ~costs_of:(fun _ -> { costs_cheap_mat with Fleet_advisor.qc_trans = 2. })
    ~flip:ignore;
  Alcotest.(check int) "window closed" 0 (Fleet_advisor.queries_in_window adv);
  (* Bias correction: after one window a rate reads the window's count. *)
  List.iter
    (fun i ->
      Alcotest.(check (float 1e-9)) "each credited node saw 8 queries" 8.
        (Fleet_advisor.node_query_rate adv i))
    [ 0; 1; 2 ]

(* Two-level DAG: node 0 is the parent of transient nodes 1 and 2, and
   every query on a child also credits the parent.  Promoting the parent
   makes the children's transient answers as cheap as stored ones, so once
   the parent has flipped neither child may promote. *)
let test_advisor_reprices_after_each_flip () =
  let adv = Fleet_advisor.create ~n_nodes:3 () in
  for i = 1 to 8 do
    Fleet_advisor.note_query adv [ 1 + (i mod 2); 0 ]
  done;
  let stored = Array.make 3 false in
  let priced_after_flip = ref [] in
  let costs_of i =
    if stored.(0) then priced_after_flip := i :: !priced_after_flip;
    if i = 0 || not stored.(0) then costs_cheap_mat
    else { costs_cheap_mat with Fleet_advisor.qc_trans = costs_cheap_mat.Fleet_advisor.qc_mat }
  in
  let flips = ref [] in
  Fleet_advisor.decide adv
    ~materialized:(fun i -> stored.(i))
    ~applied:(fun _ -> 0)
    ~costs_of
    ~flip:(fun v ->
      flips := v :: !flips;
      stored.(v.Fleet_advisor.v_node) <- v.Fleet_advisor.v_decision = Fleet_advisor.Promote);
  (match !flips with
  | [ { Fleet_advisor.v_node = 0; v_decision = Fleet_advisor.Promote; v_costs; _ } ] ->
      Alcotest.(check (float 0.)) "parent judged on its own price" 100. v_costs.Fleet_advisor.qc_trans
  | _ -> Alcotest.fail "only the parent may promote");
  Alcotest.(check (list int)) "children re-priced after the parent's flip" [ 1; 2 ]
    (List.sort compare !priced_after_flip)

(* The fleet-zipf benchmark's shape at 0.3 of its base size: 64 views (50%
   aliases), Zipf 1.1 popularity, 2000 transactions of 8 changes and 2000
   queries.  The advisor that advanced its window once per credited node
   and remembered ~3 windows made 497 promotions + demotions here (234 +
   263), reversing most of them within a few windows; it must now make at
   most a tenth of that, decide only on window boundaries, and cost less
   on the modeled clock than keeping every class stored. *)
let test_advisor_thrash_bounded () =
  let views = 64 and decide_every = Fleet_advisor.default_config.Fleet_advisor.decide_every in
  let rng = Rng.create 1 in
  let tids = Tuple.source () in
  let dataset = Dataset.make_model1 ~rng ~tids ~n:1500 ~f:0.5 ~s_bytes:100 in
  let base = dataset.Dataset.m1_schema and initial = dataset.Dataset.m1_tuples in
  let spec = Fleet_spec.overlapping_fleet ~rng:(Rng.create 11) ~base ~views ~overlap:0.5 () in
  let ops =
    Stream.generate_fleet ~rng:(Rng.create 12) ~tuples:(Array.of_list initial)
      ~mutate:
        (Stream.mutate_column ~tids ~col:2 (fun rng -> Value.Float (float_of_int (Rng.int rng 1000))))
      ~views ~zipf_s:1.1 ~k:2000 ~l:8 ~q:2000
      ~query_of:(fun rng v -> Fleet_spec.query_of spec ~fv:0.3 rng v)
  in
  let defs = Array.of_list spec.Fleet_spec.fs_views in
  let first_tid = Tuple.peek tids in
  let modeled_per_query advisor =
    let ctx = Ctx.create ~first_tid () in
    let fleet = Fleet.create ~ctx ~base ~views:spec.Fleet_spec.fs_views ~initial ~ad_buckets:4 ~advisor () in
    Cost_meter.reset (Ctx.meter ctx);
    List.iter
      (function
        | Stream.Ftxn changes -> Fleet.handle_transaction fleet changes
        | Stream.Fquery (v, q) -> ignore (Fleet.answer_query fleet ~view:defs.(v).View_def.sp_name q))
      ops;
    ( fleet,
      Cost_meter.total_cost ~excluding:[ Cost_meter.Base ] (Ctx.meter ctx)
      /. float_of_int (Fleet.queries fleet) )
  in
  let fleet, advised = modeled_per_query (Some Fleet_advisor.default_config) in
  let _, static = modeled_per_query None in
  let st = Fleet.stats fleet in
  let flips = st.Fleet.st_promotions + st.Fleet.st_demotions in
  Alcotest.(check bool) (Printf.sprintf "%d flips <= 49" flips) true (flips <= 49);
  List.iter
    (fun (e : Fleet.event) ->
      Alcotest.(check int) "decisions fire on window boundaries" 0 (e.Fleet.ev_query mod decide_every))
    (Fleet.events fleet);
  Alcotest.(check bool)
    (Printf.sprintf "advised %.0f < static %.0f ms/query" advised static)
    true (advised < static)

(* ------------------------------------------------------------------ *)
(* Multi-view base clustering (a fleet with the advisor off)            *)
(* ------------------------------------------------------------------ *)

let mk_static_fleet ?base_cluster seed =
  let rng = Rng.create (31 + seed) in
  let tids = Tuple.source () in
  let dataset = Dataset.make_model1 ~rng ~tids ~n:300 ~f:0.5 ~s_bytes:100 in
  let base = dataset.Dataset.m1_schema in
  let views =
    [
      sp "p" (between 0.1 0.6) base;
      sp ~cluster:"amount" "a"
        (Predicate.Between (2, Value.Float 100., Value.Float 600.))
        base;
    ]
  in
  let tuples = Array.of_list dataset.Dataset.m1_tuples in
  let ops =
    Stream.generate ~rng ~tuples
      ~mutate:(Stream.mutate_column ~tids ~col:2 (fun rng -> Value.Float (float_of_int (Rng.int rng 1000))))
      ~k:30 ~l:4 ~q:10
      ~query_of:(Stream.range_query_of ~lo_max:0.4 ~width:0.2)
  in
  let ctx = Ctx.create ~geometry ~first_tid:(Tuple.peek tids) () in
  let engine =
    Fleet.create ~ctx ~base ~views ~initial:dataset.Dataset.m1_tuples ~ad_buckets:4
      ~advisor:None ?base_cluster ()
  in
  (engine, ops)

let answer_bag answers =
  let bag = Bag.create () in
  List.iter (fun (tuple, count) -> Bag.add_count bag tuple count) answers;
  bag

let test_multiview_base_cluster_paths () =
  let run base_cluster =
    let engine, ops = mk_static_fleet ?base_cluster 0 in
    let bags = ref [] in
    List.iter
      (fun op ->
        match op with
        | Stream.Txn changes -> Fleet.handle_transaction engine changes
        | Stream.Query q ->
            List.iter
              (fun v -> bags := answer_bag (Fleet.answer_query engine ~view:v q) :: !bags)
              (Fleet.view_names engine))
      ops;
    (List.rev !bags, Fleet.view_contents engine ~view:"p", Fleet.view_contents engine ~view:"a")
  in
  let bags_default, p_default, a_default = run None in
  let bags_amount, p_amount, a_amount = run (Some "amount") in
  Alcotest.(check int) "same answer count" (List.length bags_default) (List.length bags_amount);
  List.iter2
    (fun b1 b2 -> Alcotest.(check bool) "answers agree across base clusterings" true (Bag.equal b1 b2))
    bags_default bags_amount;
  Alcotest.(check bool) "final p contents agree" true (Bag.equal p_default p_amount);
  Alcotest.(check bool) "final a contents agree" true (Bag.equal a_default a_amount)

let test_multiview_bad_base_cluster () =
  Alcotest.check_raises "unknown base_cluster column"
    (Invalid_argument "Fleet.create: base_cluster nope is not a column of R") (fun () ->
      ignore (mk_static_fleet ?base_cluster:(Some "nope") 0))

(* ------------------------------------------------------------------ *)
(* Zipf fleet streams                                                  *)
(* ------------------------------------------------------------------ *)

let test_zipf_weights () =
  let w = Stream.zipf_weights ~n:16 ~s:1.1 in
  let total = Array.fold_left ( +. ) 0. w in
  Alcotest.(check bool) "weights normalize" true (Float.abs (total -. 1.) < 1e-9);
  for i = 0 to Array.length w - 2 do
    Alcotest.(check bool) "weights non-increasing" true (w.(i) >= w.(i + 1))
  done;
  let u = Stream.zipf_weights ~n:4 ~s:0. in
  Array.iter (fun x -> Alcotest.(check bool) "s=0 is uniform" true (Float.abs (x -. 0.25) < 1e-9)) u

let test_generate_fleet_shape () =
  let rng = Rng.create 7 in
  let tids = Tuple.source () in
  let dataset = Dataset.make_model1 ~rng ~tids ~n:100 ~f:0.5 ~s_bytes:100 in
  let tuples = Array.of_list dataset.Dataset.m1_tuples in
  let ops =
    Stream.generate_fleet ~rng ~tuples
      ~mutate:(Stream.mutate_column ~tids ~col:2 (fun rng -> Value.Float (float_of_int (Rng.int rng 100))))
      ~views:8 ~zipf_s:1.1 ~k:20 ~l:3 ~q:10
      ~query_of:(fun rng _ -> Stream.range_query_of ~lo_max:0.4 ~width:0.2 rng)
  in
  let txns, queries = Stream.count_fleet_ops ops in
  Alcotest.(check int) "k transactions" 20 txns;
  Alcotest.(check int) "q queries" 10 queries;
  List.iter
    (fun op ->
      match op with
      | Stream.Fquery (v, _) ->
          Alcotest.(check bool) "view index in range" true (v >= 0 && v < 8)
      | Stream.Ftxn _ -> ())
    ops

(* ------------------------------------------------------------------ *)
(* Fleet == isolated oracle                                            *)
(* ------------------------------------------------------------------ *)

let small_opts =
  {
    Fleet_report.default_opts with
    Fleet_report.ro_views = 12;
    ro_overlap = 0.4;
    ro_zipf = 1.3;
    ro_n_tuples = 400;
    ro_k = 50;
    ro_l = 4;
    ro_q = 40;
    ro_seed = 5;
  }

let test_fleet_matches_oracle () =
  let r = Fleet_report.run_comparison small_opts in
  Alcotest.(check bool) "every answer and final content matches" true r.Fleet_report.r_match;
  Alcotest.(check bool) "sharing collapses definitions" true
    (r.Fleet_report.r_classes < r.Fleet_report.r_views);
  Alcotest.(check bool) "maintenance is cheaper shared" true
    (r.Fleet_report.r_shared_maint_ms < r.Fleet_report.r_isolated_maint_ms)

let test_fleet_advisor_active_and_exact () =
  (* Strong skew + many never-queried views: the advisor must actually act
     (demote cold nodes) and equivalence must survive its every move. *)
  let opts =
    {
      small_opts with
      Fleet_report.ro_views = 24;
      ro_zipf = 2.0;
      ro_overlap = 0.25;
      ro_q = 64;
      ro_seed = 6;
      ro_advisor =
        Some { Fleet_advisor.default_config with Fleet_advisor.decide_every = 8 };
    }
  in
  let r = Fleet_report.run_comparison opts in
  Alcotest.(check bool) "advisor made at least one move" true
    (r.Fleet_report.r_promotions + r.Fleet_report.r_demotions > 0);
  Alcotest.(check bool) "still bit-identical to the oracle" true r.Fleet_report.r_match

let test_fleet_no_advisor_matches () =
  let r =
    Fleet_report.run_comparison { small_opts with Fleet_report.ro_advisor = None; ro_seed = 9 }
  in
  Alcotest.(check bool) "static fleet matches oracle" true r.Fleet_report.r_match;
  Alcotest.(check int) "no promotions without an advisor" 0 r.Fleet_report.r_promotions;
  Alcotest.(check int) "no demotions without an advisor" 0 r.Fleet_report.r_demotions

(* Fleet answers must also agree with a plain per-view deferred strategy
   (ties the fleet to the strategy stack, not just to one-view fleets). *)
let test_fleet_matches_deferred_strategy () =
  let rng = Rng.create 41 in
  let gen_tids = Tuple.source () in
  let dataset = Dataset.make_model1 ~rng ~tids:gen_tids ~n:300 ~f:0.5 ~s_bytes:100 in
  let base = dataset.Dataset.m1_schema in
  let views = [ sp "v0" (between 0.1 0.7) base; sp "v1" (between 0.2 0.5) base ] in
  let tuples = Array.of_list dataset.Dataset.m1_tuples in
  let ops =
    Stream.generate_fleet ~rng ~tuples
      ~mutate:(Stream.mutate_column ~tids:gen_tids ~col:2 (fun rng -> Value.Float (float_of_int (Rng.int rng 100))))
      ~views:2 ~zipf_s:0.5 ~k:40 ~l:3 ~q:20
      ~query_of:(fun rng _ -> Stream.range_query_of ~lo_max:0.2 ~width:0.1 rng)
  in
  let first_tid = Tuple.peek gen_tids in
  let fleet_ctx = Ctx.create ~geometry ~first_tid () in
  let fleet =
    Fleet.create ~ctx:fleet_ctx ~base ~views ~initial:dataset.Dataset.m1_tuples ~ad_buckets:4 ()
  in
  let strategies =
    List.map
      (fun v ->
        Strategy_sp.deferred
          {
            Strategy_sp.ctx = Ctx.create ~geometry ~first_tid ();
            view = v;
            initial = dataset.Dataset.m1_tuples;
            ad_buckets = 4;
          })
      views
  in
  List.iter
    (fun op ->
      match op with
      | Stream.Ftxn changes ->
          Fleet.handle_transaction fleet changes;
          List.iter (fun s -> s.Strategy.handle_transaction changes) strategies
      | Stream.Fquery (v, q) ->
          let name = Printf.sprintf "v%d" v in
          let shared = answer_bag (Fleet.answer_query fleet ~view:name q) in
          let expected = answer_bag ((List.nth strategies v).Strategy.answer_query q) in
          Alcotest.(check bool) "fleet agrees with deferred strategy" true
            (Bag.equal shared expected))
    ops

(* Randomized equivalence: arbitrary fleet shape, skew, overlap and advisor
   cadence — the fleet must stay bit-identical to the isolated oracles. *)
let prop_fleet_oracle_equivalence =
  QCheck.Test.make ~name:"fleet == isolated oracle (random fleets)" ~count:6
    QCheck.(
      quad (int_range 0 1_000) (int_range 4 20) (int_range 0 10) (int_range 0 20))
    (fun (seed, views, overlap10, zipf10) ->
      let opts =
        {
          Fleet_report.default_opts with
          Fleet_report.ro_views = views;
          ro_overlap = float_of_int overlap10 /. 10.;
          ro_zipf = float_of_int zipf10 /. 10.;
          ro_n_tuples = 250;
          ro_k = 30;
          ro_l = 3;
          ro_q = 30;
          ro_seed = seed;
          ro_advisor =
            Some { Fleet_advisor.default_config with Fleet_advisor.decide_every = 6 };
        }
      in
      (Fleet_report.run_comparison opts).Fleet_report.r_match)

(* ------------------------------------------------------------------ *)
(* Fleet == per-view references that share no engine code with it      *)
(* ------------------------------------------------------------------ *)

(* Replay [ops] against the fleet and, for each view, against a deferred
   strategy and query modification over a heap scan: every answer and every
   final content must agree.  Returns the first disagreement. *)
let check_against_references ~base ~views ~initial ~first_tid ~advisor ?base_cluster ops =
  let ctx () = Ctx.create ~geometry ~first_tid () in
  let fleet =
    Fleet.create ~ctx:(ctx ()) ~base ~views ~initial ~ad_buckets:4 ~advisor ?base_cluster ()
  in
  let per_view ctor =
    Array.of_list
      (List.map (fun view -> ctor { Strategy_sp.ctx = ctx (); view; initial; ad_buckets = 4 }) views)
  in
  let deferred = per_view Strategy_sp.deferred and qmod = per_view Strategy_sp.qmod_sequential in
  let names = Array.of_list (List.map (fun (v : View_def.sp) -> v.sp_name) views) in
  let mismatch = ref None in
  let expect what ok = if (not ok) && Option.is_none !mismatch then mismatch := Some what in
  List.iteri
    (fun i op ->
      match op with
      | Stream.Ftxn changes ->
          Fleet.handle_transaction fleet changes;
          Array.iter (fun (s : Strategy.t) -> s.Strategy.handle_transaction changes) deferred;
          Array.iter (fun (s : Strategy.t) -> s.Strategy.handle_transaction changes) qmod
      | Stream.Fquery (v, q) ->
          let want = answer_bag (qmod.(v).Strategy.answer_query q) in
          let fleet_rows = answer_bag (Fleet.answer_query fleet ~view:names.(v) q) in
          let deferred_rows = answer_bag (deferred.(v).Strategy.answer_query q) in
          expect (Printf.sprintf "op %d: fleet answer on %s" i names.(v)) (Bag.equal fleet_rows want);
          expect
            (Printf.sprintf "op %d: deferred answer on %s" i names.(v))
            (Bag.equal deferred_rows want))
    ops;
  Array.iteri
    (fun v name ->
      let want = qmod.(v).Strategy.view_contents () in
      expect ("final fleet contents of " ^ name) (Bag.equal (Fleet.view_contents fleet ~view:name) want);
      expect ("final deferred contents of " ^ name)
        (Bag.equal (deferred.(v).Strategy.view_contents ()) want))
    names;
  !mismatch

(* A random fleet over few amounts, so that alias classes, group hulls and
   readily-ignorable modifications all occur: views project [pval],
   [amount] or both and cluster on either column, and the stream writes
   amount (often to the value it had), note (read by no view) and pval,
   several transactions per query, with tuples changed more than once in
   one transaction. *)
let amounts = [| 10.; 20.; 30. |]

let random_fleet_case ~seed ~views ~per_query =
  let rng = Rng.create seed in
  let tids = Tuple.source () in
  let base = base_schema () in
  let n = 40 + Rng.int rng 40 in
  let amount () = Value.Float amounts.(Rng.int rng (Array.length amounts)) in
  let tuples =
    Array.init n (fun id ->
        Tuple.make ~tid:(Tuple.next tids)
          [| Value.Int id; Value.Float (Rng.float rng); amount (); Value.Str (Printf.sprintf "n%d" id) |])
  in
  let initial = Array.to_list tuples in
  let defs =
    Array.init
      (1 + Rng.int rng (max 1 (views - 1)))
      (fun _ ->
        let pred, cluster =
          if Rng.int rng 3 = 0 then
            let lo = 10. *. float_of_int (Rng.int rng 3) in
            ( Predicate.Between (2, Value.Float (lo -. 5.), Value.Float (lo +. 5. +. (10. *. float_of_int (Rng.int rng 2)))),
              "amount" )
          else
            let lo = 0.6 *. Rng.float rng in
            (between lo (lo +. 0.1 +. (0.3 *. Rng.float rng)), "pval")
        in
        let project =
          match Rng.int rng 3 with 0 -> [ cluster ] | 1 -> [ "pval"; "amount" ] | _ -> [ "amount"; "pval" ]
        in
        (pred, cluster, project))
  in
  let views =
    List.init views (fun i ->
        let pred, cluster, project = defs.(Rng.int rng (Array.length defs)) in
        sp ~project ~cluster (Printf.sprintf "v%d" i) pred base)
  in
  let query_of (v : View_def.sp) =
    if String.equal (Schema.column_name base v.sp_positions.(v.sp_cluster_out)) "amount" then
      let lo = 5. *. float_of_int (Rng.int rng 6) in
      { Strategy.q_lo = Value.Float lo; q_hi = Value.Float (lo +. 15.) }
    else
      let lo = 0.8 *. Rng.float rng in
      { Strategy.q_lo = Value.Float lo; q_hi = Value.Float (lo +. 0.3) }
  in
  let next_id = ref n in
  let change () =
    let idx = Rng.int rng n in
    let old_tuple = tuples.(idx) in
    let rewrite col v = Tuple.with_tid (Tuple.set old_tuple col v) (Tuple.next tids) in
    match Rng.int rng 4 with
    | 3 ->
        (* delete, and insert a new tuple in its slot *)
        let fresh =
          Tuple.make ~tid:(Tuple.next tids)
            [| Value.Int !next_id; Value.Float (Rng.float rng); amount (); Value.Str "new" |]
        in
        incr next_id;
        tuples.(idx) <- fresh;
        [ Strategy.delete old_tuple; Strategy.insert fresh ]
    | kind ->
        let new_tuple =
          match kind with
          | 0 -> rewrite 2 (amount ())
          | 1 -> rewrite 3 (Value.Str (Printf.sprintf "m%d" (Rng.int rng 1000)))
          | _ -> rewrite 1 (Value.Float (Rng.float rng))
        in
        tuples.(idx) <- new_tuple;
        [ Strategy.modify ~old_tuple ~new_tuple ]
  in
  let view_arr = Array.of_list views in
  let ops =
    List.concat
      (List.init 12 (fun _ ->
           List.init per_query (fun _ ->
               Stream.Ftxn (List.concat (List.init (1 + Rng.int rng 4) (fun _ -> change ()))))
           @ List.init 2 (fun _ ->
                 let v = Rng.int rng (Array.length view_arr) in
                 Stream.Fquery (v, query_of view_arr.(v)))))
  in
  (base, views, initial, ops, Tuple.peek tids)

let prop_fleet_matches_references =
  QCheck.Test.make ~name:"fleet == per-view deferred and qmod (random fleets, RIU chains)" ~count:25
    QCheck.(quad (int_range 0 10_000) (int_range 1 12) (int_range 1 4) (pair bool (int_range 0 2)))
    (fun (seed, views, per_query, (advisor_on, cluster)) ->
      let base, views, initial, ops, first_tid = random_fleet_case ~seed ~views ~per_query in
      let advisor =
        if advisor_on then Some { Fleet_advisor.default_config with Fleet_advisor.decide_every = 3 }
        else None
      in
      let base_cluster = List.nth [ None; Some "pval"; Some "amount" ] cluster in
      match check_against_references ~base ~views ~initial ~first_tid ~advisor ?base_cluster ops with
      | None -> true
      | Some what -> QCheck.Test.fail_report what)

(* The bench's fleet section at 256 views and scale 0.05. *)
let test_bench_fleet_stream_matches_references () =
  let opts =
    {
      Fleet_report.default_opts with
      Fleet_report.ro_views = 256;
      ro_n_tuples = 100;
      ro_k = 10;
      ro_l = 8;
      ro_q = 40;
      ro_seed = 11;
    }
  in
  let inp = Fleet_report.inputs opts in
  match
    check_against_references ~base:inp.Fleet_report.in_base ~views:inp.in_views
      ~initial:inp.in_initial ~first_tid:inp.in_first_tid ~advisor:opts.ro_advisor inp.in_ops
  with
  | None -> ()
  | Some what -> Alcotest.fail what

let qcheck = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "fleet.ir",
      [
        Alcotest.test_case "canonical normal forms" `Quick test_ir_canonical;
        Alcotest.test_case "subsumption / disjoint / unsat" `Quick test_ir_relations;
        Alcotest.test_case "common conjuncts" `Quick test_ir_common_prefix;
      ] );
    ( "fleet.dag",
      [
        Alcotest.test_case "aliases and subsumption edges" `Quick test_dag_aliases_and_subsumption;
        Alcotest.test_case "group hull node" `Quick test_dag_group_hull;
        Alcotest.test_case "no-overlap degenerate" `Quick test_dag_no_overlap_degenerate;
      ] );
    ( "fleet.advisor",
      [
        Alcotest.test_case "promotes a hot transient node" `Quick test_advisor_promotes_hot;
        Alcotest.test_case "demotes a cold materialized node" `Quick test_advisor_demotes_cold;
        Alcotest.test_case "evidence and break-even gates" `Quick
          test_advisor_min_evidence_and_build_gate;
        Alcotest.test_case "window counts fleet queries" `Quick
          test_advisor_window_counts_fleet_queries;
        Alcotest.test_case "re-prices after each flip" `Quick test_advisor_reprices_after_each_flip;
        Alcotest.test_case "thrash bounded on the fleet-zipf shape" `Quick test_advisor_thrash_bounded;
      ] );
    ( "fleet.multi_view",
      [
        Alcotest.test_case "base_cluster compatibility paths" `Quick
          test_multiview_base_cluster_paths;
        Alcotest.test_case "unknown base_cluster rejected" `Quick test_multiview_bad_base_cluster;
      ] );
    ( "fleet.stream",
      [
        Alcotest.test_case "zipf weights" `Quick test_zipf_weights;
        Alcotest.test_case "fleet stream shape" `Quick test_generate_fleet_shape;
      ] );
    ( "fleet.engine",
      [
        Alcotest.test_case "matches isolated oracle" `Quick test_fleet_matches_oracle;
        Alcotest.test_case "advisor active and still exact" `Quick
          test_fleet_advisor_active_and_exact;
        Alcotest.test_case "static fleet (advisor off)" `Quick test_fleet_no_advisor_matches;
        Alcotest.test_case "matches deferred strategy" `Quick test_fleet_matches_deferred_strategy;
        Alcotest.test_case "bench stream matches references" `Quick
          test_bench_fleet_stream_matches_references;
      ]
      @ qcheck [ prop_fleet_oracle_equivalence; prop_fleet_matches_references ] );
  ]
