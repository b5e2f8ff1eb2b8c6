open Vmat_storage
open Vmat_relalg
module Btree = Vmat_index.Btree
module Hr = Vmat_hypo.Hr
module View_def = Vmat_view.View_def
module Materialized = Vmat_view.Materialized
module Screen = Vmat_view.Screen
module Strategy = Vmat_view.Strategy
module Wstats = Vmat_adaptive.Wstats
module Recorder = Vmat_obs.Recorder

type node_rt = {
  node : Dag.node;
  screen : Screen.t;
  mutable mat : Materialized.t option;
  mutable generation : int;  (** rebuilds, for unique storage names *)
  mutable rows : int;
      (** rows a stored copy holds: exact from the build, then moved by each
          marked, relevant net change *)
  mutable queries_n : int;
  mutable applied_n : int;
  mutable applied_w : int;  (** relevant deltas since the last decision *)
}

type event = {
  ev_query : int;
  ev_node : string;
  ev_action : string;
  ev_score : float;
  ev_query_rate : float;
  ev_delta_rate : float;
  ev_costs : Advisor.costs;
  ev_margin : float;
}

type t = {
  meter : Cost_meter.t;
  disk : Disk.t;
  geometry : Ctx.geometry;
  tids : Tuple.source;
  base_schema : Schema.t;
  base_tree : Btree.t;
  hr : Hr.t;
  dag : Dag.t;
  nodes : node_rt array;
  roots : int list;
  advisor : Advisor.t option;
  wstats : Wstats.t;
  mutable any_stale : bool;
  mutable refreshes : int;
  mutable txns : int;
  mutable queries : int;
  mutable promotions : int;
  mutable demotions : int;
  mutable events_rev : event list;
}

let is_class (rt : node_rt) = match rt.node.nd_kind with Dag.Class -> true | Dag.Group -> false

let default_base_cluster views =
  let counts =
    List.fold_left
      (fun acc (v : View_def.sp) ->
        let c = v.sp_positions.(v.sp_cluster_out) in
        let rec bump = function
          | [] -> [ (c, 1) ]
          | (c', n) :: rest when Int.equal c c' -> (c', n + 1) :: rest
          | e :: rest -> e :: bump rest
        in
        bump acc)
      [] views
  in
  fst
    (List.fold_left
       (fun (bc, bn) (c, n) -> if n > bn || (n = bn && c < bc) then (c, n) else (bc, bn))
       (max_int, 0) counts)

let create ~ctx ~base ~views ~initial ~ad_buckets ?(advisor = Some Advisor.default_config)
    ?base_cluster () =
  let dag = Dag.build ~base views in
  let disk = Ctx.disk ctx in
  let geometry = Ctx.geometry ctx in
  let tids = Ctx.tids ctx in
  let meter = Ctx.meter ctx in
  let base_cluster_col =
    match base_cluster with
    | Some name -> (
        match Schema.column_index base name with
        | i -> i
        | exception Not_found ->
            invalid_arg
              ("Fleet.create: base_cluster " ^ name ^ " is not a column of " ^ Schema.name base))
    | None -> default_base_cluster views
  in
  let base_tree = Strategy.base_relation ctx base ~key_col:base_cluster_col initial in
  let hr = Strategy.hypothetical ctx ~base:base_tree ~schema:base ~ad_buckets in
  let make_rt (nd : Dag.node) =
    let mat, rows =
      match nd.nd_kind with
      | Dag.Group ->
          (* Groups start transient; the advisor may promote them. *)
          let pred = nd.nd_def.sp_pred in
          let rows = List.fold_left (fun n tuple -> if Predicate.eval pred tuple then n + 1 else n) 0 initial in
          (None, rows)
      | Dag.Class ->
          let m =
            Materialized.create ~disk ~name:nd.nd_name ~fanout:(Strategy.fanout geometry)
              ~leaf_capacity:(Strategy.blocking_factor geometry nd.nd_def.sp_out_schema)
              ~cluster_col:nd.nd_def.sp_cluster_out ()
          in
          Materialized.rebuild m (Vmat_view.Delta.recompute_sp ~tids nd.nd_def initial);
          (Some m, Materialized.total_count m)
    in
    {
      node = nd;
      screen = Screen.create ~meter ~view_name:nd.nd_name ~pred:nd.nd_def.sp_pred ();
      mat;
      generation = 0;
      rows;
      queries_n = 0;
      applied_n = 0;
      applied_w = 0;
    }
  in
  {
    meter;
    disk;
    geometry;
    tids;
    base_schema = base;
    base_tree;
    hr;
    dag;
    nodes = Array.map make_rt dag.dag_nodes;
    roots = Dag.roots dag;
    advisor = Option.map (fun cfg -> Advisor.create ~config:cfg ~n_nodes:(Array.length dag.dag_nodes) ()) advisor;
    wstats = Wstats.create ();
    any_stale = false;
    refreshes = 0;
    txns = 0;
    queries = 0;
    promotions = 0;
    demotions = 0;
    events_rev = [];
  }

let view_names t = List.map fst t.dag.Dag.dag_view_node
let dag t = t.dag

let node_index t view =
  let rec find = function
    | [] -> raise Not_found
    | (name, id) :: rest -> if String.equal name view then id else find rest
  in
  find t.dag.Dag.dag_view_node

(* Cascade screening: a child's region is contained in its parent's, so a
   tuple its parent's screen rejects cannot be marked for any descendant —
   the subtree is skipped without paying its stage-2 tests.  A tuple is
   recorded as marked in the shared differential file when some {e class}
   node marks it (group marks alone serve maintenance filtering).  Per-node
   relevance is re-derived from the stored predicates at refresh time: §4's
   per-view marker bits, conceptually stored with the entry, so they cost
   no extra charge. *)
let screen_image t tuple =
  let any_class = ref false in
  let rec go idx =
    let rt = t.nodes.(idx) in
    if Screen.screen rt.screen tuple then begin
      if is_class rt then any_class := true;
      List.iter go rt.node.nd_children
    end
  in
  List.iter go t.roots;
  if !any_class then t.any_stale <- true;
  !any_class

let handle_transaction t changes =
  let before = Cost_meter.snapshot t.meter in
  let mark = screen_image t in
  List.iter
    (fun (change : Strategy.change) ->
      Hr.apply t.hr ~mark ~before:change.Strategy.before ~after:change.Strategy.after)
    changes;
  Hr.end_transaction t.hr;
  t.txns <- t.txns + 1;
  let cost = Cost_meter.cost_since t.meter before ~excluding:[ Cost_meter.Base ] () in
  Wstats.observe_txn t.wstats ~l:(List.length changes) ~cost ()

let relevant (rt : node_rt) tuple = Predicate.eval rt.node.nd_def.sp_pred tuple

(* One shared refresh pass: a single AD read brings every materialized node
   up to date (per-node relevance is re-derived at no extra charge from the
   conceptually-stored marker bits); transient nodes only tally their
   would-be work and row count for the advisor.  It reads [Hr.net_changes]
   itself rather than [Hr.drain] because it applies the deltas node by
   node.  [Hr.reset] then folds the same deltas into the base relation,
   which is what keeps transient query answering (a base or ancestor scan)
   current. *)
let refresh_all t =
  if t.any_stale then begin
    t.refreshes <- t.refreshes + 1;
    let net =
      Cost_meter.with_category t.meter Cost_meter.Refresh (fun () ->
          let net = Hr.net_changes t.hr in
          Array.iter
            (fun rt ->
              let apply action tuple =
                if relevant rt tuple then begin
                  rt.applied_w <- rt.applied_w + 1;
                  rt.applied_n <- rt.applied_n + 1;
                  rt.rows <-
                    (match action with
                    | Materialized.Insert -> rt.rows + 1
                    | Materialized.Delete -> rt.rows - 1);
                  match rt.mat with
                  | Some mat ->
                      Materialized.apply mat action
                        (View_def.sp_output ~tids:t.tids rt.node.nd_def tuple)
                  | None -> ()
                end
              in
              Hr.iter_net net ~delete:(apply Materialized.Delete)
                ~insert:(apply Materialized.Insert);
              match rt.mat with Some m -> Materialized.flush m | None -> ())
            t.nodes;
          net)
    in
    Hr.reset t.hr net;
    t.any_stale <- false
  end

(* ------------------------------------------------------------------ *)
(* Transient answering: nearest materialized ancestor                  *)
(* ------------------------------------------------------------------ *)

let rec mat_ancestor t idx =
  match t.nodes.(idx).node.nd_parent with
  | None -> None
  | Some p -> (
      match t.nodes.(p).mat with
      | Some m -> Some (t.nodes.(p), m)
      | None -> mat_ancestor t p)

let cluster_base_col_of (def : View_def.sp) = def.sp_positions.(def.sp_cluster_out)

(* Output position of base column [bcol] in [parent]'s projection. *)
let position_in (parent : View_def.sp) bcol =
  let rec find j =
    if j >= Array.length parent.sp_positions then None
    else if Int.equal parent.sp_positions.(j) bcol then Some j
    else find (j + 1)
  in
  find 0

let position_in_exn parent bcol =
  match position_in parent bcol with
  | Some j -> j
  | None -> invalid_arg "Fleet: child projection not derivable from parent (DAG bug)"

let project_from_parent t ~proj tuple =
  Tuple.make ~tid:(Tuple.next t.tids) (Array.map (fun j -> Tuple.get tuple j) proj)

(* Scan the base relation for a transient node's rows, with the clustered
   range narrowed when the node clusters on the base tree's key column. *)
let scan_base t (def : View_def.sp) ~(q : Strategy.query) k =
  let cb = cluster_base_col_of def in
  let lo, hi =
    if Int.equal cb (Btree.key_col t.base_tree) then (q.q_lo, q.q_hi)
    else (Strategy.min_sentinel, Strategy.max_sentinel)
  in
  let compiled =
    Predicate.compile (Predicate.And (def.sp_pred, Predicate.Between (cb, q.q_lo, q.q_hi)))
  in
  Btree.range_views t.base_tree ~lo ~hi (fun view ->
      Cost_meter.charge_predicate_test t.meter;
      if Predicate.eval_view compiled view then
        k (View_def.sp_output_view ~tids:t.tids def view, 1));
  Buffer_pool.invalidate (Btree.pool t.base_tree)

(* Scan a materialized ancestor for a transient node's rows: the node's
   predicate and clustered query bounds are remapped into the ancestor's
   output shape (the DAG guarantees every needed column is projected). *)
let scan_ancestor t ~(anc : node_rt) ~(m : Materialized.t) (def : View_def.sp)
    ~(q : Strategy.query) k =
  let anc_def = anc.node.nd_def in
  let cb = cluster_base_col_of def in
  let cb_anc = position_in_exn anc_def cb in
  let lo, hi =
    if Int.equal (cluster_base_col_of anc_def) cb then (q.q_lo, q.q_hi)
    else (Strategy.min_sentinel, Strategy.max_sentinel)
  in
  let pred =
    match Ir.remap_columns def.sp_pred ~f:(position_in anc_def) with
    | Some p -> Predicate.And (p, Predicate.Between (cb_anc, q.q_lo, q.q_hi))
    | None -> invalid_arg "Fleet: child predicate not derivable from parent (DAG bug)"
  in
  let proj = Array.map (position_in_exn anc_def) def.sp_positions in
  Materialized.range m ~lo ~hi (fun tuple count ->
      Cost_meter.charge_predicate_test t.meter;
      if Predicate.eval pred tuple then k (project_from_parent t ~proj tuple, count));
  Buffer_pool.invalidate (Materialized.pool m)

let answer_node t idx (q : Strategy.query) =
  let rt = t.nodes.(idx) in
  match rt.mat with
  | Some mat -> Materialized.answer mat ~meter:t.meter ~lo:q.q_lo ~hi:q.q_hi
  | None ->
      let out = ref [] in
      (match mat_ancestor t idx with
      | Some (anc, m) -> scan_ancestor t ~anc ~m rt.node.nd_def ~q (fun row -> out := row :: !out)
      | None -> scan_base t rt.node.nd_def ~q (fun row -> out := row :: !out));
      List.rev !out

(* ------------------------------------------------------------------ *)
(* Advisor wiring                                                      *)
(* ------------------------------------------------------------------ *)

let costs_of t i =
  let rt = t.nodes.(i) in
  let c1 = Cost_meter.c1 t.meter and c2 = Cost_meter.c2 t.meter in
  let fv = Float.max 0.01 (Float.min 1. (Wstats.mean_fv t.wstats)) in
  let rows = float_of_int rt.rows in
  let bf = float_of_int (Strategy.blocking_factor t.geometry rt.node.nd_def.sp_out_schema) in
  let pages = Float.max 1. (Float.ceil (rows /. bf)) in
  let height = match rt.mat with Some m -> float_of_int (Materialized.height m) | None -> 1. in
  let qc_mat = (c2 *. (height +. (fv *. pages))) +. (c1 *. fv *. rows) in
  let src_pages, src_rows =
    match mat_ancestor t i with
    | Some (_, m) ->
        ( float_of_int (Btree.leaf_pages (Materialized.tree m)),
          float_of_int (Materialized.total_count m) )
    | None ->
        (float_of_int (Btree.leaf_pages t.base_tree), float_of_int (Btree.tuple_count t.base_tree))
  in
  let qc_trans = (c2 *. src_pages) +. (c1 *. src_rows) in
  let apply_mat = c2 *. (height +. 2.) in
  let build = qc_trans +. (c2 *. pages) in
  { Advisor.qc_mat; qc_trans; apply_mat; build }

let log_event t node action (v : Advisor.verdict) =
  let ev =
    {
      ev_query = t.queries;
      ev_node = node;
      ev_action = action;
      ev_score = v.v_score;
      ev_query_rate = v.v_query_rate;
      ev_delta_rate = v.v_delta_rate;
      ev_costs = v.v_costs;
      ev_margin = v.v_margin;
    }
  in
  let rec take n = function [] -> [] | x :: xs -> if n = 0 then [] else x :: take (n - 1) xs in
  t.events_rev <- take 255 (ev :: t.events_rev)

(* Materialize a transient node from its nearest materialized ancestor (or
   the base relation), charged to [Migrate] like an adaptive strategy
   migration.  Runs right after a refresh pass, so the source is current. *)
let promote t (verdict : Advisor.verdict) =
  let i = verdict.v_node in
  let rt = t.nodes.(i) in
  match rt.mat with
  | Some _ -> ()
  | None ->
      let def = rt.node.nd_def in
      Cost_meter.with_category t.meter Cost_meter.Migrate (fun () ->
          let bag = Bag.of_list [] in
          (match mat_ancestor t i with
          | Some (anc, m) ->
              scan_ancestor t ~anc ~m def
                ~q:{ Strategy.q_lo = Strategy.min_sentinel; q_hi = Strategy.max_sentinel }
                (fun (tuple, count) -> ignore (Bag.add_count bag tuple count))
          | None ->
              scan_base t def
                ~q:{ Strategy.q_lo = Strategy.min_sentinel; q_hi = Strategy.max_sentinel }
                (fun (tuple, _) -> ignore (Bag.add bag tuple)));
          rt.generation <- rt.generation + 1;
          let m =
            Materialized.create ~disk:t.disk
              ~name:(Printf.sprintf "%s#%d" rt.node.nd_name rt.generation)
              ~fanout:(Strategy.fanout t.geometry)
              ~leaf_capacity:(Strategy.blocking_factor t.geometry def.sp_out_schema)
              ~cluster_col:def.sp_cluster_out ()
          in
          Materialized.rebuild m bag;
          rt.rows <- Materialized.total_count m;
          rt.mat <- Some m);
      t.promotions <- t.promotions + 1;
      log_event t rt.node.nd_name "promote" verdict

(* Dropping stored state costs one page write (the catalog update), the
   same accounting as [Migrate]'s dematerialization. *)
let demote t (verdict : Advisor.verdict) =
  let rt = t.nodes.(verdict.v_node) in
  match rt.mat with
  | None -> ()
  | Some _ ->
      rt.mat <- None;
      Cost_meter.with_category t.meter Cost_meter.Migrate (fun () -> Cost_meter.charge_write t.meter);
      t.demotions <- t.demotions + 1;
      log_event t rt.node.nd_name "demote" verdict

(* Each flip lands before the advisor re-prices the other nodes. *)
let run_decisions t adv =
  Advisor.decide adv
    ~materialized:(fun i -> Option.is_some t.nodes.(i).mat)
    ~applied:(fun i -> t.nodes.(i).applied_w)
    ~costs_of:(costs_of t)
    ~flip:(fun v ->
      match v.Advisor.v_decision with Advisor.Promote -> promote t v | Advisor.Demote -> demote t v);
  Array.iter (fun rt -> rt.applied_w <- 0) t.nodes

(* A query on a transient node is served by its nearest materialized
   ancestor: credit the whole chain up to (and including) the server, so
   the advisor sees which interior nodes the fleet's traffic flows
   through.  The chain is one fleet query. *)
let served_chain t idx =
  let rec up j chain =
    match t.nodes.(j).node.nd_parent with
    | Some p when Option.is_none t.nodes.(j).mat -> up p (p :: chain)
    | _ -> chain
  in
  up idx [ idx ]

let answer_query t ~view (q : Strategy.query) =
  let idx = node_index t view in
  refresh_all t;
  t.queries <- t.queries + 1;
  let rt = t.nodes.(idx) in
  rt.queries_n <- rt.queries_n + 1;
  (match t.advisor with
  | Some adv ->
      Advisor.note_query adv (served_chain t idx);
      if Advisor.decision_due adv then run_decisions t adv
  | None -> ());
  let before = Cost_meter.snapshot t.meter in
  let out = Cost_meter.with_category t.meter Cost_meter.Query (fun () -> answer_node t idx q) in
  let cost = Cost_meter.cost_since t.meter before ~excluding:[ Cost_meter.Base ] () in
  Wstats.observe_query t.wstats ~returned:(List.length out) ~view_size:rt.rows ~cost ();
  out

let view_contents t ~view =
  let idx = node_index t view in
  let rt = t.nodes.(idx) in
  let def = rt.node.nd_def in
  let output tuple = View_def.sp_output ~tids:t.tids def tuple in
  let bag =
    match rt.mat with
    | Some m -> Materialized.to_bag_unmetered m
    | None ->
        let b = Bag.of_list [] in
        Btree.iter_unmetered t.base_tree (fun tuple ->
            if Predicate.eval def.sp_pred tuple then ignore (Bag.add b (output tuple)));
        b
  in
  Hr.pending t.hr
    ~delete:(fun tuple ->
      if Predicate.eval def.sp_pred tuple then ignore (Bag.remove bag (output tuple)))
    ~insert:(fun tuple ->
      if Predicate.eval def.sp_pred tuple then ignore (Bag.add bag (output tuple)));
  bag

let refreshes t = t.refreshes
let queries t = t.queries

type node_info = {
  ni_name : string;
  ni_kind : string;
  ni_members : string list;
  ni_parent : string option;
  ni_materialized : bool;
  ni_rows : int;
  ni_queries : int;
  ni_applied : int;
}

type stats = {
  st_views : int;
  st_classes : int;
  st_groups : int;
  st_aliases : int;
  st_materialized : int;
  st_refreshes : int;
  st_txns : int;
  st_queries : int;
  st_promotions : int;
  st_demotions : int;
  st_stage2_tests : int;
  st_stage2_saved : int;
}

let nodes_info t =
  List.map
    (fun rt ->
      {
        ni_name = rt.node.Dag.nd_name;
        ni_kind = (match rt.node.nd_kind with Dag.Class -> "class" | Dag.Group -> "group");
        ni_members = rt.node.nd_members;
        ni_parent = Option.map (fun p -> t.nodes.(p).node.Dag.nd_name) rt.node.nd_parent;
        ni_materialized = Option.is_some rt.mat;
        ni_rows = (match rt.mat with Some m -> Materialized.total_count m | None -> 0);
        ni_queries = rt.queries_n;
        ni_applied = rt.applied_n;
      })
    (Array.to_list t.nodes)

let stats t =
  let materialized =
    Array.fold_left (fun n rt -> if Option.is_some rt.mat then n + 1 else n) 0 t.nodes
  in
  let stage2 = Array.fold_left (fun n rt -> n + Screen.stage2_tests rt.screen) 0 t.nodes in
  let saved =
    Array.fold_left
      (fun n rt ->
        if is_class rt then n + ((List.length rt.node.nd_members - 1) * Screen.stage2_tests rt.screen)
        else n)
      0 t.nodes
  in
  {
    st_views = List.length t.dag.Dag.dag_view_node;
    st_classes = t.dag.Dag.dag_classes;
    st_groups = t.dag.Dag.dag_groups;
    st_aliases = t.dag.Dag.dag_aliases;
    st_materialized = materialized;
    st_refreshes = t.refreshes;
    st_txns = t.txns;
    st_queries = t.queries;
    st_promotions = t.promotions;
    st_demotions = t.demotions;
    st_stage2_tests = stage2;
    st_stage2_saved = saved;
  }

let events t = List.rev t.events_rev

let export_metrics t recorder =
  if Recorder.enabled recorder then begin
    let s = stats t in
    let g name v = Recorder.set_gauge recorder name (float_of_int v) in
    g "vmat_fleet_views" s.st_views;
    g "vmat_fleet_class_nodes" s.st_classes;
    g "vmat_fleet_group_nodes" s.st_groups;
    g "vmat_fleet_aliases" s.st_aliases;
    g "vmat_fleet_nodes_materialized" s.st_materialized;
    g "vmat_fleet_refresh_passes" s.st_refreshes;
    g "vmat_fleet_queries" s.st_queries;
    g "vmat_fleet_txns" s.st_txns;
    g "vmat_fleet_promotions" s.st_promotions;
    g "vmat_fleet_demotions" s.st_demotions;
    g "vmat_fleet_stage2_tests" s.st_stage2_tests;
    g "vmat_fleet_stage2_saved" s.st_stage2_saved;
    Array.iter
      (fun rt ->
        Recorder.set_gauge recorder
          ~labels:[ ("node", rt.node.Dag.nd_name) ]
          "vmat_fleet_node_queries" (float_of_int rt.queries_n);
        Recorder.set_gauge recorder
          ~labels:[ ("node", rt.node.Dag.nd_name) ]
          "vmat_fleet_node_materialized"
          (if Option.is_some rt.mat then 1. else 0.))
      t.nodes
  end
