open Vmat_storage
open Vmat_relalg
module Btree = Vmat_index.Btree
module Hr = Vmat_hypo.Hr

type env = {
  ctx : Ctx.t;
  agg : View_def.agg;
  initial : Tuple.t list;
  ad_buckets : int;
}

let meter env = Ctx.meter env.ctx
let disk env = Ctx.disk env.ctx
let tids env = Ctx.tids env.ctx

let sp env = env.agg.View_def.a_over

let base_cluster_col env = (sp env).sp_positions.((sp env).sp_cluster_out)

let make_base_btree env =
  Strategy.base_relation env.ctx (sp env).sp_base ~key_col:(base_cluster_col env) env.initial

let make_screen env =
  Screen.create ~meter:(meter env) ~view_name:env.agg.View_def.a_name
    ~pred:(sp env).sp_pred ()

let initial_state env =
  Aggregate.of_tuples env.agg.View_def.a_kind
    (Ops.select (sp env).sp_pred env.initial)

let single_tuple_answer env state =
  [ (Tuple.make ~tid:(Tuple.next (tids env)) [| Value.Float (Aggregate.value state) |], 1) ]

let bag_of_state state =
  Bag.of_list [ Tuple.make ~tid:0 [| Value.Float (Aggregate.value state) |] ]

(* The aggregate over the base relation as stored, unmetered. *)
let contents_of_base env base =
  bag_of_state
    (Aggregate.of_tuples env.agg.View_def.a_kind
       (Ops.select (sp env).sp_pred (Strategy.base_tuples base)))

(* One stored page holds the aggregate state. *)
let alloc_state_page env = Disk.alloc (disk env) ~file:("agg:" ^ env.agg.View_def.a_name)

let read_state env page =
  Cost_meter.with_category (meter env) Cost_meter.Query (fun () -> Disk.read (disk env) page)

let write_state env page =
  Cost_meter.with_category (meter env) Cost_meter.Refresh (fun () -> Disk.write (disk env) page)

let deferred env =
  let base = make_base_btree env in
  let hr = Strategy.hypothetical env.ctx ~base ~schema:(sp env).sp_base ~ad_buckets:env.ad_buckets in
  let state = initial_state env in
  let page = alloc_state_page env in
  let screen = make_screen env in
  let mark = Screen.screen screen in
  let handle_transaction changes =
    List.iter
      (fun (change : Strategy.change) -> Hr.apply hr ~mark ~before:change.before ~after:change.after)
      changes;
    Hr.end_transaction hr
  in
  let refresh () =
    Strategy.refresh_span (meter env) ~view:env.agg.View_def.a_name @@ fun () ->
    let net =
      Cost_meter.with_category (meter env) Cost_meter.Refresh (fun () ->
          let touched = ref false in
          let net =
            Hr.drain hr
              ~delete:(fun tuple ->
                Aggregate.delete state tuple;
                touched := true)
              ~insert:(fun tuple ->
                Aggregate.insert state tuple;
                touched := true)
          in
          (* No read is needed: the state is about to be read by the query
             anyway (§3.6); only the write is charged. *)
          if !touched then Disk.write (disk env) page;
          net)
    in
    Hr.reset hr net
  in
  let scalar_query () =
    refresh ();
    read_state env page;
    Aggregate.value state
  in
  {
    Strategy.name = "deferred";
    handle_transaction;
    answer_query =
      (fun _q ->
        let v = scalar_query () in
        ignore v;
        single_tuple_answer env state);
    scalar_query;
    view_contents =
      (fun () ->
        let tuples = Ops.select (sp env).sp_pred (Hr.contents_unmetered hr) in
        bag_of_state (Aggregate.of_tuples env.agg.View_def.a_kind tuples));
  }

let immediate env =
  let base = make_base_btree env in
  let state = initial_state env in
  let page = alloc_state_page env in
  let screen = make_screen env in
  let handle_transaction changes =
    Strategy.write_base (meter env) base changes;
    (* Model 3 holds no A/D sets (no C3): marked images go straight into
       the aggregate state, and its one page is written back. *)
    let touched = ref false in
    List.iter
      (fun (change : Strategy.change) ->
        let marked_old, marked_new = Screen.screen_images screen change in
        (match (change.before, marked_old) with
        | Some tuple, Some true ->
            Aggregate.delete state tuple;
            touched := true
        | _ -> ());
        match (change.after, marked_new) with
        | Some tuple, Some true ->
            Aggregate.insert state tuple;
            touched := true
        | _ -> ())
      changes;
    if !touched then write_state env page
  in
  let scalar_query () =
    read_state env page;
    Aggregate.value state
  in
  {
    Strategy.name = "immediate";
    handle_transaction;
    answer_query =
      (fun _q ->
        ignore (scalar_query ());
        single_tuple_answer env state);
    scalar_query;
    view_contents = (fun () -> contents_of_base env base);
  }

let recompute env =
  let base = make_base_btree env in
  let m = meter env in
  let compiled = Predicate.compile (sp env).sp_pred in
  let compute () =
    Cost_meter.with_category m Cost_meter.Query (fun () ->
        let state = Aggregate.create env.agg.View_def.a_kind in
        let lo, hi =
          Strategy.clustered_scan_bounds (sp env).sp_pred
            ~cluster_col:(base_cluster_col env)
        in
        Btree.range_views base ~lo ~hi (fun v ->
            Cost_meter.charge_predicate_test m;
            if Predicate.eval_view compiled v then
              Aggregate.insert state (Tuple_view.materialize v));
        Buffer_pool.invalidate (Btree.pool base);
        state)
  in
  {
    Strategy.name = "recompute";
    handle_transaction = Strategy.write_base m base;
    answer_query = (fun _q -> single_tuple_answer env (compute ()));
    scalar_query = (fun () -> Aggregate.value (compute ()));
    view_contents = (fun () -> contents_of_base env base);
  }
