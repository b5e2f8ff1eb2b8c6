open Vmat_storage
open Vmat_relalg
module Btree = Vmat_index.Btree
module Hash_file = Vmat_index.Hash_file
module Hr = Vmat_hypo.Hr

type env = {
  ctx : Ctx.t;
  view : View_def.join;
  initial_left : Tuple.t list;
  initial_right : Tuple.t list;
  ad_buckets : int;
  r2_buckets : int;
}

let meter env = Ctx.meter env.ctx
let disk env = Ctx.disk env.ctx
let geometry env = Ctx.geometry env.ctx
let tids env = Ctx.tids env.ctx
let join_output env l r = View_def.join_output ~tids:(tids env) env.view l r

let base_cluster_col env = env.view.j_positions_left.(env.view.j_cluster_out)

let make_left_btree env =
  Strategy.base_relation env.ctx env.view.j_left ~key_col:(base_cluster_col env) env.initial_left

let make_right_hash env =
  let schema = env.view.j_right in
  let hash =
    Hash_file.create ~disk:(disk env) ~name:(Schema.name schema) ~buckets:env.r2_buckets
      ~tuples_per_page:(Strategy.blocking_factor (geometry env) schema)
      ~key_col:env.view.j_right_col
      ()
  in
  List.iter (Hash_file.insert hash) env.initial_right;
  Buffer_pool.invalidate (Hash_file.pool hash);
  hash

let make_materialized env =
  Strategy.stored_view env.ctx ~name:env.view.j_name ~schema:env.view.j_out_schema
    ~cluster_col:env.view.j_cluster_out
    (Delta.recompute_join ~tids:(tids env) env.view env.initial_left env.initial_right)

let make_screen env =
  Screen.create ~meter:(meter env) ~view_name:env.view.j_name ~pred:env.view.j_left_pred ()

(* Join one marked left tuple to R2 through the hash index, charging C1 for
   handling it (the paper's per-tuple CPU term in the refresh costs). *)
let probe env r2 m left_tuple =
  Cost_meter.charge_predicate_test m;
  List.map
    (fun right_tuple -> join_output env left_tuple right_tuple)
    (Hash_file.lookup r2 (Tuple.get left_tuple env.view.j_left_col))

let maintain env r2 m mat action tuple =
  List.iter (Materialized.apply mat action) (probe env r2 m tuple)

let logical_view env left_tuples =
  Delta.recompute_join ~tids:(tids env) env.view left_tuples env.initial_right

let deferred env =
  let m = meter env in
  let base = make_left_btree env in
  let r2 = make_right_hash env in
  let hr = Strategy.hypothetical env.ctx ~base ~schema:env.view.j_left ~ad_buckets:env.ad_buckets in
  let mat = make_materialized env in
  let screen = make_screen env in
  let mark = Screen.screen screen in
  let handle_transaction changes =
    List.iter
      (fun (change : Strategy.change) -> Hr.apply hr ~mark ~before:change.before ~after:change.after)
      changes;
    Hr.end_transaction hr
  in
  let refresh () =
    Strategy.refresh_span m ~view:env.view.j_name @@ fun () ->
    let net =
      Cost_meter.with_category m Cost_meter.Refresh (fun () ->
          (* Pages of R2 read for the delete join stay buffered for the insert
             join (§3.4.1); both joins complete before the pool is dropped. *)
          let net =
            Hr.drain hr ~delete:(maintain env r2 m mat Delete)
              ~insert:(maintain env r2 m mat Insert)
          in
          Buffer_pool.invalidate (Hash_file.pool r2);
          Materialized.flush mat;
          net)
    in
    Hr.reset hr net
  in
  {
    Strategy.name = "deferred";
    handle_transaction;
    answer_query =
      (fun q ->
        refresh ();
        Materialized.answer mat ~meter:(meter env) ~lo:q.Strategy.q_lo ~hi:q.q_hi);
    scalar_query = Strategy.no_scalar;
    view_contents =
      (fun () ->
        let bag = Materialized.to_bag_unmetered mat in
        let outputs tuple =
          List.filter_map
            (fun right_tuple ->
              if Value.equal
                   (Tuple.get tuple env.view.j_left_col)
                   (Tuple.get right_tuple env.view.j_right_col)
              then Some (join_output env tuple right_tuple)
              else None)
            env.initial_right
        in
        Hr.pending hr
          ~delete:(fun tuple -> List.iter (fun o -> ignore (Bag.remove bag o)) (outputs tuple))
          ~insert:(fun tuple -> List.iter (fun o -> ignore (Bag.add bag o)) (outputs tuple));
        bag);
  }

let immediate env =
  let m = meter env in
  let base = make_left_btree env in
  let r2 = make_right_hash env in
  let mat = make_materialized env in
  let screen = make_screen env in
  let handle_transaction =
    Strategy.immediate_step m ~view:env.view.j_name ~base ~mark:(Screen.screen_images screen)
      ~delete:(maintain env r2 m mat Delete) ~insert:(maintain env r2 m mat Insert)
      ~flush:(fun () ->
        Buffer_pool.invalidate (Hash_file.pool r2);
        Materialized.flush mat)
  in
  {
    Strategy.name = "immediate";
    handle_transaction;
    answer_query =
      (fun q -> Materialized.answer mat ~meter:(meter env) ~lo:q.Strategy.q_lo ~hi:q.q_hi);
    scalar_query = Strategy.no_scalar;
    view_contents = (fun () -> Materialized.to_bag_unmetered mat);
  }

let qmod_loopjoin env =
  let m = meter env in
  let base = make_left_btree env in
  let r2 = make_right_hash env in
  let compiled = Predicate.compile env.view.j_left_pred in
  let answer_query (q : Strategy.query) =
    Cost_meter.with_category m Cost_meter.Query (fun () ->
        (* Only joining survivors are boxed, and the R2 probes run after the
           scan — probing Hash_file pulls pages through its buffer pool,
           which must not happen under the live base cursor (vmlint D9). *)
        let survivors = ref [] in
        Strategy.scan_modified m ~compiled ~col:(base_cluster_col env) ~lo:q.q_lo ~hi:q.q_hi
          (Btree.range_views base ~lo:q.q_lo ~hi:q.q_hi)
          (fun v -> survivors := Tuple_view.materialize v :: !survivors);
        let out = ref [] in
        List.iter
          (fun left ->
            List.iter
              (fun view_tuple -> out := (view_tuple, 1) :: !out)
              (probe env r2 m left))
          (List.rev !survivors);
        Buffer_pool.invalidate (Btree.pool base);
        Buffer_pool.invalidate (Hash_file.pool r2);
        List.rev !out)
  in
  {
    Strategy.name = "qmod-loopjoin";
    handle_transaction = Strategy.write_base m base;
    answer_query;
    scalar_query = Strategy.no_scalar;
    view_contents = (fun () -> logical_view env (Strategy.base_tuples base));
  }
