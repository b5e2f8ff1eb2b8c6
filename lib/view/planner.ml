open Vmat_storage
open Vmat_relalg
module Btree = Vmat_index.Btree

type route = Via_base | Via_view

type t = {
  meter : Cost_meter.t;
  tids : Tuple.source;
  view : View_def.sp;
  base_cluster_col : int;
  base : Btree.t;
  mat : Materialized.t;
  compiled : Tuple_view.t -> bool option;  (* sp_pred over page cursors *)
  screen : Screen.t;
  reads : int list;  (* the view's columns, for the readily-ignorable test *)
}

let create ~ctx ~view ~base_cluster ~initial () =
  let tids = Ctx.tids ctx in
  let base_cluster_col =
    match Schema.column_index view.View_def.sp_base base_cluster with
    | i -> i
    | exception Not_found ->
        invalid_arg ("Planner.create: unknown base column " ^ base_cluster)
  in
  let meter = Ctx.meter ctx in
  let base = Strategy.base_relation ctx view.sp_base ~key_col:base_cluster_col initial in
  let mat =
    Strategy.stored_view ctx ~name:view.sp_name ~schema:view.sp_out_schema
      ~cluster_col:view.sp_cluster_out (Delta.recompute_sp ~tids view initial)
  in
  let screen = Screen.create ~meter ~view_name:view.sp_name ~pred:view.sp_pred () in
  let compiled = Predicate.compile view.sp_pred in
  let reads = View_def.sp_reads view in
  { meter; tids; view; base_cluster_col; base; mat; compiled; screen; reads }

let handle_transaction t changes =
  let maintain action tuple =
    Materialized.apply t.mat action (View_def.sp_output ~tids:t.tids t.view tuple)
  in
  Strategy.immediate_step t.meter ~view:t.view.sp_name ~base:t.base
    ~mark:(Screen.screen_change t.screen ~reads:t.reads)
    ~delete:(maintain Delete) ~insert:(maintain Insert)
    ~flush:(fun () -> Materialized.flush t.mat)
    changes

(* Column resolution: its base position, and its output position when
   projected into the view. *)
let resolve t column =
  let base_col =
    match Schema.column_index t.view.sp_base column with
    | i -> i
    | exception Not_found -> invalid_arg ("Planner: unknown column " ^ column)
  in
  let out_col =
    let rec find i =
      if i >= Array.length t.view.sp_positions then None
      else if t.view.sp_positions.(i) = base_col then Some i
      else find (i + 1)
    in
    find 0
  in
  (base_col, out_col)

(* Selectivity of a range against a clustered structure, estimated from its
   current key span (catalog statistics, assuming a roughly uniform key
   distribution); 1.0 when the keys are not numeric. *)
let range_fraction tree ~lo ~hi =
  match (Btree.min_key_unmetered tree, Btree.max_key_unmetered tree) with
  | Some min_key, Some max_key -> (
      match
        ( Value.as_float min_key,
          Value.as_float max_key,
          Value.as_float lo,
          Value.as_float hi )
      with
      | kmin, kmax, a, b when kmax > kmin ->
          Float.max 0. (Float.min 1. ((Float.min b kmax -. Float.max a kmin) /. (kmax -. kmin)))
      | _ -> 1.
      | exception Invalid_argument _ -> 1.)
  | _ -> 1.

let plan t ~column ~lo ~hi =
  let base_col, out_col = resolve t column in
  let base_pages =
    float_of_int (Btree.leaf_pages t.base)
    *. (if base_col = t.base_cluster_col then range_fraction t.base ~lo ~hi else 1.)
  in
  let view_pages =
    match out_col with
    | None -> Float.infinity (* the view cannot answer a filter on this column *)
    | Some out ->
        let tree = Materialized.tree t.mat in
        float_of_int (Btree.leaf_pages tree)
        *. (if out = t.view.sp_cluster_out then range_fraction tree ~lo ~hi else 1.)
  in
  if base_pages <= view_pages then Via_base else Via_view

let in_range value ~lo ~hi = Value.compare lo value <= 0 && Value.compare value hi <= 0

let answer_via t route ~column ~lo ~hi =
  let base_col, out_col = resolve t column in
  match route with
  | Via_base ->
      Cost_meter.with_category t.meter Cost_meter.Query (fun () ->
          let out = ref [] in
          let scan_lo, scan_hi =
            if base_col = t.base_cluster_col then (lo, hi)
            else (Strategy.min_sentinel, Strategy.max_sentinel)
          in
          Strategy.scan_modified t.meter ~compiled:t.compiled ~col:base_col ~lo ~hi
            (Btree.range_views t.base ~lo:scan_lo ~hi:scan_hi)
            (fun v -> out := (View_def.sp_output_view ~tids:t.tids t.view v, 1) :: !out);
          Buffer_pool.invalidate (Btree.pool t.base);
          List.rev !out)
  | Via_view -> (
      match out_col with
      | None -> invalid_arg "Planner.answer_via: column not projected into the view"
      | Some out ->
          Cost_meter.with_category t.meter Cost_meter.Query (fun () ->
              let results = ref [] in
              let scan_lo, scan_hi =
                if out = t.view.sp_cluster_out then (lo, hi)
                else (Strategy.min_sentinel, Strategy.max_sentinel)
              in
              Materialized.range t.mat ~lo:scan_lo ~hi:scan_hi (fun tuple count ->
                  Cost_meter.charge_predicate_test t.meter;
                  if in_range (Tuple.get tuple out) ~lo ~hi then
                    results := (tuple, count) :: !results);
              Buffer_pool.invalidate (Materialized.pool t.mat);
              List.rev !results))

let answer t ~column ~lo ~hi =
  let route = plan t ~column ~lo ~hi in
  (route, answer_via t route ~column ~lo ~hi)
