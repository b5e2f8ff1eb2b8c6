open Vmat_storage
open Vmat_relalg
module Btree = Vmat_index.Btree
module Hr = Vmat_hypo.Hr

type view_state = {
  def : View_def.sp;
  mat : Materialized.t;
  screen : Screen.t;
  mutable stale : bool;
}

type t = {
  meter : Cost_meter.t;
  tids : Tuple.source;
  hr : Hr.t;
  views : (string * view_state) list;
  mutable refreshes : int;
}

let create ~ctx ~base ~views ~initial ~ad_buckets ?base_cluster () =
  let disk = Ctx.disk ctx in
  let geometry = Ctx.geometry ctx in
  let tids = Ctx.tids ctx in
  if List.is_empty views then invalid_arg "Multi_view.create: no views";
  let names = List.map (fun (v : View_def.sp) -> v.sp_name) views in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Multi_view.create: duplicate view names";
  List.iter
    (fun (v : View_def.sp) ->
      if not (Schema.name v.sp_base = Schema.name base) then
        invalid_arg ("Multi_view.create: view " ^ v.sp_name ^ " is over another schema"))
    views;
  let meter = Ctx.meter ctx in
  let base_cluster =
    match base_cluster with
    | Some name -> (
        match Schema.column_index base name with
        | i -> i
        | exception Not_found ->
            invalid_arg
              ("Multi_view.create: base_cluster " ^ name ^ " is not a column of "
             ^ Schema.name base))
    | None ->
        (* Compatibility default: cluster the base on the first view's
           clustering column, as the original single-cluster engine did. *)
        let first = List.hd views in
        first.sp_positions.(first.sp_cluster_out)
  in
  let base_tree =
    Btree.create ~disk ~name:(Schema.name base) ~fanout:(Strategy.fanout geometry)
      ~leaf_capacity:(Strategy.blocking_factor geometry base)
      ~key_col:base_cluster
      ()
  in
  Btree.bulk_load base_tree initial;
  Buffer_pool.invalidate (Btree.pool base_tree);
  let hr =
    Hr.create ~disk ~tids ~base:base_tree ~schema:base ~ad_buckets
      ~tuples_per_page:(Strategy.blocking_factor geometry base)
      ~sanitize:(Ctx.sanitizer ctx) ()
  in
  let make_state (v : View_def.sp) =
    let mat =
      Materialized.create ~disk ~name:v.sp_name ~fanout:(Strategy.fanout geometry)
        ~leaf_capacity:(Strategy.blocking_factor geometry v.sp_out_schema)
        ~cluster_col:v.sp_cluster_out ()
    in
    Materialized.rebuild mat (Delta.recompute_sp ~tids v initial);
    ( v.sp_name,
      {
        def = v;
        mat;
        screen = Screen.create ~meter ~view_name:v.sp_name ~pred:v.sp_pred ();
        stale = false;
      } )
  in
  { meter; tids; hr; views = List.map make_state views; refreshes = 0 }

let view_names t = List.map fst t.views

(* A tuple is recorded as marked in the shared differential file when it is
   marked for at least one view; per-view relevance is re-derived from the
   stored predicate at refresh time (conceptually the per-view marker bits
   stored with the entry, so no extra charge). *)
let screen_all t tuple =
  List.fold_left
    (fun any (_, state) ->
      let marked = Screen.screen state.screen tuple in
      if marked then state.stale <- true;
      marked || any)
    false t.views

let handle_transaction t changes =
  List.iter
    (fun (change : Strategy.change) ->
      let mark = Option.map (screen_all t) in
      let marked_old = mark change.Strategy.before
      and marked_new = mark change.Strategy.after in
      match (change.Strategy.before, change.Strategy.after) with
      | Some old_tuple, Some new_tuple ->
          Hr.apply_update t.hr ~old_tuple ~new_tuple
            ~marked_old:(Option.value ~default:false marked_old)
            ~marked_new:(Option.value ~default:false marked_new)
      | None, Some tuple ->
          Hr.apply_insert t.hr tuple ~marked:(Option.value ~default:false marked_new)
      | Some tuple, None ->
          Hr.apply_delete t.hr tuple ~marked:(Option.value ~default:false marked_old)
      | None, None -> ())
    changes;
  Hr.end_transaction t.hr

let relevant (state : view_state) tuple = Predicate.eval state.def.sp_pred tuple

let refresh_all t =
  if List.exists (fun (_, state) -> state.stale) t.views then begin
    t.refreshes <- t.refreshes + 1;
    Cost_meter.with_category t.meter Cost_meter.Refresh (fun () ->
        let a_net, d_net = Hr.net_changes t.hr in
        List.iter
          (fun (_, state) ->
            List.iter
              (fun (tuple, marked) ->
                if marked && relevant state tuple then
                  Materialized.apply state.mat Delete (View_def.sp_output ~tids:t.tids state.def tuple))
              d_net;
            List.iter
              (fun (tuple, marked) ->
                if marked && relevant state tuple then
                  Materialized.apply state.mat Insert (View_def.sp_output ~tids:t.tids state.def tuple))
              a_net;
            Materialized.flush state.mat;
            state.stale <- false)
          t.views);
    Hr.reset t.hr
  end

let state_of t view =
  match List.assoc_opt view t.views with
  | Some state -> state
  | None -> raise Not_found

let answer_query t ~view (q : Strategy.query) =
  refresh_all t;
  Materialized.answer (state_of t view).mat ~meter:t.meter ~lo:q.q_lo ~hi:q.q_hi

let refreshes t = t.refreshes

let view_contents t ~view =
  let state = state_of t view in
  let bag = Materialized.to_bag_unmetered state.mat in
  let a_net, d_net = Hr.net_changes_unmetered t.hr in
  List.iter
    (fun (tuple, marked) ->
      if marked && relevant state tuple then
        ignore (Bag.remove bag (View_def.sp_output ~tids:t.tids state.def tuple)))
    d_net;
  List.iter
    (fun (tuple, marked) ->
      if marked && relevant state tuple then
        ignore (Bag.add bag (View_def.sp_output ~tids:t.tids state.def tuple)))
    a_net;
  bag
