open Vmat_storage
open Vmat_relalg
module Btree = Vmat_index.Btree

type change = { before : Tuple.t option; after : Tuple.t option }

let modify ~old_tuple ~new_tuple = { before = Some old_tuple; after = Some new_tuple }
let insert tuple = { before = None; after = Some tuple }
let delete tuple = { before = Some tuple; after = None }

type query = { q_lo : Value.t; q_hi : Value.t }

type t = {
  name : string;
  handle_transaction : change list -> unit;
  answer_query : query -> (Tuple.t * int) list;
  scalar_query : unit -> float;
  view_contents : unit -> Bag.t;
}

type geometry = Ctx.geometry = { page_bytes : int; index_entry_bytes : int }

let default_geometry = Ctx.default_geometry

let fanout g = max 2 (g.page_bytes / g.index_entry_bytes)

let blocking_factor g schema = max 1 (g.page_bytes / Schema.tuple_bytes schema)

let no_scalar () = invalid_arg "Strategy.scalar_query: not an aggregate strategy"

let base_relation ctx schema ~key_col initial =
  let geometry = Ctx.geometry ctx in
  let tree =
    Btree.create ~disk:(Ctx.disk ctx) ~name:(Schema.name schema) ~fanout:(fanout geometry)
      ~leaf_capacity:(blocking_factor geometry schema) ~key_col ()
  in
  Btree.bulk_load tree initial;
  Buffer_pool.invalidate (Btree.pool tree);
  tree

let hypothetical ?layout ctx ~base ~schema ~ad_buckets =
  Vmat_hypo.Hr.create ~disk:(Ctx.disk ctx) ~tids:(Ctx.tids ctx) ~base ~schema ~ad_buckets
    ~tuples_per_page:(blocking_factor (Ctx.geometry ctx) schema)
    ?layout ()

(* Observability: run a refresh body inside a trace span that records, at
   span end, how much the refresh actually charged (modeled ms, all
   categories).  The disabled-recorder path is a single branch — no
   snapshot, no allocation — and snapshots are read-only, so the meter
   readings are identical either way. *)
let refresh_span meter ~view ?(name = "refresh") f =
  let module Recorder = Vmat_obs.Recorder in
  let r = Cost_meter.recorder meter in
  if not (Recorder.enabled r) then f ()
  else begin
    let snap = Cost_meter.snapshot meter in
    Recorder.span r ~cat:"view" name
      ~args:[ ("view", view) ]
      ~end_args:(fun () ->
        [ ("cost_ms", Printf.sprintf "%.3f" (Cost_meter.cost_since meter snap ())) ])
      f
  end

let base_tuples base =
  let tuples = ref [] in
  Btree.iter_unmetered base (fun tuple -> tuples := tuple :: !tuples);
  !tuples

let stored_view ctx ~name ~schema ~cluster_col contents =
  let geometry = Ctx.geometry ctx in
  let mat =
    Materialized.create ~disk:(Ctx.disk ctx) ~name ~fanout:(fanout geometry)
      ~leaf_capacity:(blocking_factor geometry schema) ~cluster_col ()
  in
  Materialized.rebuild mat contents;
  mat

let write_base meter base changes =
  Cost_meter.with_category meter Cost_meter.Base (fun () ->
      List.iter
        (fun change ->
          Option.iter (fun tuple -> ignore (Btree.remove_tuple base tuple)) change.before;
          Option.iter (Btree.insert base) change.after)
        changes;
      Buffer_pool.invalidate (Btree.pool base))

let immediate_step meter ~view ~base ~mark ~delete ~insert ~flush changes =
  write_base meter base changes;
  let marked_deletes = ref [] and marked_inserts = ref [] in
  List.iter
    (fun change ->
      let marked_old, marked_new = mark change in
      (match (change.before, marked_old) with
      | Some tuple, Some true -> marked_deletes := tuple :: !marked_deletes
      | _ -> ());
      match (change.after, marked_new) with
      | Some tuple, Some true -> marked_inserts := tuple :: !marked_inserts
      | _ -> ())
    changes;
  (* Resetting the in-memory A and D sets costs C3 per tuple they hold. *)
  Cost_meter.with_category meter Cost_meter.Overhead (fun () ->
      Cost_meter.charge_set_overhead meter
        (List.length !marked_deletes + List.length !marked_inserts));
  (* V' = (V - D) u A: deletions first, each set in change order. *)
  refresh_span meter ~view (fun () ->
      Cost_meter.with_category meter Cost_meter.Refresh (fun () ->
          List.iter delete (List.rev !marked_deletes);
          List.iter insert (List.rev !marked_inserts);
          flush ()))

let scan_modified meter ~compiled ~col ~lo ~hi examined k =
  examined (fun view ->
      Cost_meter.charge_predicate_test meter;
      if
        Predicate.eval_view compiled view
        && Tuple_view.compare_col view col lo >= 0
        && Tuple_view.compare_col view col hi <= 0
      then k view)

let min_sentinel = Value.Null
let max_sentinel = Value.Str "\xff\xff\xff\xff\xff\xff\xff\xff"

let clustered_scan_bounds pred ~cluster_col =
  match Predicate.tlock_intervals pred with
  | None -> (min_sentinel, max_sentinel)
  | Some intervals -> (
      match List.filter (fun (iv : Predicate.interval) -> iv.column = cluster_col) intervals with
      | [] -> (min_sentinel, max_sentinel)
      | on_cluster when List.length on_cluster <> List.length intervals ->
          (* Part of the cover is on other columns; those tuples can lie
             anywhere on the clustering column. *)
          (min_sentinel, max_sentinel)
      | on_cluster ->
          let lo =
            List.fold_left
              (fun acc (iv : Predicate.interval) ->
                match iv.lo with
                | None -> min_sentinel
                | Some v -> if Value.compare v acc < 0 then v else acc)
              max_sentinel on_cluster
          in
          let hi =
            List.fold_left
              (fun acc (iv : Predicate.interval) ->
                match iv.hi with
                | None -> max_sentinel
                | Some v -> if Value.compare v acc > 0 then v else acc)
              min_sentinel on_cluster
          in
          (lo, hi))
