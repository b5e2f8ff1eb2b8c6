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
