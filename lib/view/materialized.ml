open Vmat_storage
open Vmat_relalg
module Btree = Vmat_index.Btree

type t = {
  disk : Disk.t;
  name : string;
  fanout : int;
  leaf_capacity : int;
  mutable tree : Btree.t;
  cluster_col : int;
  mutable total : int;
}

let fresh_tree ~disk ~name ~fanout ~leaf_capacity ~cluster_col =
  Btree.create ~disk ~name:("view:" ^ name) ~fanout ~leaf_capacity ~key_col:cluster_col ()

let create ~disk ~name ~fanout ~leaf_capacity ~cluster_col () =
  {
    disk;
    name;
    fanout;
    leaf_capacity;
    tree = fresh_tree ~disk ~name ~fanout ~leaf_capacity ~cluster_col;
    cluster_col;
    total = 0;
  }

let tree t = t.tree
let pool t = Btree.pool t.tree
let distinct_count t = Btree.tuple_count t.tree
let total_count t = t.total
let height t = Btree.height t.tree

type action = Insert | Delete

(* A stored tuple is the view tuple's fields followed by an [Int count]. *)
let stored_of tuple ~count =
  Tuple.make ~tid:(Tuple.tid tuple) (Array.append (Tuple.values tuple) [| Value.Int count |])

let view_of stored =
  let values = Tuple.values stored in
  let n = Array.length values - 1 in
  (Tuple.make ~tid:(Tuple.tid stored) (Array.sub values 0 n), Value.as_int values.(n))

(* Bump the stored count in place: the replacement is rebuilt from the
   resident row, so representations the view tuple merely compares equal to
   are preserved exactly. *)
let bump_count t ~key ~tid delta =
  ignore
    (Btree.update_in_place t.tree ~key ~tid (fun stored ->
         let tuple, count = view_of stored in
         Tuple.with_tid (stored_of tuple ~count:(count + delta)) tid))

let apply t action tuple =
  let key = Tuple.get tuple t.cluster_col in
  let n = Tuple.arity tuple in
  (* First stored row (in (key, tid) order) whose view fields equal the
     tuple's, matched off the page cells; only its tid and count are kept. *)
  let existing = ref None in
  Btree.find_views t.tree key (fun v ->
      if Option.is_none !existing && Tuple_view.equal_prefix_values v tuple n then
        existing := Some (Tuple_view.tid v, Tuple_view.get_int v n));
  match (action, !existing) with
  | Insert, None ->
      Btree.insert t.tree (stored_of tuple ~count:1);
      t.total <- t.total + 1
  | Insert, Some (tid, _) ->
      bump_count t ~key ~tid 1;
      t.total <- t.total + 1
  | Delete, Some (tid, count) ->
      if count <= 1 then ignore (Btree.remove t.tree ~key ~tid)
      else bump_count t ~key ~tid (-1);
      t.total <- t.total - 1
  | Delete, None ->
      Printf.ksprintf failwith
        "Materialized.apply: delete of absent view tuple %s"
        (Format.asprintf "%a" Tuple.pp tuple)

let flush t = Buffer_pool.invalidate (Btree.pool t.tree)

let range t ~lo ~hi f =
  Btree.range_views t.tree ~lo ~hi (fun v ->
      let n = Tuple_view.arity v - 1 in
      f (Tuple_view.materialize_prefix v n ~tid:(Tuple_view.tid v)) (Tuple_view.get_int v n))

let answer t ~meter ~lo ~hi =
  Cost_meter.with_category meter Cost_meter.Query (fun () ->
      let rows =
        Btree.range_rows t.tree ~lo ~hi (fun v ->
            Cost_meter.charge_predicate_test meter;
            Tuple_view.counted_row v)
      in
      flush t;
      rows)

let rebuild t bag =
  (* Truncation is a metadata operation (uncharged); bulk-loading the
     recomputed contents packs pages full (the paper's assumption) and
     charges one write per page built, through the pool flush. *)
  t.tree <-
    fresh_tree ~disk:t.disk ~name:t.name ~fanout:t.fanout ~leaf_capacity:t.leaf_capacity
      ~cluster_col:t.cluster_col;
  t.total <- 0;
  let stored = ref [] in
  Bag.iter bag (fun tuple count ->
      if count > 0 then begin
        stored := stored_of tuple ~count :: !stored;
        t.total <- t.total + count
      end);
  Btree.bulk_load t.tree !stored;
  flush t

let to_bag_unmetered t =
  let bag = Bag.create () in
  Btree.iter_views_unmetered t.tree (fun v ->
      let n = Tuple_view.arity v - 1 in
      Bag.add_count bag
        (Tuple_view.materialize_prefix v n ~tid:(Tuple_view.tid v))
        (Tuple_view.get_int v n));
  bag
