open Vmat_storage
open Vmat_relalg
module Btree = Vmat_index.Btree
module Hash_file = Vmat_index.Hash_file

type side = Left | Right

type store = {
  meter : Cost_meter.t;
  tids : Tuple.source;
  view : View_def.join;
  r1 : Btree.t;
  (* Unclustered access path on R1's join column: the in-memory directory of
     an index whose page reads are charged one per probe. *)
  r1_by_jkey : (string, Tuple.t list) Hashtbl.t;
  r2 : Hash_file.t;
  screen : Screen.t;
}

type t = {
  name : string;
  handle : (side * Strategy.change) list -> unit;
  answer : Strategy.query -> (Tuple.t * int) list;
  contents : unit -> Bag.t;
}

let name t = t.name
let handle_transaction t changes = t.handle changes
let answer_query t q = t.answer q
let view_contents t = t.contents ()

let make_store (env : Strategy_join.env) =
  let ctx = env.Strategy_join.ctx in
  let meter = Ctx.meter ctx in
  let geometry = Ctx.geometry ctx in
  let view = env.view in
  let cluster_col = view.j_positions_left.(view.j_cluster_out) in
  let r1 = Strategy.base_relation ctx view.j_left ~key_col:cluster_col env.initial_left in
  let r1_by_jkey = Hashtbl.create 256 in
  let jkey_of tuple = Value.key_string (Tuple.get tuple view.j_left_col) in
  let index_add tuple =
    let key = jkey_of tuple in
    Hashtbl.replace r1_by_jkey key
      (tuple :: Option.value ~default:[] (Hashtbl.find_opt r1_by_jkey key))
  in
  let index_remove tuple =
    let key = jkey_of tuple in
    match Hashtbl.find_opt r1_by_jkey key with
    | None -> ()
    | Some tuples ->
        Hashtbl.replace r1_by_jkey key
          (List.filter (fun t -> Tuple.tid t <> Tuple.tid tuple) tuples)
  in
  List.iter index_add env.initial_left;
  let r2 =
    Hash_file.create ~disk:(Ctx.disk ctx) ~name:(Schema.name view.j_right)
      ~buckets:env.r2_buckets
      ~tuples_per_page:(Strategy.blocking_factor geometry view.j_right)
      ~key_col:view.j_right_col
      ()
  in
  List.iter (Hash_file.insert r2) env.initial_right;
  Buffer_pool.invalidate (Hash_file.pool r2);
  let screen = Screen.create ~meter ~view_name:view.j_name ~pred:view.j_left_pred () in
  let store = { meter; tids = Ctx.tids ctx; view; r1; r1_by_jkey; r2; screen } in
  (store, index_add, index_remove)

(* Collect the A and D sets of one transaction per relation (a modification
   contributes to both). *)
let partition changes =
  List.fold_left
    (fun (a1, d1, a2, d2) (side, (change : Strategy.change)) ->
      let add_opt set tuple = match tuple with Some t -> t :: set | None -> set in
      match side with
      | Left -> (add_opt a1 change.after, add_opt d1 change.before, a2, d2)
      | Right -> (a1, d1, add_opt a2 change.after, add_opt d2 change.before))
    ([], [], [], []) changes

let passes store tuple = Predicate.eval store.view.j_left_pred tuple

(* Join one left tuple to the stored R2 (hash probe, charged). *)
let probe_r2 store left_tuple =
  Cost_meter.charge_predicate_test store.meter;
  List.map
    (fun right -> View_def.join_output ~tids:store.tids store.view left_tuple right)
    (Hash_file.lookup store.r2 (Tuple.get left_tuple store.view.j_left_col))

(* Join one right tuple to the stored R1 through the unclustered join-column
   index: one page read per probe plus C1, the usual secondary-index
   charge. *)
let probe_r1 store right_tuple =
  Cost_meter.charge_read store.meter;
  Cost_meter.charge_predicate_test store.meter;
  let key = Value.key_string (Tuple.get right_tuple store.view.j_right_col) in
  List.filter_map
    (fun left ->
      if passes store left then Some (View_def.join_output ~tids:store.tids store.view left right_tuple)
      else None)
    (Option.value ~default:[] (Hashtbl.find_opt store.r1_by_jkey key))

(* In-memory join of two delta sets. *)
let join_deltas store lefts rights =
  List.concat_map
    (fun left ->
      Cost_meter.charge_predicate_test store.meter;
      if not (passes store left) then []
      else
        List.filter_map
          (fun right ->
            if
              Value.equal
                (Tuple.get left store.view.j_left_col)
                (Tuple.get right store.view.j_right_col)
            then Some (View_def.join_output ~tids:store.tids store.view left right)
            else None)
          rights)
    lefts

let base_apply store index_add index_remove ~deletes:(d1, d2) ~inserts:(a1, a2) =
  Cost_meter.with_category store.meter Cost_meter.Base (fun () ->
      List.iter
        (fun tuple ->
          ignore (Btree.remove_tuple store.r1 tuple);
          index_remove tuple)
        d1;
      List.iter
        (fun tuple ->
          ignore
            (Hash_file.remove store.r2
               ~key:(Tuple.get tuple store.view.j_right_col)
               ~tid:(Tuple.tid tuple)))
        d2;
      List.iter
        (fun tuple ->
          Btree.insert store.r1 tuple;
          index_add tuple)
        a1;
      List.iter (Hash_file.insert store.r2) a2;
      Buffer_pool.invalidate (Btree.pool store.r1))

let make_materialized (env : Strategy_join.env) =
  let ctx = env.Strategy_join.ctx in
  Strategy.stored_view ctx ~name:env.view.j_name ~schema:env.view.j_out_schema
    ~cluster_col:env.view.j_cluster_out
    (Delta.recompute_join ~tids:(Ctx.tids ctx) env.view env.initial_left env.initial_right)

let marked store tuple = Screen.screen store.screen tuple

let immediate env =
  let store, index_add, index_remove = make_store env in
  let mat = make_materialized env in
  let handle changes =
    let a1, d1, a2, d2 = partition changes in
    (* screening on the restricted relation only (stage 1 + 2); right-side
       changes always affect the view through the join, so they need no
       predicate screen *)
    let d1_marked = List.filter (marked store) d1 in
    (* Phase 1: apply the deletions, leaving the stored states at R1'/R2'. *)
    base_apply store index_add index_remove ~deletes:(d1, d2) ~inserts:([], []);
    Cost_meter.with_category store.meter Cost_meter.Refresh (fun () ->
        (* Deletion terms: D1 x R2', R1' x D2, D1 x D2. *)
        let dels =
          List.concat_map (probe_r2 store) d1_marked
          @ List.concat_map (probe_r1 store) d2
          @ join_deltas store d1 d2
        in
        (* Insertion term against R1' before A1 enters: R1' x A2. *)
        let ins_right = List.concat_map (probe_r1 store) a2 in
        List.iter (Materialized.apply mat Delete) dels;
        (* Phase 2: apply the insertions; R2 becomes R2' u A2. *)
        Cost_meter.with_category store.meter Cost_meter.Base (fun () ->
            base_apply store index_add index_remove ~deletes:([], []) ~inserts:(a1, a2));
        (* A1 x (R2' u A2) = A1 x R2' u A1 x A2. *)
        let a1_marked = List.filter (marked store) a1 in
        let ins_left = List.concat_map (probe_r2 store) a1_marked in
        List.iter (Materialized.apply mat Insert) (ins_right @ ins_left);
        Buffer_pool.invalidate (Hash_file.pool store.r2);
        Materialized.flush mat)
  in
  {
    name = "bilateral-immediate";
    handle;
    answer = (fun q -> Materialized.answer mat ~meter:store.meter ~lo:q.Strategy.q_lo ~hi:q.q_hi);
    contents = (fun () -> Materialized.to_bag_unmetered mat);
  }

let blakeley env =
  let store, index_add, index_remove = make_store env in
  let mat = make_materialized env in
  let handle changes =
    let a1, d1, a2, d2 = partition changes in
    let d1_marked = List.filter (marked store) d1 in
    let a1_marked = List.filter (marked store) a1 in
    (* All terms evaluated against the PRE-transaction states — Blakeley's
       formulation (Appendix A). *)
    Cost_meter.with_category store.meter Cost_meter.Refresh (fun () ->
        let dels =
          join_deltas store d1 d2
          @ List.concat_map (probe_r2 store) d1_marked
          @ List.concat_map (probe_r1 store) d2
        in
        let ins =
          join_deltas store a1 a2
          @ List.concat_map (probe_r2 store) a1_marked
          @ List.concat_map (probe_r1 store) a2
        in
        base_apply store index_add index_remove ~deletes:(d1, d2) ~inserts:(a1, a2);
        List.iter (Materialized.apply mat Delete) dels;
        List.iter (Materialized.apply mat Insert) ins;
        Buffer_pool.invalidate (Hash_file.pool store.r2);
        Materialized.flush mat)
  in
  {
    name = "bilateral-blakeley";
    handle;
    answer = (fun q -> Materialized.answer mat ~meter:store.meter ~lo:q.Strategy.q_lo ~hi:q.q_hi);
    contents = (fun () -> Materialized.to_bag_unmetered mat);
  }

let loopjoin env =
  let store, index_add, index_remove = make_store env in
  let compiled = Predicate.compile store.view.j_left_pred in
  let handle changes =
    let a1, d1, a2, d2 = partition changes in
    base_apply store index_add index_remove ~deletes:(d1, d2) ~inserts:(a1, a2)
  in
  let answer (q : Strategy.query) =
    Cost_meter.with_category store.meter Cost_meter.Query (fun () ->
        (* Survivors are boxed during the scan and the R2 probes run after
           it: probing Hash_file pulls pages through its buffer pool, which
           must not happen under the live R1 cursor (vmlint D9). *)
        let survivors = ref [] in
        Btree.range_views store.r1 ~lo:q.q_lo ~hi:q.q_hi (fun view ->
            Cost_meter.charge_predicate_test store.meter;
            if Predicate.eval_view compiled view then
              survivors := Tuple_view.materialize view :: !survivors);
        let out = ref [] in
        List.iter
          (fun left ->
            List.iter (fun v -> out := (v, 1) :: !out) (probe_r2 store left))
          (List.rev !survivors);
        Buffer_pool.invalidate (Btree.pool store.r1);
        Buffer_pool.invalidate (Hash_file.pool store.r2);
        List.rev !out)
  in
  let contents () =
    let lefts = Strategy.base_tuples store.r1 in
    let rights = ref [] in
    Hash_file.iter_unmetered store.r2 (fun t -> rights := t :: !rights);
    Delta.recompute_join ~tids:store.tids store.view lefts !rights
  in
  { name = "bilateral-loopjoin"; handle; answer; contents }
