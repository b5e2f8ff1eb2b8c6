(* The benchmark's own answer oracle: a plain copy of the base relation
   (tid -> tuple), kept up to date from the change stream, and a filter
   over it.  Answers are compared as value-keyed bags (tids excluded), the
   equivalence the engine promises.  It uses only the reference predicate
   evaluator, never the engine's compiled scan path. *)

open Core

type t = { base : (int, Tuple.t) Hashtbl.t }

let create initial =
  let base = Hashtbl.create (List.length initial) in
  List.iter (fun tuple -> Hashtbl.replace base (Tuple.tid tuple) tuple) initial;
  { base }

let apply t (changes : Strategy.change list) =
  List.iter
    (fun (c : Strategy.change) ->
      Option.iter (fun old -> Hashtbl.remove t.base (Tuple.tid old)) c.Strategy.before;
      Option.iter (fun tuple -> Hashtbl.replace t.base (Tuple.tid tuple) tuple) c.Strategy.after)
    changes

(* Net base contents, ascending tid (the order a rebuild starts from). *)
let base_contents t =
  List.sort
    (fun a b -> Int.compare (Tuple.tid a) (Tuple.tid b))
    (Hashtbl.fold (fun _ tuple acc -> tuple :: acc) t.base [])

(* A bag as a sorted (value key, count) list without zero counts. *)
type bag = (string * int) list

let bag_of_counts tbl : bag =
  List.sort compare (Hashtbl.fold (fun k c acc -> if c = 0 then acc else (k, c) :: acc) tbl [])

let bag_of_rows rows : bag =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (tuple, count) ->
      let key = Tuple.value_key tuple in
      Hashtbl.replace tbl key (count + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    rows;
  bag_of_counts tbl

let bag_of_bag b =
  let rows = ref [] in
  Bag.iter b (fun tuple count -> rows := (tuple, count) :: !rows);
  bag_of_rows !rows

(* The view's rows whose clustering value lies in [lo, hi] (inclusive, as
   the engine's range queries are); the whole view without a range. *)
let expected ?range t (v : View_def.sp) : bag =
  let cluster = v.View_def.sp_positions.(v.View_def.sp_cluster_out) in
  let in_range tuple =
    match range with
    | None -> true
    | Some (q : Strategy.query) ->
        let x = Tuple.get tuple cluster in
        Value.compare x q.Strategy.q_lo >= 0 && Value.compare x q.Strategy.q_hi <= 0
  in
  let tbl = Hashtbl.create 256 in
  Hashtbl.iter
    (fun _ tuple ->
      if in_range tuple && Predicate.eval v.View_def.sp_pred tuple then begin
        let key = Tuple.value_key (Tuple.project tuple v.View_def.sp_positions) in
        Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
      end)
    t.base;
  bag_of_counts tbl
