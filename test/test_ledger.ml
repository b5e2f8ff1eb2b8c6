open Core

(* The per-engine charge ledger.  Every engine in lib/view runs over fixed
   seeded streams, and the ledger pins what each run charged: per category
   the page reads, page writes, C1 predicate tests and C3 tuples, the disk's
   buffer-pool hits and misses, the output tids minted, and digests of the
   canonical (tid-free, sorted) query answers and final contents.

   The golden table was generated once and is not edited: a refactor of the
   engines must reproduce every figure.  A mismatch fails with the lines
   that moved and prints the whole measured table.

   For each model there are three streams: one modifies the predicate and
   clustering column, one a projected column, and one a column no view
   reads, so that the readily-ignorable-update test fires. *)

let geometry = { Strategy.page_bytes = 400; index_entry_bytes = 20 }
let first_tid = 1_000_000
let fresh_ctx () = Ctx.create ~geometry ~first_tid ()

let short_digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let canonical_rows rows =
  String.concat ","
    (List.sort String.compare
       (List.map
          (fun (tuple, count) -> Printf.sprintf "%S*%d" (Tuple.value_key tuple) count)
          rows))

let canonical_bag bag =
  let rows = ref [] in
  Bag.iter bag (fun tuple count -> rows := (tuple, count) :: !rows);
  canonical_rows !rows

(* One ledger line: the meter's tallies for every category that saw a
   charge, the pool counters and the tids minted, then the digests. *)
let ledger_line ~label ctx ~answers ~contents =
  let m = Ctx.meter ctx in
  let disk = Ctx.disk ctx in
  let categories =
    List.filter_map
      (fun cat ->
        let r = Cost_meter.reads m cat
        and w = Cost_meter.writes m cat
        and t = Cost_meter.predicate_tests m cat
        and c3 = Cost_meter.overhead_tuples m cat in
        if r = 0 && w = 0 && t = 0 && c3 = 0 then None
        else Some (Printf.sprintf "%s %d/%d/%d/%d" (Cost_meter.category_name cat) r w t c3))
      Cost_meter.all_categories
  in
  let tids = Tuple.peek (Ctx.tids ctx) - first_tid in
  let pool = Printf.sprintf "pool %d/%d" (Disk.pool_hits disk) (Disk.pool_misses disk) in
  let ans = short_digest (String.concat "|" answers) in
  Printf.sprintf "%s | %s | %s | tids %d | ans %s | out %s" label
    (String.concat " " categories) pool tids ans (short_digest (contents ()))

(* ------------------------------------------------------------------ *)
(* Streams                                                            *)
(* ------------------------------------------------------------------ *)

type stream = { s_name : string; col : int; draw : Rng.t -> Value.t }

let float_draw rng = Value.Float (Rng.float rng)
let amount_draw rng = Value.Float (float_of_int (Rng.int rng 1000))
let string_draw prefix rng = Value.Str (Printf.sprintf "%s%06d" prefix (Rng.int rng 1_000_000))

(* Model 1 and Model 3 share the base schema (id, pval, amount, note): the
   view tests and clusters on pval and projects pval and amount. *)
let sp_streams =
  [
    { s_name = "pval"; col = 1; draw = float_draw };
    { s_name = "amount"; col = 2; draw = amount_draw };
    { s_name = "note"; col = 3; draw = string_draw "n" };
  ]

(* Model 2's left relation is (id, pval, jkey, c): the view tests and
   clusters on pval, joins on jkey and projects pval and c. *)
let join_streams =
  [
    { s_name = "pval"; col = 1; draw = float_draw };
    { s_name = "c"; col = 3; draw = string_draw "c" };
    { s_name = "id"; col = 0; draw = (fun rng -> Value.Int (Rng.int rng 1000)) };
  ]

let seed = 2718
let n = 160
let f = 0.4

(* A fresh world per stream: its own tid source and generator, so the
   table does not depend on the order the cases run in. *)
let ops_over ~rng ~tids ~tuples stream =
  Stream.generate ~rng ~tuples:(Array.of_list tuples)
    ~mutate:(Stream.mutate_column ~tids ~col:stream.col stream.draw)
    ~k:12 ~l:4 ~q:6
    ~query_of:(Stream.range_query_of ~lo_max:0.3 ~width:0.1)

let model1_world stream =
  let rng = Rng.create seed in
  let tids = Tuple.source ~first:1 () in
  let ds = Dataset.make_model1 ~rng ~tids ~n ~f ~s_bytes:100 in
  (ds, ops_over ~rng ~tids ~tuples:ds.Dataset.m1_tuples stream)

let model2_world stream =
  let rng = Rng.create seed in
  let tids = Tuple.source ~first:1 () in
  let ds = Dataset.make_model2 ~rng ~tids ~n ~f ~f_r2:0.25 ~s_bytes:100 in
  (ds, ops_over ~rng ~tids ~tuples:ds.Dataset.m2_left_tuples stream)

let model3_world stream =
  let rng = Rng.create seed in
  let tids = Tuple.source ~first:1 () in
  let ds = Dataset.make_model3 ~rng ~tids ~n ~f ~s_bytes:100 ~kind:(`Sum "amount") in
  (ds, ops_over ~rng ~tids ~tuples:ds.Dataset.m3_tuples stream)

(* ------------------------------------------------------------------ *)
(* Running the engines                                                *)
(* ------------------------------------------------------------------ *)

(* [on_op i] runs before op [i] (Adaptive's forced migrations). *)
let drive ?(on_op = fun _ -> ()) ~label ctx (s : Strategy.t) ops =
  let answers =
    List.concat
      (List.mapi
         (fun i op ->
           on_op i;
           match op with
           | Stream.Txn changes ->
               s.Strategy.handle_transaction changes;
               []
           | Stream.Query q -> [ canonical_rows (s.Strategy.answer_query q) ])
         ops)
  in
  ledger_line ~label ctx ~answers ~contents:(fun () -> canonical_bag (s.Strategy.view_contents ()))

let sp_engines =
  Strategy_sp.
    [
      ("deferred", deferred);
      ("deferred-async", deferred_async);
      ("deferred-split-ad", deferred_split_ad);
      ("deferred-periodic", deferred_periodic ~every:3);
      ("snapshot", snapshot ~period:3);
      ("immediate", immediate);
      ("qmod-clustered", qmod_clustered);
      ("qmod-unclustered", qmod_unclustered);
      ("qmod-sequential", qmod_sequential);
      ("recompute", recompute);
    ]

let sp_env ctx (ds : Dataset.model1) =
  { Strategy_sp.ctx; view = ds.m1_view; initial = ds.m1_tuples; ad_buckets = 4 }

(* Starts deferred and is forced through every other kind, evenly spaced
   over the stream, ending deferred again. *)
let adaptive_line ~prefix ds ops =
  let ctx = fresh_ctx () in
  let config = { Controller.default_config with Controller.min_ops = max_int } in
  let a =
    Adaptive.wrap ~config ~candidates:Migrate.all_kinds ~initial_kind:Migrate.Deferred
      (sp_env ctx ds)
  in
  let path = Migrate.[ Immediate; Qmod_clustered; Qmod_unclustered; Qmod_sequential; Deferred ] in
  let nops = List.length ops and nmig = List.length path in
  let on_op i =
    List.iteri
      (fun j kind -> if i = (j + 1) * nops / (nmig + 1) then ignore (Adaptive.force_migrate a kind))
      path
  in
  drive ~on_op ~label:(prefix ^ " adaptive") ctx (Adaptive.strategy a) ops

let planner_line ~prefix route ds ops =
  let ctx = fresh_ctx () in
  let p =
    Planner.create ~ctx ~view:ds.Dataset.m1_view ~base_cluster:"id" ~initial:ds.Dataset.m1_tuples ()
  in
  let answer ~lo ~hi = canonical_rows (Planner.answer_via p route ~column:"pval" ~lo ~hi) in
  let answers =
    List.filter_map
      (function
        | Stream.Txn changes ->
            Planner.handle_transaction p changes;
            None
        | Stream.Query q -> Some (answer ~lo:q.Strategy.q_lo ~hi:q.q_hi))
      ops
  in
  let name = match route with Planner.Via_base -> "planner-base" | Via_view -> "planner-view" in
  ledger_line ~label:(prefix ^ " " ^ name) ctx ~answers ~contents:(fun () ->
      answer ~lo:Strategy.min_sentinel ~hi:Strategy.max_sentinel)

let model1_lines () =
  List.concat_map
    (fun stream ->
      let ds, ops = model1_world stream in
      let prefix = "m1/" ^ stream.s_name in
      List.map
        (fun (name, make) ->
          let ctx = fresh_ctx () in
          drive ~label:(prefix ^ " " ^ name) ctx (make (sp_env ctx ds)) ops)
        sp_engines
      @ [
          planner_line ~prefix Planner.Via_base ds ops;
          planner_line ~prefix Planner.Via_view ds ops;
          adaptive_line ~prefix ds ops;
        ])
    sp_streams

let join_env ctx (ds : Dataset.model2) =
  {
    Strategy_join.ctx;
    view = ds.m2_view;
    initial_left = ds.m2_left_tuples;
    initial_right = ds.m2_right_tuples;
    ad_buckets = 4;
    r2_buckets = 8;
  }

let bilateral_line ~label make ds ops =
  let ctx = fresh_ctx () in
  let b = make (join_env ctx ds) in
  let answers =
    List.filter_map
      (function
        | Stream.Txn changes ->
            Bilateral.handle_transaction b (List.map (fun c -> (Bilateral.Left, c)) changes);
            None
        | Stream.Query q -> Some (canonical_rows (Bilateral.answer_query b q)))
      ops
  in
  ledger_line ~label ctx ~answers ~contents:(fun () -> canonical_bag (Bilateral.view_contents b))

let model2_lines () =
  List.concat_map
    (fun stream ->
      let ds, ops = model2_world stream in
      let prefix = "m2/" ^ stream.s_name in
      List.map
        (fun (name, make) ->
          let ctx = fresh_ctx () in
          drive ~label:(prefix ^ " " ^ name) ctx (make (join_env ctx ds)) ops)
        Strategy_join.
          [ ("deferred", deferred); ("immediate", immediate); ("qmod-loopjoin", qmod_loopjoin) ]
      @ [
          bilateral_line ~label:(prefix ^ " bilateral-immediate") Bilateral.immediate ds ops;
          bilateral_line ~label:(prefix ^ " bilateral-loopjoin") Bilateral.loopjoin ds ops;
        ])
    join_streams

let trigger_line ~label (ds : Dataset.model3) ops =
  let ctx = fresh_ctx () in
  let conditions = Trigger.[ Above 29000.; Below 28800.; Nonempty; Empty ] in
  let t = Trigger.create ~ctx ~agg:ds.m3_agg ~initial:ds.m3_tuples ~conditions () in
  List.iter (function Stream.Txn changes -> Trigger.handle_transaction t changes | _ -> ()) ops;
  let events =
    List.map
      (fun (e : Trigger.event) ->
        let index = Option.get (List.find_index (( = ) e.condition) conditions) in
        Printf.sprintf "%d@%d=%h" index e.transaction e.value)
      (Trigger.events t)
  in
  ledger_line ~label ctx ~answers:events ~contents:(fun () ->
      Printf.sprintf "%h" (Trigger.current_value t))

let model3_lines () =
  List.concat_map
    (fun stream ->
      let ds, ops = model3_world stream in
      let prefix = "m3/" ^ stream.s_name in
      List.map
        (fun (name, make) ->
          let ctx = fresh_ctx () in
          let env =
            { Strategy_agg.ctx; agg = ds.Dataset.m3_agg; initial = ds.m3_tuples; ad_buckets = 4 }
          in
          drive ~label:(prefix ^ " " ^ name) ctx (make env) ops)
        Strategy_agg.[ ("deferred", deferred); ("immediate", immediate); ("recompute", recompute) ]
      @ [ trigger_line ~label:(prefix ^ " trigger") ds ops ])
    sp_streams

(* ------------------------------------------------------------------ *)
(* The golden table                                                   *)
(* ------------------------------------------------------------------ *)

let golden_model1 =
  [
    "m1/pval deferred | base 160/209/0/0 hr 38/0/0/0 refresh 69/35/0/0 query 31/0/86/0 screen 0/0/38/0 | pool 408/250 | tids 194 | ans a036334280e4 | out 882314f0380c";
    "m1/pval deferred-async | base 296/262/0/0 hr 38/0/0/0 refresh 24/0/0/0 query 33/0/86/0 screen 0/0/38/0 | pool 350/343 | tids 194 | ans a036334280e4 | out 882314f0380c";
    "m1/pval deferred-split-ad | base 160/225/0/0 hr 48/0/0/0 refresh 71/35/0/0 query 31/0/86/0 screen 0/0/38/0 | pool 392/262 | tids 194 | ans a036334280e4 | out 882314f0380c";
    "m1/pval deferred-periodic | base 172/212/0/0 hr 38/0/0/0 refresh 87/38/0/0 query 31/0/86/0 screen 0/0/38/0 | pool 386/280 | tids 194 | ans a036334280e4 | out 882314f0380c";
    "m1/pval snapshot | base 147/200/0/0 hr 40/0/0/0 refresh 58/28/0/0 query 27/0/84/0 screen 0/0/38/0 | pool 428/224 | tids 192 | ans 7bc62a495af5 | out 882314f0380c";
    "m1/pval immediate | base 146/182/0/0 refresh 54/42/0/0 query 33/0/86/0 screen 0/0/38/0 overhead 0/0/0/38 | pool 292/233 | tids 98 | ans a036334280e4 | out 882314f0380c";
    "m1/pval qmod-clustered | base 146/173/0/0 query 51/0/86/0 | pool 148/197 | tids 86 | ans a036334280e4 | out 882314f0380c";
    "m1/pval qmod-unclustered | base 87/87/0/0 query 69/0/86/0 | pool 186/156 | tids 86 | ans a036334280e4 | out 882314f0380c";
    "m1/pval qmod-sequential | base 87/87/0/0 query 240/0/960/0 | pool 169/327 | tids 86 | ans a036334280e4 | out 882314f0380c";
    "m1/pval recompute | base 146/182/0/0 refresh 139/49/329/0 query 23/0/86/0 screen 0/0/38/0 | pool 154/308 | tids 389 | ans a036334280e4 | out 882314f0380c";
    "m1/pval planner-base | base 80/99/0/0 refresh 54/42/0/0 query 252/0/960/0 screen 0/0/38/0 overhead 0/0/0/38 | pool 358/386 | tids 184 | ans a036334280e4 | out 882314f0380c";
    "m1/pval planner-view | base 80/99/0/0 refresh 54/42/0/0 query 33/0/86/0 screen 0/0/38/0 overhead 0/0/0/38 | pool 358/167 | tids 98 | ans a036334280e4 | out 882314f0380c";
    "m1/pval adaptive | base 193/420/0/0 hr 13/0/0/0 refresh 37/25/0/0 query 75/0/236/0 screen 0/0/22/0 overhead 0/0/0/7 migrate 40/10/160/0 | pool 489/302 | tids 269 | ans a036334280e4 | out 882314f0380c";
    "m1/amount deferred | base 112/138/0/0 hr 38/0/0/0 refresh 54/18/0/0 query 25/0/89/0 screen 0/0/46/0 | pool 508/181 | tids 202 | ans bb8512b703a2 | out a5533272fa50";
    "m1/amount deferred-async | base 213/161/0/0 hr 38/0/0/0 refresh 24/0/0/0 query 25/0/89/0 screen 0/0/46/0 | pool 469/252 | tids 202 | ans bb8512b703a2 | out a5533272fa50";
    "m1/amount deferred-split-ad | base 112/154/0/0 hr 48/0/0/0 refresh 56/18/0/0 query 25/0/89/0 screen 0/0/46/0 | pool 492/193 | tids 202 | ans bb8512b703a2 | out a5533272fa50";
    "m1/amount deferred-periodic | base 116/137/0/0 hr 38/0/0/0 refresh 70/19/0/0 query 25/0/89/0 screen 0/0/46/0 | pool 496/201 | tids 202 | ans bb8512b703a2 | out a5533272fa50";
    "m1/amount snapshot | base 103/133/0/0 hr 40/0/0/0 refresh 50/18/0/0 query 25/0/89/0 screen 0/0/46/0 | pool 517/170 | tids 200 | ans f7184e65792a | out a5533272fa50";
    "m1/amount immediate | base 82/100/0/0 refresh 35/23/0/0 query 25/0/89/0 screen 0/0/46/0 overhead 0/0/0/46 | pool 411/142 | tids 106 | ans bb8512b703a2 | out a5533272fa50";
    "m1/amount qmod-clustered | base 82/91/0/0 query 42/0/89/0 | pool 212/124 | tids 89 | ans bb8512b703a2 | out a5533272fa50";
    "m1/amount qmod-unclustered | base 87/87/0/0 query 73/0/89/0 | pool 185/160 | tids 89 | ans bb8512b703a2 | out a5533272fa50";
    "m1/amount qmod-sequential | base 87/87/0/0 query 240/0/960/0 | pool 169/327 | tids 89 | ans bb8512b703a2 | out a5533272fa50";
    "m1/amount recompute | base 82/100/0/0 refresh 108/54/360/0 query 25/0/89/0 screen 0/0/46/0 | pool 218/215 | tids 420 | ans bb8512b703a2 | out a5533272fa50";
    "m1/amount planner-base | base 80/99/0/0 refresh 35/23/0/0 query 252/0/960/0 screen 0/0/46/0 overhead 0/0/0/46 | pool 413/367 | tids 195 | ans bb8512b703a2 | out a5533272fa50";
    "m1/amount planner-view | base 80/99/0/0 refresh 35/23/0/0 query 25/0/89/0 screen 0/0/46/0 overhead 0/0/0/46 | pool 413/140 | tids 106 | ans bb8512b703a2 | out a5533272fa50";
    "m1/amount adaptive | base 160/340/0/0 hr 13/0/0/0 refresh 29/11/0/0 query 73/0/235/0 screen 0/0/26/0 overhead 0/0/0/10 migrate 40/11/160/0 | pool 547/259 | tids 283 | ans bb8512b703a2 | out a5533272fa50";
    "m1/note deferred | base 112/138/0/0 hr 38/0/0/0 refresh 30/0/0/0 query 25/0/89/0 | pool 298/157 | tids 156 | ans b6968286fd25 | out 05ac1b39a420";
    "m1/note deferred-async | base 178/138/0/0 hr 38/0/0/0 refresh 24/0/0/0 query 25/0/89/0 | pool 270/217 | tids 156 | ans b6968286fd25 | out 05ac1b39a420";
    "m1/note deferred-split-ad | base 112/154/0/0 hr 48/0/0/0 refresh 32/0/0/0 query 25/0/89/0 | pool 282/169 | tids 156 | ans b6968286fd25 | out 05ac1b39a420";
    "m1/note deferred-periodic | base 116/137/0/0 hr 38/0/0/0 refresh 43/0/0/0 query 25/0/89/0 | pool 289/174 | tids 156 | ans b6968286fd25 | out 05ac1b39a420";
    "m1/note snapshot | base 103/133/0/0 hr 40/0/0/0 refresh 28/0/0/0 query 25/0/89/0 | pool 315/148 | tids 156 | ans b6968286fd25 | out 05ac1b39a420";
    "m1/note immediate | base 82/100/0/0 query 25/0/89/0 | pool 212/107 | tids 60 | ans b6968286fd25 | out 05ac1b39a420";
    "m1/note qmod-clustered | base 82/91/0/0 query 42/0/89/0 | pool 212/124 | tids 89 | ans b6968286fd25 | out 05ac1b39a420";
    "m1/note qmod-unclustered | base 87/87/0/0 query 73/0/89/0 | pool 185/160 | tids 89 | ans b6968286fd25 | out 05ac1b39a420";
    "m1/note qmod-sequential | base 87/87/0/0 query 240/0/960/0 | pool 169/327 | tids 89 | ans b6968286fd25 | out 05ac1b39a420";
    "m1/note recompute | base 82/100/0/0 query 25/0/89/0 | pool 212/107 | tids 60 | ans b6968286fd25 | out 05ac1b39a420";
    "m1/note planner-base | base 80/99/0/0 query 252/0/960/0 | pool 214/332 | tids 149 | ans b6968286fd25 | out 05ac1b39a420";
    "m1/note planner-view | base 80/99/0/0 query 25/0/89/0 | pool 214/105 | tids 60 | ans b6968286fd25 | out 05ac1b39a420";
    "m1/note adaptive | base 160/340/0/0 hr 13/0/0/0 refresh 14/0/0/0 query 73/0/235/0 migrate 40/11/160/0 | pool 430/244 | tids 257 | ans b6968286fd25 | out 05ac1b39a420";
  ]

let golden_model2 =
  [
    "m2/pval deferred | base 169/229/0/0 hr 30/0/0/0 refresh 138/54/42/0 query 44/0/78/0 screen 0/0/42/0 | pool 549/333 | tids 264 | ans 9015fb90396d | out e8494b4cace2";
    "m2/pval immediate | base 150/196/0/0 refresh 121/57/42/0 query 44/0/78/0 screen 0/0/42/0 overhead 0/0/0/42 | pool 423/315 | tids 168 | ans 9015fb90396d | out e8494b4cace2";
    "m2/pval qmod-loopjoin | base 150/179/0/0 query 110/0/156/0 | pool 265/260 | tids 78 | ans 9015fb90396d | out e8494b4cace2";
    "m2/pval bilateral-immediate | base 189/204/0/0 refresh 121/57/90/0 query 44/0/78/0 screen 0/0/42/0 | pool 384/354 | tids 168 | ans 9015fb90396d | out e8494b4cace2";
    "m2/pval bilateral-loopjoin | base 149/179/0/0 query 108/0/156/0 | pool 266/257 | tids 78 | ans 9015fb90396d | out e8494b4cace2";
    "m2/c deferred | base 122/158/0/0 hr 30/0/0/0 refresh 88/17/34/0 query 33/0/75/0 screen 0/0/34/0 | pool 543/225 | tids 256 | ans 7ab512cf9727 | out 3114b4bd866e";
    "m2/c immediate | base 90/120/0/0 refresh 62/17/34/0 query 33/0/75/0 screen 0/0/34/0 overhead 0/0/0/34 | pool 439/185 | tids 160 | ans 7ab512cf9727 | out 3114b4bd866e";
    "m2/c qmod-loopjoin | base 90/103/0/0 query 101/0/150/0 | pool 318/191 | tids 75 | ans 7ab512cf9727 | out 3114b4bd866e";
    "m2/c bilateral-immediate | base 172/168/0/0 refresh 62/17/82/0 query 33/0/75/0 screen 0/0/34/0 | pool 357/267 | tids 160 | ans 7ab512cf9727 | out 3114b4bd866e";
    "m2/c bilateral-loopjoin | base 90/103/0/0 query 101/0/150/0 | pool 318/191 | tids 75 | ans 7ab512cf9727 | out 3114b4bd866e";
    "m2/id deferred | base 122/169/0/0 hr 41/0/0/0 refresh 87/17/34/0 query 33/0/75/0 screen 0/0/34/0 | pool 521/235 | tids 256 | ans 33579c115fb8 | out 97d6775e50fc";
    "m2/id immediate | base 90/120/0/0 refresh 62/17/34/0 query 33/0/75/0 screen 0/0/34/0 overhead 0/0/0/34 | pool 439/185 | tids 160 | ans 33579c115fb8 | out 97d6775e50fc";
    "m2/id qmod-loopjoin | base 90/103/0/0 query 101/0/150/0 | pool 318/191 | tids 75 | ans 33579c115fb8 | out 97d6775e50fc";
    "m2/id bilateral-immediate | base 172/168/0/0 refresh 62/17/82/0 query 33/0/75/0 screen 0/0/34/0 | pool 357/267 | tids 160 | ans 33579c115fb8 | out 97d6775e50fc";
    "m2/id bilateral-loopjoin | base 90/103/0/0 query 101/0/150/0 | pool 318/191 | tids 75 | ans 33579c115fb8 | out 97d6775e50fc";
  ]

let golden_model3 =
  [
    "m3/pval deferred | base 160/200/0/0 hr 38/0/0/0 refresh 30/6/0/0 query 6/0/0/0 screen 0/0/38/0 | pool 244/180 | tids 102 | ans c4f19964bc9b | out d03e8d5cfb6f";
    "m3/pval immediate | base 146/173/0/0 refresh 0/12/0/0 query 6/0/0/0 screen 0/0/38/0 | pool 142/146 | tids 6 | ans c4f19964bc9b | out d03e8d5cfb6f";
    "m3/pval recompute | base 146/173/0/0 query 139/0/329/0 | pool 148/285 | tids 6 | ans c4f19964bc9b | out d03e8d5cfb6f";
    "m3/pval trigger | refresh 0/12/0/0 screen 0/0/38/0 | pool 0/0 | tids 0 | ans 6a9da17c5720 | out f0db86b0fcf1";
    "m3/amount deferred | base 112/129/0/0 hr 38/0/0/0 refresh 30/6/0/0 query 6/0/0/0 screen 0/0/48/0 | pool 292/132 | tids 102 | ans 2e01ff4b7475 | out 7862ba6fc198";
    "m3/amount immediate | base 82/91/0/0 refresh 0/12/0/0 query 6/0/0/0 screen 0/0/48/0 | pool 206/82 | tids 6 | ans 2e01ff4b7475 | out 7862ba6fc198";
    "m3/amount recompute | base 82/91/0/0 query 108/0/360/0 | pool 212/190 | tids 6 | ans 2e01ff4b7475 | out 7862ba6fc198";
    "m3/amount trigger | refresh 0/12/0/0 screen 0/0/48/0 | pool 0/0 | tids 0 | ans 7e3ffd722bdd | out b0ff447a37a5";
    "m3/note deferred | base 112/129/0/0 hr 38/0/0/0 refresh 30/6/0/0 query 6/0/0/0 screen 0/0/48/0 | pool 292/132 | tids 102 | ans 35f57cadf882 | out a4564854bf76";
    "m3/note immediate | base 82/91/0/0 refresh 0/12/0/0 query 6/0/0/0 screen 0/0/48/0 | pool 206/82 | tids 6 | ans 35f57cadf882 | out a4564854bf76";
    "m3/note recompute | base 82/91/0/0 query 108/0/360/0 | pool 212/190 | tids 6 | ans 35f57cadf882 | out a4564854bf76";
    "m3/note trigger | refresh 0/12/0/0 screen 0/0/48/0 | pool 0/0 | tids 0 | ans d41d8cd98f00 | out 4d861e84b197";
  ]


let check ~golden measured () =
  let measured = measured () in
  if measured <> golden then begin
    let rec moved acc = function
      | g :: gs, m :: ms -> moved (if g = m then acc else ("- " ^ g) :: ("+ " ^ m) :: acc) (gs, ms)
      | g :: gs, [] -> moved (("- " ^ g) :: acc) (gs, [])
      | [], m :: ms -> moved (("+ " ^ m) :: acc) ([], ms)
      | [], [] -> List.rev acc
    in
    Alcotest.failf "the ledger moved:\n%s\nmeasured table:\n%s"
      (String.concat "\n" (moved [] (golden, measured)))
      (String.concat "\n" (List.map (Printf.sprintf "    %S;") measured))
  end

let suites =
  [
    ( "view.ledger",
      [
        Alcotest.test_case "model 1 engines" `Quick (check ~golden:golden_model1 model1_lines);
        Alcotest.test_case "model 2 engines" `Quick (check ~golden:golden_model2 model2_lines);
        Alcotest.test_case "model 3 engines" `Quick (check ~golden:golden_model3 model3_lines);
      ] );
  ]
