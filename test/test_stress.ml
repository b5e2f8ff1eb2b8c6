open Core

let test_tids = Tuple.source ()

(* Stress runs: long mixed workloads where updates move tuples across the
   view predicate boundary (tuples enter and leave the view, not just change
   inside it), combined inserts/deletes/modifications, and a randomized
   session against the database facade. *)

let geometry = { Strategy.page_bytes = 400; index_entry_bytes = 20 }

let sp_strategies dataset =
  let make ctor =
    (* one isolated ctx per engine, pinned to a common first_tid so the
       engines' generated view tids agree *)
    let ctx = Ctx.create ~geometry ~first_tid:10_000_000 () in
    ctor
      {
        Strategy_sp.ctx;
        view = dataset.Dataset.m1_view;
        initial = dataset.Dataset.m1_tuples;
        ad_buckets = 4;
      }
  in
  [
    ("deferred", make Strategy_sp.deferred);
    ("deferred-split", make Strategy_sp.deferred_split_ad);
    ("deferred-async", make Strategy_sp.deferred_async);
    ("deferred-every-3", make (Strategy_sp.deferred_periodic ~every:3));
    ("immediate", make Strategy_sp.immediate);
    ("qmod-clustered", make Strategy_sp.qmod_clustered);
    ("qmod-unclustered", make Strategy_sp.qmod_unclustered);
    ("qmod-sequential", make Strategy_sp.qmod_sequential);
    ("recompute", make Strategy_sp.recompute);
  ]

(* Mixed workload: modifications that change pval (crossing the predicate
   boundary), pure inserts, pure deletes, all interleaved with queries. *)
let boundary_crossing_ops ~rng ~dataset ~rounds ~f =
  let live = ref (Array.of_list dataset.Dataset.m1_tuples) in
  let fresh_id = ref 1_000_000 in
  let pick () = Rng.int rng (Array.length !live) in
  let ops = ref [] in
  for _ = 1 to rounds do
    (* a transaction's changes are kept in logical order, and a tuple touched
       once in a transaction is not touched again (the paper requires net
       per-transaction change sets) *)
    let touched = Hashtbl.create 8 in
    let changes = ref [] in
    (* two pval-moving modifications of distinct tuples *)
    for _ = 1 to 2 do
      let rec fresh_idx () =
        let idx = pick () in
        if Hashtbl.mem touched idx then fresh_idx () else idx
      in
      let idx = fresh_idx () in
      Hashtbl.replace touched idx ();
      let old_tuple = !live.(idx) in
      let new_tuple =
        Tuple.with_tid (Tuple.set old_tuple 1 (Value.Float (Rng.float rng))) (Tuple.next test_tids)
      in
      !live.(idx) <- new_tuple;
      changes := !changes @ [ Strategy.modify ~old_tuple ~new_tuple ]
    done;
    (* one delete of an untouched survivor *)
    let rec victim_idx () =
      let idx = pick () in
      if Hashtbl.mem touched idx then victim_idx () else idx
    in
    let idx = victim_idx () in
    let victim = !live.(idx) in
    changes := !changes @ [ Strategy.delete victim ];
    live := Array.of_list (List.filter (fun t -> Tuple.tid t <> Tuple.tid victim)
                             (Array.to_list !live));
    (* one insert of a brand-new tuple *)
    incr fresh_id;
    let inserted =
      Tuple.make ~tid:(Tuple.next test_tids)
        [| Value.Int !fresh_id; Value.Float (Rng.float rng); Value.Float 1.; Value.Str "new" |]
    in
    changes := !changes @ [ Strategy.insert inserted ];
    live := Array.append !live [| inserted |];
    ops := Stream.Query (Stream.range_query_of ~lo_max:(0.5 *. f) ~width:(0.5 *. f) rng)
           :: Stream.Txn !changes :: !ops
  done;
  List.rev !ops

let collect (s : Strategy.t) ops =
  List.filter_map
    (fun op ->
      match op with
      | Stream.Txn changes ->
          s.Strategy.handle_transaction changes;
          None
      | Stream.Query q ->
          let bag = Bag.create () in
          List.iter
            (fun (t, c) ->
              for _ = 1 to c do
                ignore (Bag.add bag t)
              done)
            (s.Strategy.answer_query q);
          Some bag)
    ops

let test_boundary_crossing_equivalence () =
  let rng = Rng.create 1001 in
  let f = 0.5 in
  let dataset = Dataset.make_model1 ~rng ~tids:test_tids ~n:250 ~f ~s_bytes:100 in
  let ops = boundary_crossing_ops ~rng ~dataset ~rounds:25 ~f in
  let results = List.map (fun (name, s) -> (name, collect s ops)) (sp_strategies dataset) in
  match results with
  | (ref_name, reference) :: rest ->
      List.iter
        (fun (name, answers) ->
          List.iteri
            (fun i (a, b) ->
              if not (Bag.equal a b) then
                Alcotest.failf "query %d: %s vs %s" i ref_name name)
            (List.combine reference answers))
        rest
  | [] -> ()

let prop_boundary_crossing_seeds =
  QCheck.Test.make ~name:"boundary-crossing equivalence (random seeds)" ~count:6
    (QCheck.int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let f = 0.1 +. (0.8 *. Rng.float rng) in
      let dataset = Dataset.make_model1 ~rng ~tids:test_tids ~n:120 ~f ~s_bytes:100 in
      let ops = boundary_crossing_ops ~rng ~dataset ~rounds:10 ~f in
      let strategies =
        List.filter
          (fun (name, _) -> List.mem name [ "deferred"; "immediate"; "qmod-sequential" ])
          (sp_strategies dataset)
      in
      match List.map (fun (_, s) -> collect s ops) strategies with
      | reference :: rest ->
          List.for_all (fun answers -> List.for_all2 Bag.equal reference answers) rest
      | [] -> true)

(* Randomized facade session: the same random statement stream against two
   databases whose views use different strategies must agree. *)
let test_db_randomized_session () =
  let statements strategy =
    let rng = Rng.create 2002 in
    let setup =
      [
        "create table r (id int key, pval float, amount float) size 100";
        Printf.sprintf
          "define view v (pval, amount) from r where pval < 0.5 cluster on pval using %s"
          strategy;
        "define aggregate s as sum(amount) from r where pval < 0.5 using immediate";
      ]
    in
    let next_id = ref 0 in
    let body =
      List.concat
        (List.init 60 (fun _ ->
             match Rng.int rng 4 with
             | 0 ->
                 incr next_id;
                 [ Printf.sprintf "insert into r values (%d, %f, %d)" !next_id
                     (Rng.float rng) (Rng.int rng 100) ]
             | 1 when !next_id > 0 ->
                 [ Printf.sprintf "update r set amount = %d where id = %d" (Rng.int rng 100)
                     (1 + Rng.int rng !next_id) ]
             | 2 when !next_id > 0 ->
                 [ Printf.sprintf "delete from r where id = %d" (1 + Rng.int rng !next_id) ]
             | _ -> [ "select * from v" ]))
    in
    setup @ body @ [ "select * from v"; "select value from s" ]
  in
  let outcomes strategy =
    let db = Db.create () in
    List.map
      (fun statement ->
        match Db.exec db statement with
        | Ok (Db.Rows rows) ->
            Printf.sprintf "rows:%s"
              (String.concat ";"
                 (List.sort String.compare
                    (List.map (fun (t, c) -> Printf.sprintf "%s*%d" (Tuple.value_key t) c) rows)))
        | Ok (Db.Scalar v) -> Printf.sprintf "scalar:%.6f" v
        | Ok (Db.Done _) -> "ok"
        | Error m -> Alcotest.failf "%s: %s" statement m)
      (statements strategy)
  in
  let strip_setup outcome = List.tl (List.tl outcome) in
  let reference = strip_setup (outcomes "immediate") in
  List.iter
    (fun strategy ->
      Alcotest.(check (list string))
        (strategy ^ " session agrees")
        reference
        (strip_setup (outcomes strategy)))
    [ "deferred"; "recompute"; "sequential" ]

let test_btree_large_random () =
  (* a larger randomized soak of the B+-tree with realistic fanout *)
  let rng = Rng.create 3003 in
  let meter = Cost_meter.create () in
  let disk = Disk.create meter in
  let tree =
    Btree.create ~disk ~name:"soak" ~fanout:16 ~leaf_capacity:8
      ~key_col:0
      ()
  in
  let model = Hashtbl.create 4096 in
  for round = 1 to 5_000 do
    let key = Rng.int rng 500 in
    if Rng.int rng 3 > 0 then begin
      let t = Tuple.make ~tid:round [| Value.Int key |] in
      Btree.insert tree t;
      Hashtbl.add model key round
    end
    else
      match Hashtbl.find_opt model key with
      | Some tid ->
          Alcotest.(check bool) "remove finds entry" true
            (Btree.remove tree ~key:(Value.Int key) ~tid);
          Hashtbl.remove model key
      | None -> ()
  done;
  Btree.check_invariants tree;
  Alcotest.(check int) "sizes agree" (Hashtbl.length model) (Btree.tuple_count tree);
  (* spot-check range scans against the model *)
  for _ = 1 to 20 do
    let lo = Rng.int rng 400 in
    let hi = lo + Rng.int rng 100 in
    let expected =
      Hashtbl.fold (fun k _ acc -> if k >= lo && k <= hi then acc + 1 else acc) model 0
    in
    let got = ref 0 in
    Btree.range tree ~lo:(Value.Int lo) ~hi:(Value.Int hi) (fun _ -> incr got);
    Alcotest.(check int) (Printf.sprintf "range [%d,%d]" lo hi) expected !got
  done

let test_hr_soak () =
  (* thousands of updates through the hypothetical relation with periodic
     resets; contents must always equal the reference map *)
  let rng = Rng.create 4004 in
  let schema =
    Schema.make ~name:"soak"
      ~columns:Schema.[ { name = "id"; ty = T_int }; { name = "pval"; ty = T_float } ]
      ~tuple_bytes:100 ~key:"id"
  in
  let meter = Cost_meter.create () in
  let disk = Disk.create meter in
  let base =
    Btree.create ~disk ~name:"soak" ~fanout:16 ~leaf_capacity:8
      ~key_col:1
      ()
  in
  let initial =
    List.init 100 (fun i ->
        Tuple.make ~tid:(Tuple.next test_tids) [| Value.Int i; Value.Float (Rng.float rng) |])
  in
  Btree.bulk_load base initial;
  let hr = Hr.create ~tids:test_tids ~disk ~base ~schema ~ad_buckets:4 ~tuples_per_page:4 () in
  let reference = Hashtbl.create 256 in
  List.iter (fun t -> Hashtbl.replace reference (Value.as_int (Tuple.get t 0)) t) initial;
  let next_id = ref 100 in
  for round = 1 to 1_000 do
    (match Rng.int rng 3 with
    | 0 ->
        incr next_id;
        let t =
          Tuple.make ~tid:(Tuple.next test_tids)
            [| Value.Int !next_id; Value.Float (Rng.float rng) |]
        in
        Hr.apply_insert hr t ~marked:true;
        Hashtbl.replace reference !next_id t
    | 1 ->
        let keys = Hashtbl.fold (fun k _ acc -> k :: acc) reference [] in
        let key = List.nth keys (Rng.int rng (List.length keys)) in
        let old_tuple = Hashtbl.find reference key in
        let new_tuple =
          Tuple.with_tid (Tuple.set old_tuple 1 (Value.Float (Rng.float rng)))
            (Tuple.next test_tids)
        in
        Hr.apply_update hr ~old_tuple ~new_tuple ~marked_old:true ~marked_new:true;
        Hashtbl.replace reference key new_tuple
    | _ ->
        let keys = Hashtbl.fold (fun k _ acc -> k :: acc) reference [] in
        if List.length keys > 10 then begin
          let key = List.nth keys (Rng.int rng (List.length keys)) in
          Hr.apply_delete hr (Hashtbl.find reference key) ~marked:true;
          Hashtbl.remove reference key
        end);
    Hr.end_transaction hr;
    if round mod 100 = 0 then begin
      Hr.reset hr (Hr.net_changes hr);
      let expected =
        List.sort Int.compare (Hashtbl.fold (fun _ t acc -> Tuple.tid t :: acc) reference [])
      in
      let actual = List.sort Int.compare (List.map Tuple.tid (Hr.contents_unmetered hr)) in
      if expected <> actual then Alcotest.failf "round %d: contents diverged" round
    end
  done

let qcheck = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "stress",
      [
        Alcotest.test_case "boundary-crossing equivalence (9 strategies)" `Slow
          test_boundary_crossing_equivalence;
        Alcotest.test_case "randomized facade session" `Slow test_db_randomized_session;
        Alcotest.test_case "btree soak" `Slow test_btree_large_random;
        Alcotest.test_case "hypothetical relation soak" `Slow test_hr_soak;
      ]
      @ qcheck [ prop_boundary_crossing_seeds ] );
  ]
