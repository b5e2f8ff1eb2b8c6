open Core

let test_tids = Tuple.source ()

let world () =
  let m = Cost_meter.create () in
  (m, Disk.create m)

let key_col0 tuple = Tuple.get tuple 0

let tuple ?(tid = Tuple.next test_tids) key payload =
  Tuple.make ~tid [| Value.Int key; Value.Str payload |]

(* ------------------------------------------------------------------ *)
(* B+-tree                                                             *)
(* ------------------------------------------------------------------ *)

let btree ?(fanout = 4) ?(leaf_capacity = 4) () =
  let _, disk = world () in
  (disk, Btree.create ~disk ~name:"t" ~fanout ~leaf_capacity ~key_col:0 ())

let test_btree_insert_find () =
  let _, t = btree () in
  let tuples = List.map (fun k -> tuple k ("p" ^ string_of_int k)) [ 5; 1; 9; 3; 7; 2; 8 ] in
  List.iter (Btree.insert t) tuples;
  Alcotest.(check int) "count" 7 (Btree.tuple_count t);
  List.iter
    (fun tu ->
      match Btree.find t (key_col0 tu) with
      | [ found ] -> Alcotest.(check bool) "found" true (Tuple.equal tu found)
      | other -> Alcotest.failf "expected 1 match, got %d" (List.length other))
    tuples;
  Alcotest.(check (list int)) "missing key" [] (List.map Tuple.tid (Btree.find t (Value.Int 42)));
  Btree.check_invariants t

let test_btree_duplicates () =
  let _, t = btree () in
  let dups = List.init 10 (fun i -> tuple ~tid:(100 + i) 5 (string_of_int i)) in
  List.iter (Btree.insert t) dups;
  Btree.insert t (tuple 4 "x");
  Btree.insert t (tuple 6 "y");
  let found = Btree.find t (Value.Int 5) in
  Alcotest.(check int) "all duplicates found" 10 (List.length found);
  Alcotest.(check (list int)) "tid order" (List.init 10 (fun i -> 100 + i))
    (List.map Tuple.tid found);
  Btree.check_invariants t

let test_btree_range () =
  let _, t = btree () in
  List.iter (fun k -> Btree.insert t (tuple k "")) (List.init 50 Fun.id);
  let seen = ref [] in
  Btree.range t ~lo:(Value.Int 10) ~hi:(Value.Int 19) (fun tu ->
      seen := Value.as_int (key_col0 tu) :: !seen);
  Alcotest.(check (list int)) "range keys in order" (List.init 10 (fun i -> 10 + i))
    (List.rev !seen);
  let seen = ref 0 in
  Btree.range t ~lo:(Value.Int 60) ~hi:(Value.Int 70) (fun _ -> incr seen);
  Alcotest.(check int) "empty range" 0 !seen;
  Btree.range t ~lo:(Value.Int 10) ~hi:(Value.Int 5) (fun _ -> incr seen);
  Alcotest.(check int) "inverted range" 0 !seen

let test_btree_remove () =
  let _, t = btree () in
  let tuples = List.map (fun k -> tuple ~tid:(1000 + k) k "") (List.init 30 Fun.id) in
  List.iter (Btree.insert t) tuples;
  Alcotest.(check bool) "remove present" true
    (Btree.remove t ~key:(Value.Int 7) ~tid:1007);
  Alcotest.(check bool) "remove twice" false (Btree.remove t ~key:(Value.Int 7) ~tid:1007);
  Alcotest.(check bool) "remove wrong tid" false
    (Btree.remove t ~key:(Value.Int 8) ~tid:9999);
  Alcotest.(check int) "count" 29 (Btree.tuple_count t);
  Alcotest.(check (list int)) "gone" [] (List.map Tuple.tid (Btree.find t (Value.Int 7)));
  Btree.check_invariants t

let test_btree_update_in_place () =
  let _, t = btree () in
  List.iter (fun k -> Btree.insert t (tuple ~tid:(50 + k) k "old")) (List.init 10 Fun.id);
  let ok =
    Btree.update_in_place t ~key:(Value.Int 3) ~tid:53 (fun tu -> Tuple.set tu 1 (Value.Str "new"))
  in
  Alcotest.(check bool) "updated" true ok;
  (match Btree.find t (Value.Int 3) with
  | [ tu ] -> Alcotest.(check bool) "new payload" true (Value.equal (Value.Str "new") (Tuple.get tu 1))
  | _ -> Alcotest.fail "lookup failed");
  (match
     Btree.update_in_place t ~key:(Value.Int 3) ~tid:53 (fun tu ->
         Tuple.set tu 0 (Value.Int 99))
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "key move accepted");
  Btree.check_invariants t

let test_btree_height_growth () =
  let _, t = btree ~fanout:4 ~leaf_capacity:4 () in
  Alcotest.(check int) "empty height" 0 (Btree.height t);
  List.iter (fun k -> Btree.insert t (tuple k "")) (List.init 300 Fun.id);
  Alcotest.(check bool) "height grew" true (Btree.height t >= 3);
  Alcotest.(check bool) "leaf pages" true (Btree.leaf_pages t >= 75);
  Btree.check_invariants t

let test_btree_io_accounting () =
  let m = Cost_meter.create () in
  let disk = Disk.create m in
  let t = Btree.create ~disk ~name:"io" ~fanout:200 ~leaf_capacity:40 ~key_col:0 () in
  List.iter (fun k -> Btree.insert t (tuple k "")) (List.init 2000 Fun.id);
  Buffer_pool.invalidate (Btree.pool t);
  let reads0 = Disk.physical_reads disk in
  (* A range scan over ~400 consecutive keys touches ~10 consecutive leaves
     plus the descent. *)
  let count = ref 0 in
  Btree.range t ~lo:(Value.Int 1000) ~hi:(Value.Int 1399) (fun _ -> incr count);
  Alcotest.(check int) "tuples scanned" 400 !count;
  let reads = Disk.physical_reads disk - reads0 in
  (* Sequential insertion leaves split leaves about half full, so ~400/20
     leaves plus the descent. *)
  if reads < 10 || reads > 25 then Alcotest.failf "unexpected scan reads: %d" reads

let test_btree_bulk_load () =
  let m = Cost_meter.create () in
  let disk = Disk.create m in
  let t = Btree.create ~disk ~name:"bulk" ~fanout:5 ~leaf_capacity:4 ~key_col:0 () in
  let tuples = List.map (fun k -> tuple k "") (List.init 103 Fun.id) in
  let writes0 = Disk.physical_writes disk in
  Btree.bulk_load t tuples;
  Buffer_pool.flush (Btree.pool t);
  Btree.check_invariants t;
  Alcotest.(check int) "count" 103 (Btree.tuple_count t);
  Alcotest.(check int) "packed leaves" 26 (Btree.leaf_pages t);
  Alcotest.(check int) "one write per page" (26 + Btree.index_pages t)
    (Disk.physical_writes disk - writes0);
  (match Btree.find t (Value.Int 50) with
  | [ _ ] -> ()
  | _ -> Alcotest.fail "lookup after bulk load");
  (* loading a non-empty tree is rejected *)
  (match Btree.bulk_load t tuples with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bulk load of non-empty tree accepted");
  (* incremental inserts still work afterwards *)
  Btree.insert t (tuple 200 "x");
  Btree.check_invariants t;
  Alcotest.(check int) "insert after bulk" 104 (Btree.tuple_count t)

let test_btree_bulk_load_empty () =
  let _, disk = world () in
  let t = Btree.create ~disk ~name:"e" ~fanout:4 ~leaf_capacity:4 ~key_col:0 () in
  Btree.bulk_load t [];
  Btree.check_invariants t;
  Alcotest.(check int) "still empty" 0 (Btree.tuple_count t)

let test_btree_reverse_and_random_order () =
  let _, t = btree () in
  List.iter (fun k -> Btree.insert t (tuple k "")) (List.rev (List.init 100 Fun.id));
  Btree.check_invariants t;
  let keys = ref [] in
  Btree.iter_unmetered t (fun tu -> keys := Value.as_int (key_col0 tu) :: !keys);
  Alcotest.(check (list int)) "sorted iteration" (List.init 100 Fun.id) (List.rev !keys)

(* Model-based qcheck: a btree tracks a reference association list under a
   random sequence of inserts and removes. *)
let btree_ops =
  QCheck.list_of_size (QCheck.Gen.int_range 0 200)
    (QCheck.pair QCheck.bool (QCheck.int_range 0 30))

let prop_btree_model =
  QCheck.Test.make ~name:"btree matches reference model" ~count:60 btree_ops (fun ops ->
      let _, t = btree ~fanout:3 ~leaf_capacity:2 () in
      let model = Hashtbl.create 64 in
      let next = ref 0 in
      List.iter
        (fun (is_insert, key) ->
          if is_insert then begin
            incr next;
            let tu = tuple ~tid:!next key "" in
            Btree.insert t tu;
            Hashtbl.add model key !next
          end
          else
            match Hashtbl.find_opt model key with
            | Some tid ->
                if not (Btree.remove t ~key:(Value.Int key) ~tid) then
                  QCheck.Test.fail_report "remove of present entry failed";
                Hashtbl.remove model key
            | None ->
                if Btree.remove t ~key:(Value.Int key) ~tid:(-1) then
                  QCheck.Test.fail_report "remove of absent entry succeeded")
        ops;
      Btree.check_invariants t;
      let expected = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
      let actual = ref [] in
      Btree.iter_unmetered t (fun tu -> actual := Value.as_int (key_col0 tu) :: !actual);
      List.sort Int.compare expected = List.sort Int.compare !actual)

(* Model-based qcheck over deep trees: at fanout 3 and two rows per leaf,
   hundreds of operations grow the tree to depth >= 3 with cascading internal
   splits.  Inserts, removes and in-place updates must track a reference map,
   each reading exactly one page per level (from a cold pool), and random
   ranges must return the model's rows in (key, tid) order. *)
let prop_btree_descents =
  let op =
    QCheck.Gen.(
      pair (frequencyl [ (5, `Insert); (2, `Remove); (2, `Update); (1, `Range) ])
        (pair (int_range 0 60) (int_range 0 1000)))
  in
  QCheck.Test.make ~name:"btree descents match reference model" ~count:25
    (QCheck.make QCheck.Gen.(list_size (int_range 400 600) op))
    (fun ops ->
      let _, t = btree ~fanout:3 ~leaf_capacity:2 () in
      let model = Hashtbl.create 256 in  (* tid -> (key, payload) *)
      let next = ref 0 in
      let pool = Btree.pool t in
      (* Logical page reads of [f ()] from a cold pool. *)
      let reads f =
        Buffer_pool.invalidate pool;
        let before = Buffer_pool.hits pool + Buffer_pool.misses pool in
        let result = f () in
        (result, Buffer_pool.hits pool + Buffer_pool.misses pool - before)
      in
      let one_per_level what h n =
        if n <> h + 1 then QCheck.Test.fail_reportf "%s read %d pages at height %d" what n h
      in
      let entries () =
        List.sort compare
          (Hashtbl.fold (fun tid (key, payload) acc -> (key, tid, payload) :: acc) model [])
      in
      let pick n =
        match entries () with
        | [] -> None
        | all -> Some (List.nth all (n mod List.length all))
      in
      List.iter
        (fun (kind, (key, n)) ->
          let h = Btree.height t in
          match kind with
          | `Insert ->
              incr next;
              let payload = "p" ^ string_of_int !next in
              let (), r = reads (fun () -> Btree.insert t (tuple ~tid:!next key payload)) in
              one_per_level "insert" h r;
              Hashtbl.replace model !next (key, payload)
          | `Remove -> (
              match pick n with
              | Some (key, tid, _) when n mod 4 <> 0 ->
                  let removed, r = reads (fun () -> Btree.remove t ~key:(Value.Int key) ~tid) in
                  if not removed then QCheck.Test.fail_report "remove of present entry failed";
                  one_per_level "remove" h r;
                  Hashtbl.remove model tid
              | _ ->
                  let removed, r =
                    reads (fun () -> Btree.remove t ~key:(Value.Int key) ~tid:(-1))
                  in
                  if removed then QCheck.Test.fail_report "remove of absent entry succeeded";
                  one_per_level "absent remove" h r)
          | `Update -> (
              match pick n with
              | None -> ()
              | Some (key, tid, _) ->
                  let payload = "u" ^ string_of_int n in
                  let updated, r =
                    reads (fun () ->
                        Btree.update_in_place t ~key:(Value.Int key) ~tid (fun tu ->
                            Tuple.set tu 1 (Value.Str payload)))
                  in
                  if not updated then QCheck.Test.fail_report "update of present entry failed";
                  one_per_level "update" h r;
                  Hashtbl.replace model tid (key, payload))
          | `Range ->
              let lo = key and hi = key + (n mod 20) - 5 in
              let actual =
                Btree.range_rows t ~lo:(Value.Int lo) ~hi:(Value.Int hi) (fun v ->
                    ( Value.as_int (Tuple_view.get v 0),
                      Tuple_view.tid v,
                      match Tuple_view.get v 1 with Value.Str p -> p | _ -> "?" ))
              in
              let expected = List.filter (fun (k, _, _) -> lo <= k && k <= hi) (entries ()) in
              if actual <> expected then
                QCheck.Test.fail_reportf "range [%d, %d]: %d rows, model %d" lo hi
                  (List.length actual) (List.length expected))
        ops;
      Btree.check_invariants t;
      if Btree.height t < 3 then QCheck.Test.fail_reportf "height %d < 3" (Btree.height t);
      let actual = ref [] in
      Btree.iter_unmetered t (fun tu ->
          let row = (Value.as_int (key_col0 tu), Tuple.tid tu, Value.to_string (Tuple.get tu 1)) in
          actual := row :: !actual);
      List.rev !actual = entries ())

let prop_bulk_load_equals_inserts =
  QCheck.Test.make ~name:"bulk load = incremental inserts" ~count:60
    (QCheck.list_of_size (QCheck.Gen.int_range 0 150) (QCheck.int_range 0 40))
    (fun keys ->
      let tuples = List.mapi (fun i k -> tuple ~tid:(i + 1) k "") keys in
      let _, bulk = btree ~fanout:4 ~leaf_capacity:3 () in
      Btree.bulk_load bulk tuples;
      let _, incremental = btree ~fanout:4 ~leaf_capacity:3 () in
      List.iter (Btree.insert incremental) tuples;
      Btree.check_invariants bulk;
      let contents t =
        let acc = ref [] in
        Btree.iter_unmetered t (fun tu -> acc := (Value.as_int (key_col0 tu), Tuple.tid tu) :: !acc);
        List.rev !acc
      in
      contents bulk = contents incremental
      && Btree.leaf_pages bulk <= Btree.leaf_pages incremental)

(* ------------------------------------------------------------------ *)
(* Hash file                                                           *)
(* ------------------------------------------------------------------ *)

let hash_file ?(buckets = 8) ?(tuples_per_page = 4) () =
  let m, disk = world () in
  ( m,
    disk,
    Hash_file.create ~disk ~name:"h" ~buckets ~tuples_per_page ~key_col:0 () )

let test_hash_insert_lookup () =
  let _, _, h = hash_file () in
  List.iter (fun k -> Hash_file.insert h (tuple k ("v" ^ string_of_int k))) (List.init 40 Fun.id);
  Alcotest.(check int) "count" 40 (Hash_file.tuple_count h);
  for k = 0 to 39 do
    match Hash_file.lookup h (Value.Int k) with
    | [ tu ] ->
        Alcotest.(check bool) "payload" true
          (Value.equal (Value.Str ("v" ^ string_of_int k)) (Tuple.get tu 1))
    | other -> Alcotest.failf "key %d: %d matches" k (List.length other)
  done;
  Alcotest.(check int) "missing key" 0 (List.length (Hash_file.lookup h (Value.Int 999)))

let test_hash_duplicates_and_remove () =
  let _, _, h = hash_file () in
  Hash_file.insert h (tuple ~tid:1 7 "a");
  Hash_file.insert h (tuple ~tid:2 7 "b");
  Alcotest.(check int) "both stored" 2 (List.length (Hash_file.lookup h (Value.Int 7)));
  Alcotest.(check bool) "remove by tid" true (Hash_file.remove h ~key:(Value.Int 7) ~tid:1);
  Alcotest.(check bool) "remove absent" false (Hash_file.remove h ~key:(Value.Int 7) ~tid:1);
  (match Hash_file.lookup h (Value.Int 7) with
  | [ tu ] -> Alcotest.(check int) "survivor" 2 (Tuple.tid tu)
  | _ -> Alcotest.fail "expected one survivor");
  Alcotest.(check int) "count" 1 (Hash_file.tuple_count h)

let test_hash_overflow_chains () =
  (* One bucket forces chains: all tuples land together. *)
  let _, _, h = hash_file ~buckets:1 ~tuples_per_page:2 () in
  Alcotest.(check int) "primary page exists" 1 (Hash_file.page_count h);
  List.iter (fun k -> Hash_file.insert h (tuple k "")) (List.init 10 Fun.id);
  Alcotest.(check int) "pages = ceil(10/2)" 5 (Hash_file.page_count h);
  let seen = ref 0 in
  Hash_file.scan h (fun _ -> incr seen);
  Alcotest.(check int) "scan all" 10 !seen

let test_hash_scan_cost () =
  let m, disk, h = hash_file ~buckets:4 ~tuples_per_page:4 () in
  List.iter (fun k -> Hash_file.insert h (tuple k "")) (List.init 32 Fun.id);
  Buffer_pool.invalidate (Hash_file.pool h);
  Cost_meter.reset m;
  let reads0 = Disk.physical_reads disk in
  Hash_file.scan h (fun _ -> ());
  Alcotest.(check int) "one read per page" (Hash_file.page_count h)
    (Disk.physical_reads disk - reads0)

let test_hash_clear () =
  let _, disk, h = hash_file () in
  List.iter (fun k -> Hash_file.insert h (tuple k "")) (List.init 20 Fun.id);
  let pages = Hash_file.page_count h in
  Alcotest.(check bool) "has pages" true (pages > 0);
  Hash_file.clear h;
  Alcotest.(check int) "no tuples" 0 (Hash_file.tuple_count h);
  Alcotest.(check int) "back to primary pages" 8 (Hash_file.page_count h);
  Alcotest.(check int) "overflow pages freed" 8 (Disk.allocated_pages disk);
  Hash_file.insert h (tuple 1 "");
  Alcotest.(check int) "usable after clear" 1 (Hash_file.tuple_count h)

let prop_hash_model =
  QCheck.Test.make ~name:"hash file matches reference model" ~count:60 btree_ops
    (fun ops ->
      let _, _, h = hash_file ~buckets:3 ~tuples_per_page:2 () in
      let model = Hashtbl.create 64 in
      let next = ref 0 in
      List.iter
        (fun (is_insert, key) ->
          if is_insert then begin
            incr next;
            Hash_file.insert h (tuple ~tid:!next key "");
            Hashtbl.add model key !next
          end
          else
            match Hashtbl.find_opt model key with
            | Some tid ->
                ignore (Hash_file.remove h ~key:(Value.Int key) ~tid);
                Hashtbl.remove model key
            | None -> ())
        ops;
      Hashtbl.fold
        (fun key tid acc ->
          acc
          && List.exists (fun tu -> Tuple.tid tu = tid) (Hash_file.lookup h (Value.Int key)))
        model true
      && Hash_file.tuple_count h = Hashtbl.length model)

(* ------------------------------------------------------------------ *)
(* T-locks                                                             *)
(* ------------------------------------------------------------------ *)

let test_tlock_intervals () =
  let locks = Tlock.create () in
  Tlock.lock locks ~view:"v1" ~column:1 ~lo:(Value.Float 0.) ~hi:(Value.Float 0.1);
  Tlock.lock locks ~view:"v2" ~column:1 ~lo:(Value.Float 0.05) ~hi:(Value.Float 0.2);
  let inside = Tuple.make ~tid:1 [| Value.Int 0; Value.Float 0.07 |] in
  let outside = Tuple.make ~tid:2 [| Value.Int 0; Value.Float 0.5 |] in
  Alcotest.(check (list string)) "both views broken" [ "v1"; "v2" ]
    (Tlock.broken_by locks inside);
  Alcotest.(check (list string)) "no view broken" [] (Tlock.broken_by locks outside);
  Alcotest.(check bool) "breaks v1" true (Tlock.breaks locks ~view:"v1" inside);
  Alcotest.(check bool) "boundary inclusive" true
    (Tlock.breaks locks ~view:"v1" (Tuple.make ~tid:3 [| Value.Int 0; Value.Float 0.1 |]))

let test_tlock_catch_all_and_unlock () =
  let locks = Tlock.create () in
  Tlock.lock_everything locks ~view:"v";
  let t = Tuple.make ~tid:1 [| Value.Int 0 |] in
  Alcotest.(check bool) "catch-all breaks" true (Tlock.breaks locks ~view:"v" t);
  Tlock.unlock_view locks ~view:"v";
  Alcotest.(check bool) "unlocked" false (Tlock.breaks locks ~view:"v" t);
  Alcotest.(check int) "empty" 0 (Tlock.interval_count locks)

let qcheck = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "index.btree",
      [
        Alcotest.test_case "insert/find" `Quick test_btree_insert_find;
        Alcotest.test_case "duplicates" `Quick test_btree_duplicates;
        Alcotest.test_case "range" `Quick test_btree_range;
        Alcotest.test_case "remove" `Quick test_btree_remove;
        Alcotest.test_case "update in place" `Quick test_btree_update_in_place;
        Alcotest.test_case "height growth" `Quick test_btree_height_growth;
        Alcotest.test_case "I/O accounting" `Quick test_btree_io_accounting;
        Alcotest.test_case "bulk load" `Quick test_btree_bulk_load;
        Alcotest.test_case "bulk load empty" `Quick test_btree_bulk_load_empty;
        Alcotest.test_case "insertion orders" `Quick test_btree_reverse_and_random_order;
      ]
      @ qcheck [ prop_btree_model; prop_btree_descents; prop_bulk_load_equals_inserts ] );
    ( "index.hash",
      [
        Alcotest.test_case "insert/lookup" `Quick test_hash_insert_lookup;
        Alcotest.test_case "duplicates/remove" `Quick test_hash_duplicates_and_remove;
        Alcotest.test_case "overflow chains" `Quick test_hash_overflow_chains;
        Alcotest.test_case "scan cost" `Quick test_hash_scan_cost;
        Alcotest.test_case "clear" `Quick test_hash_clear;
      ]
      @ qcheck [ prop_hash_model ] );
    ( "index.tlock",
      [
        Alcotest.test_case "intervals" `Quick test_tlock_intervals;
        Alcotest.test_case "catch-all/unlock" `Quick test_tlock_catch_all_and_unlock;
      ] );
  ]
