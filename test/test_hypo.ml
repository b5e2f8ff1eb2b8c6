open Core

let test_tids = Tuple.source ()

let schema =
  Schema.make ~name:"R"
    ~columns:
      Schema.[
        { name = "id"; ty = T_int };
        { name = "pval"; ty = T_float };
        { name = "amount"; ty = T_float };
      ]
    ~tuple_bytes:100 ~key:"id"

let tuple ?(tid = Tuple.next test_tids) id pval amount =
  Tuple.make ~tid [| Value.Int id; Value.Float pval; Value.Float amount |]

let make_hr ?(initial = []) () =
  let meter = Cost_meter.create () in
  let disk = Disk.create meter in
  let base =
    Btree.create ~disk ~name:"R" ~fanout:8 ~leaf_capacity:4
      ~key_col:1 ()
  in
  Btree.bulk_load base initial;
  let hr = Hr.create ~tids:test_tids ~disk ~base ~schema ~ad_buckets:4 ~tuples_per_page:4 () in
  Cost_meter.reset meter;
  (meter, disk, hr)

let ids tuples =
  List.sort Int.compare (List.map (fun t -> Value.as_int (Tuple.get t 0)) tuples)

let test_insert_visible () =
  let _, _, hr = make_hr () in
  Hr.apply_insert hr (tuple 1 0.5 10.) ~marked:true;
  Hr.apply_insert hr (tuple 2 0.6 20.) ~marked:false;
  Alcotest.(check (list int)) "both visible" [ 1; 2 ] (ids (Hr.contents_unmetered hr));
  let a_net, d_net = Hr.net_changes_unmetered hr in
  Alcotest.(check int) "a_net" 2 (List.length a_net);
  Alcotest.(check int) "d_net" 0 (List.length d_net);
  Alcotest.(check bool) "markers preserved" true
    (List.exists (fun (t, m) -> Value.as_int (Tuple.get t 0) = 1 && m) a_net);
  Alcotest.(check bool) "unmarked preserved" true
    (List.exists (fun (t, m) -> Value.as_int (Tuple.get t 0) = 2 && not m) a_net)

let test_delete_of_base_tuple () =
  let t1 = tuple 1 0.5 10. and t2 = tuple 2 0.6 20. in
  let _, _, hr = make_hr ~initial:[ t1; t2 ] () in
  Hr.apply_delete hr t1 ~marked:true;
  Alcotest.(check (list int)) "t1 gone" [ 2 ] (ids (Hr.contents_unmetered hr));
  let a_net, d_net = Hr.net_changes_unmetered hr in
  Alcotest.(check int) "no appends" 0 (List.length a_net);
  Alcotest.(check (list int)) "d_net has t1" [ 1 ] (ids (List.map fst d_net))

let test_append_then_delete_cancels () =
  let _, _, hr = make_hr () in
  let t = tuple 5 0.1 1. in
  Hr.apply_insert hr t ~marked:true;
  Hr.apply_delete hr t ~marked:true;
  let a_net, d_net = Hr.net_changes_unmetered hr in
  Alcotest.(check int) "a_net empty" 0 (List.length a_net);
  Alcotest.(check int) "d_net empty" 0 (List.length d_net);
  Alcotest.(check (list int)) "invisible" [] (ids (Hr.contents_unmetered hr))

let test_update_chain_nets () =
  (* v0 -> v1 -> v2 within one epoch: net = delete v0, append v2. *)
  let v0 = tuple ~tid:100 7 0.3 1. in
  let _, _, hr = make_hr ~initial:[ v0 ] () in
  let v1 = tuple ~tid:101 7 0.3 2. in
  let v2 = tuple ~tid:102 7 0.3 3. in
  Hr.apply_update hr ~old_tuple:v0 ~new_tuple:v1 ~marked_old:true ~marked_new:true;
  Hr.end_transaction hr;
  Hr.apply_update hr ~old_tuple:v1 ~new_tuple:v2 ~marked_old:true ~marked_new:true;
  Hr.end_transaction hr;
  let a_net, d_net = Hr.net_changes_unmetered hr in
  Alcotest.(check (list int)) "a_net = v2" [ 102 ] (List.map (fun (t, _) -> Tuple.tid t) a_net);
  Alcotest.(check (list int)) "d_net = v0" [ 100 ] (List.map (fun (t, _) -> Tuple.tid t) d_net);
  match Hr.contents_unmetered hr with
  | [ t ] -> Alcotest.(check (float 0.)) "visible amount" 3. (Value.as_float (Tuple.get t 2))
  | other -> Alcotest.failf "expected 1 tuple, got %d" (List.length other)

let test_update_io_discipline () =
  (* §2.2.2: one base read (charged Base) plus one AD page read (the single
     extra I/O, charged Hr); the page write lands at end_transaction. *)
  let meter, disk, hr = make_hr ~initial:[ tuple ~tid:100 1 0.5 10. ] () in
  let writes0 = Disk.physical_writes disk in
  Hr.apply_update hr ~old_tuple:(tuple ~tid:100 1 0.5 10.)
    ~new_tuple:(tuple ~tid:101 1 0.5 11.) ~marked_old:true ~marked_new:true;
  Alcotest.(check int) "one base read" 1 (Cost_meter.reads meter Cost_meter.Base);
  Alcotest.(check int) "one extra AD read" 1 (Cost_meter.reads meter Cost_meter.Hr);
  Alcotest.(check int) "no write before txn end" 0 (Disk.physical_writes disk - writes0);
  Hr.end_transaction hr;
  Alcotest.(check int) "one write at txn end" 1 (Disk.physical_writes disk - writes0);
  Alcotest.(check int) "write charged to base" 1 (Cost_meter.writes meter Cost_meter.Base)

let test_ad_page_recharged_across_transactions () =
  let meter, _, hr = make_hr ~initial:[ tuple ~tid:100 1 0.5 10.; tuple ~tid:200 2 0.6 20. ] () in
  Hr.apply_update hr ~old_tuple:(tuple ~tid:100 1 0.5 10.)
    ~new_tuple:(tuple ~tid:101 1 0.5 11.) ~marked_old:true ~marked_new:true;
  Hr.end_transaction hr;
  let hr_reads = Cost_meter.reads meter Cost_meter.Hr in
  Hr.apply_update hr ~old_tuple:(tuple ~tid:200 2 0.6 20.)
    ~new_tuple:(tuple ~tid:201 2 0.6 21.) ~marked_old:true ~marked_new:true;
  Hr.end_transaction hr;
  Alcotest.(check bool) "second transaction recharged" true
    (Cost_meter.reads meter Cost_meter.Hr > hr_reads)

let test_reset_folds_into_base () =
  let v0 = tuple ~tid:100 1 0.5 10. in
  let _, _, hr = make_hr ~initial:[ v0 ] () in
  Hr.apply_update hr ~old_tuple:v0 ~new_tuple:(tuple ~tid:101 1 0.5 99.) ~marked_old:true
    ~marked_new:true;
  Hr.apply_insert hr (tuple ~tid:102 2 0.7 5.) ~marked:false;
  Hr.end_transaction hr;
  Hr.reset hr (Hr.net_changes hr);
  Alcotest.(check int) "AD empty" 0 (Hr.ad_entry_count hr);
  let base_tuples = ref [] in
  Btree.iter_unmetered (Hr.base hr) (fun t -> base_tuples := t :: !base_tuples);
  Alcotest.(check (list int)) "base updated" [ 1; 2 ] (ids !base_tuples);
  let amounts = List.sort Float.compare (List.map (fun t -> Value.as_float (Tuple.get t 2)) !base_tuples) in
  Alcotest.(check (list (float 0.))) "new values in base" [ 5.; 99. ] amounts;
  (* contents are unchanged by the fold-in *)
  Alcotest.(check (list int)) "contents stable" [ 1; 2 ] (ids (Hr.contents_unmetered hr))

(* Property: HR contents, (R ∪ A) − D, equal replaying the log on a list. *)
let prop_hr_equals_log_replay =
  let op_gen =
    QCheck.Gen.(
      list_size (int_range 0 40)
        (pair (int_range 0 2) (pair (int_range 0 9) (int_range 0 100))))
  in
  QCheck.Test.make ~name:"HR contents = log replay" ~count:50 (QCheck.make op_gen)
    (fun ops ->
      let _, _, hr = make_hr () in
      let reference = Hashtbl.create 16 in
      (* key -> current tuple *)
      List.iter
        (fun (kind, (id, amount)) ->
          let current = Hashtbl.find_opt reference id in
          match (kind, current) with
          | 0, None ->
              let t = tuple id (float_of_int id /. 10.) (float_of_int amount) in
              Hr.apply_insert hr t ~marked:true;
              Hashtbl.replace reference id t
          | 1, Some old_tuple ->
              let t = tuple id (float_of_int id /. 10.) (float_of_int amount) in
              Hr.apply_update hr ~old_tuple ~new_tuple:t ~marked_old:true ~marked_new:true;
              Hashtbl.replace reference id t
          | 2, Some old_tuple ->
              Hr.apply_delete hr old_tuple ~marked:true;
              Hashtbl.remove reference id
          | _ -> ())
        ops;
      Hr.end_transaction hr;
      let expected = Hashtbl.fold (fun _ t acc -> Tuple.tid t :: acc) reference [] in
      let actual = List.map Tuple.tid (Hr.contents_unmetered hr) in
      List.sort Int.compare expected = List.sort Int.compare actual)

(* Property: reset preserves contents and empties AD. *)
let prop_reset_preserves_contents =
  QCheck.Test.make ~name:"reset preserves contents" ~count:40
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 20) (pair (int_range 0 9) (int_range 0 50))))
    (fun updates ->
      let initial = List.init 10 (fun i -> tuple ~tid:(1000 + i) i (float_of_int i /. 10.) 0.) in
      let _, _, hr = make_hr ~initial () in
      let live = Array.of_list initial in
      List.iter
        (fun (idx, amount) ->
          let old_tuple = live.(idx) in
          let new_tuple =
            Tuple.with_tid (Tuple.set old_tuple 2 (Value.Float (float_of_int amount)))
              (Tuple.next test_tids)
          in
          Hr.apply_update hr ~old_tuple ~new_tuple ~marked_old:true ~marked_new:true;
          live.(idx) <- new_tuple)
        updates;
      Hr.end_transaction hr;
      let before = List.sort Int.compare (List.map Tuple.tid (Hr.contents_unmetered hr)) in
      Hr.reset hr (Hr.net_changes hr);
      let after = List.sort Int.compare (List.map Tuple.tid (Hr.contents_unmetered hr)) in
      before = after && Hr.ad_entry_count hr = 0)

(* One refresh reads each AD page once through the pool: the fold-in takes
   the sets the drain read instead of scanning AD again. *)
let test_refresh_reads_ad_once () =
  let initial = List.init 6 (fun i -> tuple ~tid:(200 + i) i (float_of_int i /. 10.) 0.) in
  let _, disk, hr = make_hr ~initial () in
  List.iteri
    (fun i old_tuple ->
      Hr.apply_update hr ~old_tuple
        ~new_tuple:(tuple ~tid:(300 + i) i (float_of_int i /. 10.) 1.)
        ~marked_old:true ~marked_new:true)
    initial;
  Hr.end_transaction hr;
  let pages = Hr.ad_page_count hr in
  let base_pool = Btree.pool (Hr.base hr) in
  (* page touches of every pool on the disk but the base's: AD's *)
  let ad_touches () =
    Disk.pool_hits disk + Disk.pool_misses disk - Buffer_pool.hits base_pool
    - Buffer_pool.misses base_pool
  in
  let before = ad_touches () in
  let net = Hr.drain hr ~delete:ignore ~insert:ignore in
  Hr.reset hr net;
  Alcotest.(check bool) "AD spans several pages" true (pages > 1);
  Alcotest.(check int) "hits + misses = AD pages" pages (ad_touches () - before);
  Alcotest.(check int) "folded" 6 (Btree.tuple_count (Hr.base hr))

let test_reset_refuses_stale_net () =
  let t0 = tuple ~tid:400 1 0.5 10. in
  let _, _, hr = make_hr ~initial:[ t0 ] () in
  let net = Hr.net_changes hr in
  Hr.apply_delete hr t0 ~marked:true;
  match Hr.reset hr net with
  | exception Invalid_argument _ -> Alcotest.(check int) "AD kept" 1 (Hr.ad_entry_count hr)
  | () -> Alcotest.fail "a stale net was folded"

(* The string-keyed cancellation [Hr] used before identities were matched by
   original tid and cells, kept as the reference: an entry's identity is the
   rendering of its cells plus its original tid. *)
module Reference = struct
  let identity_key tuple = Tuple.value_key tuple ^ "#" ^ string_of_int (Tuple.tid tuple)

  type pairs = {
    halves : (bool * string, int) Hashtbl.t;
    joined : (int, int) Hashtbl.t;
    mutable reached : (int * bool) list;
  }

  let rec pair_root p pair =
    match Hashtbl.find_opt p.joined pair with Some up -> pair_root p up | None -> pair

  let note_cancelled p key ~a_marked ~d_marked =
    match (Hashtbl.find_opt p.halves (true, key), Hashtbl.find_opt p.halves (false, key)) with
    | Some pa, Some pd ->
        let ra = pair_root p pa and rd = pair_root p pd in
        if ra <> rd then Hashtbl.replace p.joined ra rd
    | Some pa, None -> p.reached <- (pa, d_marked) :: p.reached
    | None, Some pd -> p.reached <- (pd, a_marked) :: p.reached
    | None, None -> ()

  let settle p =
    let marks = Hashtbl.create 16 in
    List.iter (fun (pair, marked) -> Hashtbl.replace marks (pair_root p pair) marked) p.reached;
    fun appended ((tuple, _) as entry) ->
      match Hashtbl.find_opt p.halves (appended, identity_key tuple) with
      | None -> entry
      | Some pair ->
          (tuple, Option.value ~default:false (Hashtbl.find_opt marks (pair_root p pair)))

  let by_tid (t1, _) (t2, _) = Int.compare (Tuple.tid t1) (Tuple.tid t2)

  let cancel_pairs ?pairs (a, d) =
    let deleted = Hashtbl.create (List.length d) in
    List.iter (fun (tuple, marked) -> Hashtbl.add deleted (identity_key tuple) (tuple, marked)) d;
    let a_net =
      List.filter
        (fun (tuple, a_marked) ->
          let key = identity_key tuple in
          match Hashtbl.find_opt deleted key with
          | None -> true
          | Some (_, d_marked) ->
              Hashtbl.remove deleted key;
              (match pairs with
              | Some p -> note_cancelled p key ~a_marked ~d_marked
              | None -> ());
              false)
        a
    in
    match pairs with
    | None ->
        ( List.sort by_tid a_net,
          List.sort by_tid (Hashtbl.fold (fun _ entry acc -> entry :: acc) deleted []) )
    | Some p ->
        let settle = settle p in
        ( List.sort by_tid (List.map (settle true) a_net),
          List.sort by_tid
            (Hashtbl.fold (fun _ entry acc -> settle false entry :: acc) deleted []) )

  (* [entries] in scan order: (appended?, tuple with its original tid, and
     either a screening result or a readily-ignorable pair id). *)
  let net_changes entries =
    let a = ref [] and d = ref [] in
    let pairs = lazy { halves = Hashtbl.create 16; joined = Hashtbl.create 16; reached = [] } in
    List.iter
      (fun (appended, tuple, marker) ->
        let marked =
          match marker with
          | `Mark m -> m
          | `Pair pair ->
              Hashtbl.replace (Lazy.force pairs).halves (appended, identity_key tuple) pair;
              false
        in
        if appended then a := (tuple, marked) :: !a else d := (tuple, marked) :: !d)
      entries;
    cancel_pairs
      ?pairs:(if Lazy.is_val pairs then Some (Lazy.force pairs) else None)
      (List.rev !a, List.rev !d)
end

(* The scan order of a one-bucket AD file: its pages in chain order, each
   newest entry first. *)
let scan_order ~tuples_per_page written =
  let rec pages acc page n = function
    | [] -> List.rev (if page = [] then acc else page :: acc)
    | entry :: rest ->
        if n = tuples_per_page then pages (page :: acc) [ entry ] 1 rest
        else pages acc (entry :: page) (n + 1) rest
  in
  List.concat (pages [] [] 0 written)

(* Property: cancellation by original tid and cells gives exactly the sets,
   order and marks of the string-keyed reference.  Histories run over a
   small pool of tids and cell values, so identities recur: appends cancel
   deletes, a tid gets several entries, and readily-ignorable pairs chain
   through one another and through screened changes. *)
let prop_net_changes_match_reference =
  let cell =
    QCheck.Gen.(
      oneof
        [
          map (fun i -> Value.Int i) (int_range 0 2);
          map (fun i -> Value.Float (float_of_int i)) (int_range 0 2);
          map (fun s -> Value.Str s) (oneofl [ ""; "a"; "b"; "ab" ]);
        ])
  in
  let cells = QCheck.Gen.(pair cell cell) in
  let op =
    QCheck.Gen.(
      quad (int_range 0 3) (pair (int_range 0 5) (int_range 0 5)) cells (pair bool bool))
  in
  let gen =
    QCheck.Gen.(
      triple (int_range 1 5) (list_repeat 3 cells) (list_size (int_range 0 40) op))
  in
  QCheck.Test.make ~name:"net changes = string-keyed reference" ~count:300 (QCheck.make gen)
    (fun (tuples_per_page, initial_cells, ops) ->
      let schema =
        Schema.make ~name:"P"
          ~columns:Schema.[ { name = "k"; ty = T_int }; { name = "x"; ty = T_float } ]
          ~tuple_bytes:100 ~key:"k"
      in
      let make tid (k, x) = Tuple.make ~tid [| k; x |] in
      let disk = Disk.create (Cost_meter.create ()) in
      let base = Btree.create ~disk ~name:"P" ~fanout:4 ~leaf_capacity:4 ~key_col:0 () in
      let initial = List.mapi make initial_cells in
      Btree.bulk_load base initial;
      let tids = Tuple.source ~first:1000 () in
      let hr = Hr.create ~disk ~tids ~base ~schema ~ad_buckets:1 ~tuples_per_page () in
      let visible = Hashtbl.create 8 in
      List.iter (fun tuple -> Hashtbl.replace visible (Tuple.tid tuple) tuple) initial;
      let written = ref [] in
      let write entry = written := entry :: !written in
      List.iter
        (fun (kind, (tid, tid'), cells, (m1, m2)) ->
          match (kind, Hashtbl.find_opt visible tid) with
          | 0, None ->
              let tuple = make tid cells in
              Hr.apply_insert hr tuple ~marked:m1;
              write (true, tuple, `Mark m1);
              Hashtbl.replace visible tid tuple
          | 1, Some tuple ->
              Hr.apply_delete hr tuple ~marked:m1;
              write (false, tuple, `Mark m1);
              Hashtbl.remove visible tid
          | (2 | 3), Some old_tuple when tid' = tid || not (Hashtbl.mem visible tid') ->
              let new_tuple = make tid' cells in
              let old_marker, new_marker =
                if kind = 2 then begin
                  Hr.apply_update hr ~old_tuple ~new_tuple ~marked_old:m1 ~marked_new:m2;
                  (`Mark m1, `Mark m2)
                end
                else begin
                  let pair = Tuple.peek tids in
                  Hr.apply_ignorable hr ~old_tuple ~new_tuple;
                  (`Pair pair, `Pair pair)
                end
              in
              write (false, old_tuple, old_marker);
              write (true, new_tuple, new_marker);
              Hashtbl.remove visible tid;
              Hashtbl.replace visible tid' new_tuple
          | _ -> ())
        ops;
      Hr.end_transaction hr;
      let expected = Reference.net_changes (scan_order ~tuples_per_page (List.rev !written)) in
      let same = List.equal (fun (t1, m1) (t2, m2) -> Tuple.equal t1 t2 && m1 = m2) in
      let a_net, d_net = Hr.net_changes_unmetered hr in
      same a_net (fst expected) && same d_net (snd expected))

let qcheck = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "hypo.hr",
      [
        Alcotest.test_case "inserts visible" `Quick test_insert_visible;
        Alcotest.test_case "delete of base tuple" `Quick test_delete_of_base_tuple;
        Alcotest.test_case "append-then-delete cancels" `Quick test_append_then_delete_cancels;
        Alcotest.test_case "update chain nets" `Quick test_update_chain_nets;
        Alcotest.test_case "3-I/O update discipline" `Quick test_update_io_discipline;
        Alcotest.test_case "AD recharged across txns" `Quick
          test_ad_page_recharged_across_transactions;
        Alcotest.test_case "reset folds into base" `Quick test_reset_folds_into_base;
        Alcotest.test_case "refresh reads AD once" `Quick test_refresh_reads_ad_once;
        Alcotest.test_case "reset refuses a stale net" `Quick test_reset_refuses_stale_net;
      ]
      @ qcheck
          [
            prop_hr_equals_log_replay;
            prop_reset_preserves_contents;
            prop_net_changes_match_reference;
          ] );
  ]
