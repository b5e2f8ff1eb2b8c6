open Core
open Core.Predicate

let test_tids = Tuple.source ()

let base_schema =
  Schema.make ~name:"R"
    ~columns:
      Schema.[
        { name = "id"; ty = T_int };
        { name = "pval"; ty = T_float };
        { name = "amount"; ty = T_float };
        { name = "note"; ty = T_string };
      ]
    ~tuple_bytes:100 ~key:"id"

let base ?(tid = Tuple.next test_tids) id pval amount =
  Tuple.make ~tid [| Value.Int id; Value.Float pval; Value.Float amount; Value.Str "n" |]

let sp_view ?(f = 0.5) () =
  View_def.make_sp ~name:"V" ~base:base_schema
    ~pred:(Cmp (Lt, Column 1, Const (Value.Float f)))
    ~project:[ "pval"; "amount" ] ~cluster:"pval"

(* ------------------------------------------------------------------ *)
(* View definitions                                                    *)
(* ------------------------------------------------------------------ *)

let test_sp_definition () =
  let v = sp_view () in
  Alcotest.(check int) "cluster position" 0 v.sp_cluster_out;
  Alcotest.(check int) "out arity" 2 (Schema.arity v.sp_out_schema);
  Alcotest.(check int) "half the bytes" 50 (Schema.tuple_bytes v.sp_out_schema);
  let out = View_def.sp_output ~tids:test_tids v (base 1 0.25 7.) in
  Alcotest.(check bool) "projected fields" true
    (Value.equal (Value.Float 0.25) (Tuple.get out 0)
    && Value.equal (Value.Float 7.) (Tuple.get out 1))

let test_sp_definition_errors () =
  (match
     View_def.make_sp ~name:"V" ~base:base_schema ~pred:True ~project:[ "pval" ]
       ~cluster:"amount"
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cluster outside projection accepted");
  match
    View_def.make_sp ~name:"V" ~base:base_schema ~pred:True ~project:[ "missing" ]
      ~cluster:"missing"
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing column accepted"

let join_schemas () =
  let left =
    Schema.make ~name:"R1"
      ~columns:
        Schema.[
          { name = "id"; ty = T_int };
          { name = "pval"; ty = T_float };
          { name = "jkey"; ty = T_int };
          { name = "c"; ty = T_string };
        ]
      ~tuple_bytes:100 ~key:"id"
  in
  let right =
    Schema.make ~name:"R2"
      ~columns:
        Schema.[
          { name = "jkey"; ty = T_int };
          { name = "weight"; ty = T_float };
          { name = "tag"; ty = T_string };
        ]
      ~tuple_bytes:100 ~key:"jkey"
  in
  (left, right)

let join_view ?(f = 0.5) () =
  let left, right = join_schemas () in
  View_def.make_join ~name:"J" ~left ~right
    ~left_pred:(Cmp (Lt, Column 1, Const (Value.Float f)))
    ~on:("jkey", "jkey") ~project_left:[ "pval"; "c" ] ~project_right:[ "weight" ]
    ~cluster:"pval"

let left_tuple ?(tid = Tuple.next test_tids) id pval jkey =
  Tuple.make ~tid [| Value.Int id; Value.Float pval; Value.Int jkey; Value.Str "c" |]

let right_tuple ?(tid = Tuple.next test_tids) jkey weight =
  Tuple.make ~tid [| Value.Int jkey; Value.Float weight; Value.Str "t" |]

let test_join_definition () =
  let j = join_view () in
  Alcotest.(check int) "join columns" 2 j.j_left_col;
  Alcotest.(check int) "right key" 0 j.j_right_col;
  Alcotest.(check int) "out arity" 3 (Schema.arity j.j_out_schema);
  Alcotest.(check int) "S bytes output" 100 (Schema.tuple_bytes j.j_out_schema);
  let out = View_def.join_output ~tids:test_tids j (left_tuple 1 0.3 7) (right_tuple 7 2.5) in
  Alcotest.(check bool) "fields" true
    (Value.equal (Value.Float 0.3) (Tuple.get out 0)
    && Value.equal (Value.Str "c") (Tuple.get out 1)
    && Value.equal (Value.Float 2.5) (Tuple.get out 2))

let test_agg_definition () =
  let agg = View_def.make_agg ~name:"A" ~over:(sp_view ()) ~kind:(`Sum "amount") in
  (match agg.a_kind with
  | View_def.Sum 2 -> ()
  | _ -> Alcotest.fail "column not resolved");
  match View_def.make_agg ~name:"A" ~over:(sp_view ()) ~kind:(`Sum "nope") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing aggregate column accepted"

(* ------------------------------------------------------------------ *)
(* Materialized store                                                  *)
(* ------------------------------------------------------------------ *)

let make_mat () =
  let meter = Cost_meter.create () in
  let disk = Disk.create meter in
  (meter, disk, Materialized.create ~disk ~name:"V" ~fanout:8 ~leaf_capacity:4 ~cluster_col:0 ())

let vtuple ?(tid = Tuple.next test_tids) pval amount =
  Tuple.make ~tid [| Value.Float pval; Value.Float amount |]

let test_mat_insert_delete_counts () =
  let _, _, mat = make_mat () in
  let t = vtuple 0.3 5. in
  Materialized.apply mat Insert t;
  Materialized.apply mat Insert (Tuple.with_tid t 9999);
  Alcotest.(check int) "one distinct" 1 (Materialized.distinct_count mat);
  Alcotest.(check int) "two total" 2 (Materialized.total_count mat);
  Materialized.apply mat Delete t;
  Alcotest.(check int) "still stored" 1 (Materialized.distinct_count mat);
  Materialized.apply mat Delete t;
  Alcotest.(check int) "physically removed" 0 (Materialized.distinct_count mat);
  match Materialized.apply mat Delete t with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "delete of absent tuple accepted"

let test_mat_range () =
  let _, _, mat = make_mat () in
  List.iter
    (fun i -> Materialized.apply mat Insert (vtuple (float_of_int i /. 10.) (float_of_int i)))
    (List.init 10 Fun.id);
  Materialized.flush mat;
  let seen = ref [] in
  Materialized.range mat ~lo:(Value.Float 0.25) ~hi:(Value.Float 0.55) (fun t count ->
      Alcotest.(check int) "count 1" 1 count;
      seen := Value.as_float (Tuple.get t 0) :: !seen);
  Alcotest.(check (list (float 1e-9))) "range contents" [ 0.3; 0.4; 0.5 ] (List.rev !seen)

let test_mat_rebuild_and_bag () =
  let _, _, mat = make_mat () in
  Materialized.apply mat Insert (vtuple 0.9 9.);
  let bag = Bag.of_list [ vtuple 0.1 1.; vtuple 0.1 1.; vtuple 0.2 2. ] in
  Materialized.rebuild mat bag;
  Alcotest.(check int) "distinct after rebuild" 2 (Materialized.distinct_count mat);
  Alcotest.(check int) "total after rebuild" 3 (Materialized.total_count mat);
  Alcotest.(check bool) "bag round-trip" true (Bag.equal bag (Materialized.to_bag_unmetered mat))

let test_mat_write_coalescing () =
  let meter, disk, mat = make_mat () in
  ignore meter;
  List.iter
    (fun i -> Materialized.apply mat Insert (vtuple (0.001 *. float_of_int i) 1.))
    (List.init 4 Fun.id);
  let writes0 = Disk.physical_writes disk in
  Materialized.flush mat;
  (* 4 tuples fit one leaf: a refresh batch writes it once. *)
  Alcotest.(check int) "one page write" 1 (Disk.physical_writes disk - writes0)

(* ------------------------------------------------------------------ *)
(* The answer kernel                                                   *)
(* ------------------------------------------------------------------ *)

(* The per-query loop the kernel replaced, kept as its reference:
   [Materialized.range] in the Query category, one C1 per row, consed and
   reversed, then the view's pool dropped. *)
let reference_answer mat ~meter ~lo ~hi =
  Cost_meter.with_category meter Cost_meter.Query (fun () ->
      let out = ref [] in
      Materialized.range mat ~lo ~hi (fun tuple count ->
          Cost_meter.charge_predicate_test meter;
          out := (tuple, count) :: !out);
      Materialized.flush mat;
      List.rev !out)

(* Rows as plain data: tid, field values, count. *)
let rows_data rows =
  List.map (fun (tuple, count) -> (Tuple.tid tuple, Array.to_list (Tuple.values tuple), count)) rows

(* Run [f], returning its result and the charges it made: Query reads,
   writes and C1 tests, physical reads, and pool hits and misses. *)
let with_charges meter disk f =
  let probe () =
    Cost_meter.
      [
        reads meter Query;
        writes meter Query;
        predicate_tests meter Query;
        Disk.physical_reads disk;
        Disk.pool_hits disk;
        Disk.pool_misses disk;
      ]
  in
  let before = probe () in
  let result = f () in
  (result, List.map2 ( - ) (probe ()) before)

type kernel_op = Ins of int * int | Del of int | Bump of int

(* Keys are quarters in [0, 2.75] (12 distinct keys, many rows each);
   bounds range over every key, the midpoints between keys, and values
   below and above the stored keys, so they fall on leaf boundaries, inside
   runs of duplicates and outside the key range, with lo > hi about half
   the time. *)
let kernel_key k = float_of_int k /. 4.
let kernel_bound i = Value.Float ((float_of_int i /. 8.) -. 0.5)

let prop_answer_matches_reference =
  let gen =
    QCheck.Gen.(
      let op =
        frequency
          [
            (4, map2 (fun k a -> Ins (k, a)) (int_bound 11) (int_bound 9));
            (2, map (fun i -> Del i) nat);
            (1, map (fun i -> Bump i) nat);
          ]
      in
      quad (int_range 2 6) (int_range 3 5) (list_size (int_range 0 150) op)
        (list_size (int_range 1 10) (pair (int_bound 31) (int_bound 31))))
  in
  QCheck.Test.make ~name:"answer = reference loop (rows, tids, counts, charges)" ~count:300
    (QCheck.make gen)
    (fun (leaf_capacity, fanout, ops, bounds) ->
      let meter = Cost_meter.create () in
      let disk = Disk.create meter in
      let mat = Materialized.create ~disk ~name:"V" ~fanout ~leaf_capacity ~cluster_col:0 () in
      (* The model: (key, payload) -> (stored tid, count). *)
      let model = Hashtbl.create 64 in
      let present () = List.sort compare (Hashtbl.fold (fun v _ acc -> v :: acc) model []) in
      let nth_present i =
        match present () with [] -> None | vs -> Some (List.nth vs (i mod List.length vs))
      in
      let insert (k, a) =
        let tuple = vtuple (kernel_key k) (float_of_int a) in
        Materialized.apply mat Insert tuple;
        match Hashtbl.find_opt model (k, a) with
        | Some (tid, count) -> Hashtbl.replace model (k, a) (tid, count + 1)
        | None -> Hashtbl.replace model (k, a) (Tuple.tid tuple, 1)
      in
      List.iter
        (function
          | Ins (k, a) -> insert (k, a)
          | Bump i -> Option.iter insert (nth_present i)
          | Del i ->
              Option.iter
                (fun (k, a) ->
                  Materialized.apply mat Delete (vtuple (kernel_key k) (float_of_int a));
                  match Hashtbl.find model (k, a) with
                  | _, 1 -> Hashtbl.remove model (k, a)
                  | tid, count -> Hashtbl.replace model (k, a) (tid, count - 1))
                (nth_present i))
        ops;
      Materialized.flush mat;
      Btree.check_invariants (Materialized.tree mat);
      List.for_all
        (fun (i, j) ->
          let lo = kernel_bound i and hi = kernel_bound j in
          let expected =
            Hashtbl.fold
              (fun (k, a) (tid, count) acc ->
                let key = Value.Float (kernel_key k) in
                if Value.compare lo key <= 0 && Value.compare key hi <= 0 then
                  ((kernel_key k, tid), (tid, [ key; Value.Float (float_of_int a) ], count)) :: acc
                else acc)
              model []
            |> List.sort (fun (p, _) (q, _) -> compare p q)
            |> List.map snd
          in
          let kernel, kernel_charges =
            with_charges meter disk (fun () -> Materialized.answer mat ~meter ~lo ~hi)
          in
          let reference, reference_charges =
            with_charges meter disk (fun () -> reference_answer mat ~meter ~lo ~hi)
          in
          rows_data kernel = rows_data reference
          && rows_data kernel = expected
          && kernel_charges = reference_charges
          && List.nth kernel_charges 2 = List.length kernel)
        bounds)

(* Words per returned row of a two-float view: the tuple (4), its cell
   array (3), two boxed floats (4 each), the (tuple, count) pair (3) and
   the list cell (3) make 21; a per-row closure or a reversal copy would
   break the pin. *)
let test_answer_alloc_pin () =
  let meter = Cost_meter.create () in
  let disk = Disk.create meter in
  let mat = Materialized.create ~disk ~name:"V" ~fanout:64 ~leaf_capacity:40 ~cluster_col:0 () in
  let n = 2000 in
  Materialized.rebuild mat
    (Bag.of_list
       (List.init n (fun i -> vtuple (float_of_int i /. float_of_int n) (float_of_int i))));
  let lo = Value.Float 0.2 and hi = Value.Float 0.9 in
  let w0 = Alloc_meter.words () in
  let rows = Materialized.answer mat ~meter ~lo ~hi in
  let words = Alloc_meter.words () -. w0 in
  let returned = List.length rows in
  Alcotest.(check bool) (Printf.sprintf "%d rows returned" returned) true (returned >= 1000);
  let per_row = words /. float_of_int returned in
  Alcotest.(check bool) (Printf.sprintf "%.2f words per row <= 22" per_row) true (per_row <= 22.)

(* Words per projected two-float row (the boxing step of every SP refresh
   and of a fleet's base scan): the tuple (4), its cell array (3) and two
   boxed floats (4 each) make 15; a per-row closure would break the pin. *)
let test_project_alloc_pin () =
  let page = Flat.create () in
  let n = 1000 in
  for i = 0 to n - 1 do
    ignore (Flat.append page (base i (float_of_int i /. float_of_int n) (float_of_int i)))
  done;
  let positions = [| 1; 2 |] in
  let w0 = Alloc_meter.words () in
  for i = 0 to n - 1 do
    ignore (Sys.opaque_identity (Flat.project page i positions ~tid:i))
  done;
  let words = Alloc_meter.words () -. w0 in
  (* the meter itself accounts for up to 16 words of the bracket *)
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d rows <= 15 per row + 16" words n)
    true
    (words <= (15. *. float_of_int n) +. 16.)

(* ------------------------------------------------------------------ *)
(* Differential update algorithm                                       *)
(* ------------------------------------------------------------------ *)

let test_delta_sp () =
  let v = sp_view ~f:0.5 () in
  let a = [ base 1 0.3 10.; base 2 0.7 20. ] in
  let d = [ base 3 0.4 30. ] in
  let delta = Delta.sp ~tids:test_tids v ~a ~d in
  Alcotest.(check int) "inserts pass predicate" 1 (List.length delta.ins);
  Alcotest.(check int) "deletes pass predicate" 1 (List.length delta.del);
  let bag = Bag.of_list [ Tuple.make ~tid:0 [| Value.Float 0.4; Value.Float 30. |] ] in
  Delta.apply bag delta;
  Alcotest.(check int) "delete applied" 0
    (Bag.count bag (Tuple.make ~tid:0 [| Value.Float 0.4; Value.Float 30. |]));
  Alcotest.(check int) "insert applied" 1
    (Bag.count bag (Tuple.make ~tid:0 [| Value.Float 0.3; Value.Float 10. |]))

let test_delta_join_corrected_basic () =
  let j = join_view ~f:1.0 () in
  let r2 = [ right_tuple 1 10.; right_tuple 2 20. ] in
  let r1 = [ left_tuple ~tid:11 1 0.1 1; left_tuple ~tid:12 2 0.2 2 ] in
  (* update tuple 11: delete old, insert new joining to jkey 2 *)
  let old_t = List.nth r1 0 in
  let new_t = left_tuple ~tid:13 1 0.1 2 in
  let r1_prime = [ List.nth r1 1 ] in
  (* r1 minus d1... note r1' excludes the deleted old_t *)
  let delta =
    Delta.join_corrected ~tids:test_tids j ~r1_prime ~r2_prime:r2 ~a1:[ new_t ] ~d1:[ old_t ] ~a2:[] ~d2:[]
  in
  let v0 = Delta.recompute_join ~tids:test_tids j r1 r2 in
  Delta.apply v0 delta;
  let expected = Delta.recompute_join ~tids:test_tids j (new_t :: r1_prime) r2 in
  Alcotest.(check bool) "incremental = recompute" true (Bag.equal v0 expected);
  Alcotest.(check bool) "no negative counts" false (Bag.has_negative_count v0)

(* Appendix A: delete joining tuples from both relations in one
   transaction.  Blakeley's expression deletes the joined tuple three times;
   the corrected expression deletes it once. *)
let appendix_a_scenario () =
  let j = join_view ~f:1.0 () in
  let t1 = left_tuple ~tid:21 1 0.1 7 in
  let t2 = right_tuple ~tid:22 7 5. in
  let other1 = left_tuple ~tid:23 2 0.2 8 in
  let other2 = right_tuple ~tid:24 8 6. in
  let r1 = [ t1; other1 ] and r2 = [ t2; other2 ] in
  (j, r1, r2, t1, t2)

let test_appendix_a_blakeley_corrupts () =
  let j, r1, r2, t1, t2 = appendix_a_scenario () in
  let v = Delta.recompute_join ~tids:test_tids j r1 r2 in
  Alcotest.(check int) "v0 size" 2 (Bag.total_size v);
  let delta =
    Delta.join_blakeley ~tids:test_tids j ~r1 ~r2 ~a1:[] ~d1:[ t1 ] ~a2:[] ~d2:[ t2 ]
  in
  (* D1xD2, D1xR2, R1xD2 each produce the joined tuple: 3 deletions. *)
  Alcotest.(check int) "three deletions" 3 (List.length delta.del);
  Delta.apply v delta;
  Alcotest.(check bool) "duplicate counts corrupted" true (Bag.has_negative_count v)

let test_appendix_a_corrected () =
  let j, r1, r2, t1, t2 = appendix_a_scenario () in
  let v = Delta.recompute_join ~tids:test_tids j r1 r2 in
  let r1_prime = List.filter (fun t -> Tuple.tid t <> Tuple.tid t1) r1 in
  let r2_prime = List.filter (fun t -> Tuple.tid t <> Tuple.tid t2) r2 in
  let delta = Delta.join_corrected ~tids:test_tids j ~r1_prime ~r2_prime ~a1:[] ~d1:[ t1 ] ~a2:[] ~d2:[ t2 ] in
  Alcotest.(check int) "one deletion" 1 (List.length delta.del);
  Delta.apply v delta;
  Alcotest.(check bool) "no corruption" false (Bag.has_negative_count v);
  let expected = Delta.recompute_join ~tids:test_tids j r1_prime r2_prime in
  Alcotest.(check bool) "matches recomputation" true (Bag.equal v expected)

(* Property: the corrected join delta always agrees with recomputation under
   random mixed transactions on both relations. *)
let prop_join_corrected_equals_recompute =
  let gen =
    QCheck.Gen.(
      (* left tuples: (id, pval in {0..9}/10, jkey in 0..4) *)
      let left_gen = list_size (int_range 0 12) (pair (int_range 0 9) (int_range 0 4)) in
      let right_keys = list_size (int_range 0 5) (int_range 0 4) in
      triple left_gen right_keys (pair (list_size (int_range 0 6) bool) (list_size (int_range 0 5) bool)))
  in
  QCheck.Test.make ~name:"corrected join delta = recompute" ~count:80 (QCheck.make gen)
    (fun (left_spec, right_keys, (d1_mask, d2_mask)) ->
      let j = join_view ~f:0.5 () in
      let r2 =
        List.mapi (fun i k -> right_tuple ~tid:(1000 + i) k (float_of_int k)) right_keys
      in
      let r1 =
        List.mapi
          (fun i (id, jk) -> left_tuple ~tid:(2000 + i) id (float_of_int id /. 10.) jk)
          left_spec
      in
      let masked mask tuples =
        List.filteri (fun i _ -> i < List.length mask && List.nth mask i) tuples
      in
      let d1 = masked d1_mask r1 and d2 = masked d2_mask r2 in
      let not_in dead t = not (List.exists (fun x -> Tuple.tid x = Tuple.tid t) dead) in
      let r1_prime = List.filter (not_in d1) r1 in
      let r2_prime = List.filter (not_in d2) r2 in
      (* a couple of fresh inserts on both sides *)
      let a1 = [ left_tuple ~tid:3001 100 0.05 2 ] in
      let a2 = [ right_tuple ~tid:3002 9 1.5 ] in
      let v = Delta.recompute_join ~tids:test_tids j r1 r2 in
      let delta = Delta.join_corrected ~tids:test_tids j ~r1_prime ~r2_prime ~a1 ~d1 ~a2 ~d2 in
      Delta.apply v delta;
      let expected = Delta.recompute_join ~tids:test_tids j (r1_prime @ a1) (r2_prime @ a2) in
      Bag.equal v expected && not (Bag.has_negative_count v))

(* ------------------------------------------------------------------ *)
(* Screening                                                           *)
(* ------------------------------------------------------------------ *)

let test_screen_stages () =
  let meter = Cost_meter.create () in
  let screen =
    Screen.create ~meter ~view_name:"V" ~pred:(Cmp (Lt, Column 1, Const (Value.Float 0.5))) ()
  in
  Alcotest.(check bool) "inside passes" true (Screen.screen screen (base 1 0.3 0.));
  Alcotest.(check bool) "outside fails free" false (Screen.screen screen (base 2 0.7 0.));
  (* only the t-lock breaker paid C1 *)
  Alcotest.(check int) "stage-2 count" 1 (Screen.stage2_tests screen);
  Alcotest.(check (float 1e-9)) "C1 charged to Screen" 1.
    (Cost_meter.cost meter Cost_meter.Screen)

let test_screen_unindexable_predicate () =
  let meter = Cost_meter.create () in
  (* column-to-column comparison: no interval cover, whole index locked *)
  let screen = Screen.create ~meter ~view_name:"V" ~pred:(Cmp (Eq, Column 1, Column 2)) () in
  Alcotest.(check bool) "equal columns pass" true
    (Screen.screen screen (Tuple.make ~tid:1 [| Value.Int 0; Value.Float 1.; Value.Float 1. |]));
  Alcotest.(check bool) "unequal columns fail at stage 2" false
    (Screen.screen screen (Tuple.make ~tid:2 [| Value.Int 0; Value.Float 1.; Value.Float 2. |]));
  Alcotest.(check int) "both paid C1" 2 (Screen.stage2_tests screen)

let test_screen_no_false_negatives () =
  let meter = Cost_meter.create () in
  let pred =
    Or (Between (1, Value.Float 0.1, Value.Float 0.2), Cmp (Ge, Column 1, Const (Value.Float 0.8)))
  in
  let screen = Screen.create ~meter ~view_name:"V" ~pred () in
  List.iter
    (fun pval ->
      let t = base 1 pval 0. in
      if Predicate.eval pred t && not (Screen.screen screen t) then
        Alcotest.failf "false negative at %f" pval)
    [ 0.05; 0.1; 0.15; 0.2; 0.25; 0.5; 0.79; 0.8; 0.95 ]

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

let agg_tuple amount = Tuple.make ~tid:(Tuple.next test_tids) [| Value.Float amount |]

let test_agg_sum_count_avg () =
  let sum = Aggregate.create (View_def.Sum 0) in
  let count = Aggregate.create View_def.Count in
  let avg = Aggregate.create (View_def.Avg 0) in
  List.iter
    (fun x ->
      let t = agg_tuple x in
      Aggregate.insert sum t;
      Aggregate.insert count t;
      Aggregate.insert avg t)
    [ 1.; 2.; 3.; 4. ];
  Alcotest.(check (float 1e-9)) "sum" 10. (Aggregate.value sum);
  Alcotest.(check (float 1e-9)) "count" 4. (Aggregate.value count);
  Alcotest.(check (float 1e-9)) "avg" 2.5 (Aggregate.value avg);
  Aggregate.delete sum (agg_tuple 4.);
  Aggregate.delete avg (agg_tuple 4.);
  Alcotest.(check (float 1e-9)) "sum after delete" 6. (Aggregate.value sum);
  Alcotest.(check (float 1e-9)) "avg after delete" 2. (Aggregate.value avg)

let test_agg_variance () =
  let var = Aggregate.create (View_def.Variance 0) in
  List.iter (fun x -> Aggregate.insert var (agg_tuple x)) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check (float 1e-9)) "population variance" 4. (Aggregate.value var)

let test_agg_min_max_with_deletes () =
  let mn = Aggregate.create (View_def.Min 0) in
  let mx = Aggregate.create (View_def.Max 0) in
  List.iter
    (fun x ->
      Aggregate.insert mn (agg_tuple x);
      Aggregate.insert mx (agg_tuple x))
    [ 3.; 1.; 4.; 1.; 5. ];
  Alcotest.(check (float 1e-9)) "min" 1. (Aggregate.value mn);
  Alcotest.(check (float 1e-9)) "max" 5. (Aggregate.value mx);
  (* delete one copy of the min: another remains *)
  Aggregate.delete mn (agg_tuple 1.);
  Alcotest.(check (float 1e-9)) "min after one delete" 1. (Aggregate.value mn);
  Aggregate.delete mn (agg_tuple 1.);
  Alcotest.(check (float 1e-9)) "min after both deleted" 3. (Aggregate.value mn);
  Aggregate.delete mx (agg_tuple 5.);
  Alcotest.(check (float 1e-9)) "max after delete" 4. (Aggregate.value mx);
  match Aggregate.delete mn (agg_tuple 42.) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "deleting unseen min value accepted"

let test_agg_empty () =
  Alcotest.(check (float 0.)) "empty count" 0. (Aggregate.value (Aggregate.create View_def.Count));
  Alcotest.(check bool) "empty avg nan" true
    (Float.is_nan (Aggregate.value (Aggregate.create (View_def.Avg 0))));
  Alcotest.(check bool) "empty min nan" true
    (Float.is_nan (Aggregate.value (Aggregate.create (View_def.Min 0))))

let prop_agg_incremental_equals_recompute =
  QCheck.Test.make ~name:"incremental aggregate = recompute" ~count:100
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 1 30) (QCheck.int_range 0 20))
       (QCheck.list QCheck.bool))
    (fun (values, delete_mask) ->
      let tuples = List.map (fun v -> agg_tuple (float_of_int v)) values in
      let deleted =
        List.filteri (fun i _ -> i < List.length delete_mask && List.nth delete_mask i) tuples
      in
      let surviving =
        List.filteri
          (fun i _ -> not (i < List.length delete_mask && List.nth delete_mask i))
          tuples
      in
      List.for_all
        (fun kind ->
          let incremental = Aggregate.of_tuples kind tuples in
          List.iter (Aggregate.delete incremental) deleted;
          let recomputed = Aggregate.of_tuples kind surviving in
          let a = Aggregate.value incremental and b = Aggregate.value recomputed in
          (Float.is_nan a && Float.is_nan b) || Float.abs (a -. b) < 1e-6)
        [ View_def.Count; View_def.Sum 0; View_def.Avg 0; View_def.Variance 0;
          View_def.Min 0; View_def.Max 0 ])

let qcheck = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "view.def",
      [
        Alcotest.test_case "sp definition" `Quick test_sp_definition;
        Alcotest.test_case "sp errors" `Quick test_sp_definition_errors;
        Alcotest.test_case "join definition" `Quick test_join_definition;
        Alcotest.test_case "agg definition" `Quick test_agg_definition;
      ] );
    ( "view.materialized",
      [
        Alcotest.test_case "duplicate counts" `Quick test_mat_insert_delete_counts;
        Alcotest.test_case "range" `Quick test_mat_range;
        Alcotest.test_case "rebuild/bag" `Quick test_mat_rebuild_and_bag;
        Alcotest.test_case "write coalescing" `Quick test_mat_write_coalescing;
        Alcotest.test_case "answer allocation pin" `Quick test_answer_alloc_pin;
        Alcotest.test_case "project allocation pin" `Quick test_project_alloc_pin;
      ]
      @ qcheck [ prop_answer_matches_reference ] );
    ( "view.delta",
      [
        Alcotest.test_case "sp delta" `Quick test_delta_sp;
        Alcotest.test_case "corrected join delta" `Quick test_delta_join_corrected_basic;
        Alcotest.test_case "Appendix A: Blakeley corrupts" `Quick
          test_appendix_a_blakeley_corrupts;
        Alcotest.test_case "Appendix A: corrected is right" `Quick test_appendix_a_corrected;
      ]
      @ qcheck [ prop_join_corrected_equals_recompute ] );
    ( "view.screen",
      [
        Alcotest.test_case "two stages" `Quick test_screen_stages;
        Alcotest.test_case "unindexable predicate" `Quick test_screen_unindexable_predicate;
        Alcotest.test_case "no false negatives" `Quick test_screen_no_false_negatives;
      ] );
    ( "view.aggregate",
      [
        Alcotest.test_case "sum/count/avg" `Quick test_agg_sum_count_avg;
        Alcotest.test_case "variance" `Quick test_agg_variance;
        Alcotest.test_case "min/max with deletes" `Quick test_agg_min_max_with_deletes;
        Alcotest.test_case "empty states" `Quick test_agg_empty;
      ]
      @ qcheck [ prop_agg_incremental_equals_recompute ] );
  ]
