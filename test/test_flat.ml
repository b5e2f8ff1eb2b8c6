(* The flat-row representation (DESIGN §12), pinned down by properties:
   encoding through a page and reading back through a cursor is the
   identity; the compiled predicate path agrees with the reference
   three-valued evaluator on boxed and flat rows alike; and heap inserts
   examine exactly one page regardless of file size. *)

open Core
open Vmat_relalg

let v_int i = Value.Int i
let v_float f = Value.Float f
let v_str s = Value.Str s

let schema =
  Schema.make ~name:"F"
    ~columns:
      Schema.[
        { name = "a"; ty = T_int };
        { name = "b"; ty = T_float };
        { name = "c"; ty = T_float };
        { name = "d"; ty = T_string };
      ]
    ~tuple_bytes:100 ~key:"a"

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let value_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Value.Null);
        (1, map (fun b -> Value.Bool b) bool);
        (3, map v_int (oneof [ small_signed_int; int ]));
        ( 3,
          map v_float
            (oneof
               [
                 float;
                 oneofl [ 0.; -0.; 1e300; -1e300; Float.nan; Float.infinity ];
               ]) );
        (2, map v_str (string_size (int_bound 12)));
        (1, oneofl [ v_str ""; v_str "\x00raw\xffbytes" ]);
      ])

let row_gen =
  QCheck.Gen.(
    map2
      (fun tid cells -> Tuple.make ~tid (Array.of_list cells))
      (int_bound 1_000_000)
      (list_size (int_bound 6) value_gen))

let rows_gen = QCheck.Gen.(list_size (int_range 1 40) row_gen)

let operand_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Predicate.Column i) (int_bound 5));
        (3, map (fun v -> Predicate.Const v) value_gen);
      ])

let cmp_gen =
  QCheck.Gen.oneofl
    Predicate.[ Eq; Ne; Lt; Le; Gt; Ge ]

let pred_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          frequency
            [
              (1, return Predicate.True);
              (1, return Predicate.False);
              ( 4,
                map3
                  (fun op a b -> Predicate.Cmp (op, a, b))
                  cmp_gen operand_gen operand_gen );
              ( 2,
                map3
                  (fun col lo hi -> Predicate.Between (col, lo, hi))
                  (int_bound 5) value_gen value_gen );
            ]
        in
        if n <= 0 then leaf
        else
          frequency
            [
              (2, leaf);
              (1, map2 (fun a b -> Predicate.And (a, b)) (self (n / 2)) (self (n / 2)));
              (1, map2 (fun a b -> Predicate.Or (a, b)) (self (n / 2)) (self (n / 2)));
              (1, map (fun a -> Predicate.Not a) (self (n / 2)));
            ]))

(* ------------------------------------------------------------------ *)
(* Round trip: Flat encode |> cursor materialize = id                  *)
(* ------------------------------------------------------------------ *)

let check_row what expected page slot =
  let view = Tuple_view.on page slot in
  let got = Tuple_view.materialize view in
  if not (Tuple.equal expected got) then
    QCheck.Test.fail_reportf "%s: slot %d decoded %a, expected %a" what slot
      Tuple.pp got Tuple.pp expected;
  if Tuple.tid expected <> Tuple_view.tid view then
    QCheck.Test.fail_reportf "%s: slot %d tid %d, expected %d" what slot
      (Tuple_view.tid view) (Tuple.tid expected)

let prop_roundtrip =
  QCheck.Test.make ~name:"Flat append/insert/replace then materialize = id"
    ~count:200 (QCheck.make rows_gen) (fun rows ->
      let page = Flat.create () in
      List.iter (fun t -> ignore (Flat.append page t)) rows;
      let expected = ref (Array.of_list rows) in
      Array.iteri (fun i t -> check_row "append" t page i) !expected;
      (* Mutations keep every surviving row decodable: insert in the middle,
         replace a slot, remove one — the shifts and compactions underneath
         must preserve the others bit-for-bit. *)
      let n = Array.length !expected in
      let mid = n / 2 in
      let extra =
        Tuple.make ~tid:999_999
          [| Value.Null; v_str ""; v_float Float.nan; v_str "edge" |]
      in
      Flat.insert_at page mid extra;
      expected :=
        Array.concat
          [ Array.sub !expected 0 mid; [| extra |];
            Array.sub !expected mid (n - mid) ];
      Flat.replace_at page 0 (Tuple.with_tid extra 7);
      !expected.(0) <- Tuple.with_tid extra 7;
      Flat.remove_at page mid;
      expected :=
        Array.concat
          [ Array.sub !expected 0 mid;
            Array.sub !expected (mid + 1) (Array.length !expected - mid - 1) ];
      if Flat.length page <> Array.length !expected then
        QCheck.Test.fail_reportf "length %d after edits, expected %d"
          (Flat.length page) (Array.length !expected);
      Array.iteri (fun i t -> check_row "after edits" t page i) !expected;
      true)

(* ------------------------------------------------------------------ *)
(* Compiled predicates = eval3, boxed and flat                         *)
(* ------------------------------------------------------------------ *)

let binding_of tuple i =
  if i >= 0 && i < Tuple.arity tuple then Some (Tuple.get tuple i) else None

let show_opt = function
  | None -> "unknown"
  | Some b -> string_of_bool b

let prop_compile_matches_eval3 =
  QCheck.Test.make ~name:"Predicate.compile/compile_boxed = eval3" ~count:500
    (QCheck.make QCheck.Gen.(pair pred_gen row_gen))
    (fun (pred, row) ->
      let reference = Predicate.eval3 pred (binding_of row) in
      let boxed = Predicate.compile_boxed pred row in
      if boxed <> reference then
        QCheck.Test.fail_reportf "compile_boxed %s, eval3 %s on %a"
          (show_opt boxed) (show_opt reference) Tuple.pp row;
      let page = Flat.create () in
      let slot = Flat.append page row in
      let flat = Predicate.compile pred (Tuple_view.on page slot) in
      if flat <> reference then
        QCheck.Test.fail_reportf "compiled-flat %s, eval3 %s on %a"
          (show_opt flat) (show_opt reference) Tuple.pp row;
      true)

(* ------------------------------------------------------------------ *)
(* Key strings: flat = boxed, and the boxed memo is hit                *)
(* ------------------------------------------------------------------ *)

let prop_value_key_agrees =
  QCheck.Test.make ~name:"cursor/page value_key = Tuple.value_key (memoized)"
    ~count:200 (QCheck.make row_gen) (fun row ->
      let page = Flat.create () in
      let slot = Flat.append page row in
      let boxed_key = Tuple.value_key row in
      if not (String.equal boxed_key (Flat.row_value_key page slot)) then
        QCheck.Test.fail_report "Flat.row_value_key diverged";
      if not (String.equal boxed_key (Tuple_view.value_key (Tuple_view.on page slot)))
      then QCheck.Test.fail_report "Tuple_view.value_key diverged";
      (* The memo: asking again returns the same physical string. *)
      if not (Tuple.value_key row == boxed_key) then
        QCheck.Test.fail_report "Tuple.value_key re-computed despite memo";
      true)

(* ------------------------------------------------------------------ *)
(* Heap inserts examine one page each, at any file size                *)
(* ------------------------------------------------------------------ *)

let test_insert_probes_constant () =
  let m = Cost_meter.create () in
  let disk = Disk.create m in
  (* page_bytes 400 / tuple_bytes 100 = 4 tuples per page: 400 inserts spread
     over 100 pages.  The open-page handle makes each insert examine exactly
     one page; the historical scan examined O(pages) and would count ~20k. *)
  let h = Heap_file.create ~disk ~page_bytes:400 schema in
  for i = 1 to 400 do
    ignore
      (Heap_file.insert h
         (Tuple.make ~tid:i [| v_int i; v_float 0.5; v_float 1.; v_str "x" |]))
  done;
  Alcotest.(check int) "pages" 100 (Heap_file.page_count h);
  Alcotest.(check int) "one probe per insert" 400 (Heap_file.insert_probes h)

let suites =
  [
    ( "flat",
      [
        QCheck_alcotest.to_alcotest prop_roundtrip;
        QCheck_alcotest.to_alcotest prop_compile_matches_eval3;
        QCheck_alcotest.to_alcotest prop_value_key_agrees;
        Alcotest.test_case "heap insert probes O(1)" `Quick
          test_insert_probes_constant;
      ] );
  ]
