open Core

let check_float ?(eps = 1e-9) what expected actual =
  Alcotest.(check (float eps)) what expected actual

(* ------------------------------------------------------------------ *)
(* Combinatorics                                                       *)
(* ------------------------------------------------------------------ *)

let test_lgamma () =
  (* Γ(n) = (n-1)! *)
  check_float ~eps:1e-9 "lgamma 1" 0. (Combin.lgamma 1.);
  check_float ~eps:1e-9 "lgamma 2" 0. (Combin.lgamma 2.);
  check_float ~eps:1e-8 "lgamma 5" (log 24.) (Combin.lgamma 5.);
  check_float ~eps:1e-6 "lgamma 11" (log 3628800.) (Combin.lgamma 11.);
  (* half-integer: Γ(1/2) = sqrt(pi) *)
  check_float ~eps:1e-8 "lgamma 0.5" (log (sqrt Float.pi)) (Combin.lgamma 0.5)

let test_log_factorial () =
  check_float "0!" 0. (Combin.log_factorial 0);
  check_float ~eps:1e-8 "10!" (log 3628800.) (Combin.log_factorial 10);
  check_float ~eps:1e-6 "2000! consistency"
    (Combin.lgamma 2001.)
    (Combin.log_factorial 2000)

let test_choose () =
  check_float "5C2" 10. (Combin.choose 5 2);
  check_float "5C0" 1. (Combin.choose 5 0);
  check_float "5C5" 1. (Combin.choose 5 5);
  check_float "5C6" 0. (Combin.choose 5 6);
  check_float "neg" 0. (Combin.choose 5 (-1));
  check_float ~eps:1e-3 "52C5" 2598960. (Combin.choose 52 5)

(* ------------------------------------------------------------------ *)
(* Yao function                                                        *)
(* ------------------------------------------------------------------ *)

let test_yao_small_exact () =
  (* n=4 records on m=2 blocks (2 per block), k=1: expect exactly 1 block. *)
  check_float ~eps:1e-9 "k=1 one block" 1. (Yao.exact ~n:4. ~m:2. ~k:1.);
  (* k=n: all blocks *)
  check_float ~eps:1e-9 "k=n all blocks" 2. (Yao.exact ~n:4. ~m:2. ~k:4.);
  (* n=4, m=2, k=2: P(both from same block) = 2 * C(2,2)/C(4,2) = 1/3;
     expected blocks = 1*(1/3) + 2*(2/3) = 5/3. *)
  check_float ~eps:1e-9 "k=2 expectation" (5. /. 3.) (Yao.exact ~n:4. ~m:2. ~k:2.)

let test_yao_degenerate () =
  check_float "k=0" 0. (Yao.eval ~n:100. ~m:10. ~k:0.);
  check_float "n=0" 0. (Yao.eval ~n:0. ~m:10. ~k:5.);
  check_float "m=0" 0. (Yao.eval ~n:100. ~m:0. ~k:5.);
  check_float ~eps:1e-9 "k > n" 10. (Yao.eval ~n:100. ~m:10. ~k:1000.)

let test_yao_cardenas_close () =
  (* Appendix B: approximation close when blocking factor > 10. *)
  let n = 10000. and m = 500. in
  List.iter
    (fun k ->
      let e = Yao.exact ~n ~m ~k and c = Yao.cardenas ~n ~m ~k in
      if Stats.relative_error ~expected:e ~actual:c > 0.03 then
        Alcotest.failf "cardenas far from exact at k=%g: %g vs %g" k e c)
    [ 1.; 10.; 100.; 1000.; 5000. ]

let yao_args =
  QCheck.triple (QCheck.int_range 2 5000) (QCheck.int_range 1 500) (QCheck.int_range 0 5000)

let prop_yao_bounds =
  QCheck.Test.make ~name:"yao within [0, min m k]" ~count:300 yao_args (fun (n, m, k) ->
      let v = Yao.eval ~n:(float_of_int n) ~m:(float_of_int m) ~k:(float_of_int k) in
      v >= 0. && v <= float_of_int m +. 1e-9 && v <= float_of_int k +. 1e-9)

let prop_yao_monotone_k =
  QCheck.Test.make ~name:"yao monotone in k" ~count:300
    (QCheck.pair (QCheck.int_range 10 2000) (QCheck.int_range 1 100))
    (fun (n, m) ->
      let f k = Yao.eval ~n:(float_of_int n) ~m:(float_of_int m) ~k in
      let rec ok prev k = k > 50. || (f k >= prev -. 1e-9 && ok (f k) (k +. 1.)) in
      ok 0. 1.)

(* §4: y(n, m, a+b) <= y(n, m, a) + y(n, m, b) — why deferring refreshes
   as long as possible minimizes total I/O. *)
let yao_triangle (n, m, a, b) =
  let y k = Yao.eval ~n:(float_of_int n) ~m:(float_of_int m) ~k:(float_of_int k) in
  y (a + b) <= y a +. y b +. 1e-6

let prop_yao_triangle =
  QCheck.Test.make ~name:"yao triangle inequality" ~count:300
    (QCheck.quad (QCheck.int_range 10 2000) (QCheck.int_range 1 100)
       (QCheck.int_range 1 500) (QCheck.int_range 1 500))
    yao_triangle

(* A non-integer blocking factor, p = 26/25: y(25) must stay below
   y(20) + y(5) = 24.56, short of m = 25. *)
let test_yao_triangle_fractional_p () =
  Alcotest.(check bool) "y(26, 25, 20 + 5) <= y(20) + y(5)" true (yao_triangle (26, 25, 20, 5))

(* ------------------------------------------------------------------ *)
(* RNG                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_float_range () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    if x < 0. || x >= 1. then Alcotest.failf "float out of range: %f" x
  done

let test_rng_int_range () =
  let rng = Rng.create 2 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    if x < 0 || x >= 17 then Alcotest.failf "int out of range: %d" x
  done

let test_rng_sample_without_replacement () =
  let rng = Rng.create 3 in
  for _ = 1 to 50 do
    let sample = Rng.sample_without_replacement rng ~n:100 ~k:20 in
    Alcotest.(check int) "sample size" 20 (List.length sample);
    Alcotest.(check int) "distinct" 20 (List.length (List.sort_uniq Int.compare sample));
    List.iter (fun x -> if x < 0 || x >= 100 then Alcotest.fail "out of range") sample
  done

let test_rng_sample_full () =
  let rng = Rng.create 4 in
  let sample = Rng.sample_without_replacement rng ~n:10 ~k:10 in
  Alcotest.(check (list int)) "whole population" (List.init 10 Fun.id)
    (List.sort Int.compare sample)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Stats / Table / Plot                                                *)
(* ------------------------------------------------------------------ *)

let test_stats_basics () =
  check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  check_float "mean empty" 0. (Stats.mean []);
  check_float "stddev constant" 0. (Stats.stddev [ 5.; 5.; 5. ]);
  check_float ~eps:1e-9 "stddev" 1. (Stats.stddev [ 1.; 3.; 1.; 3. ]);
  check_float "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  check_float "median even" 2.5 (Stats.median [ 1.; 2.; 3.; 4. ]);
  check_float "min" 1. (Stats.minimum [ 3.; 1.; 2. ]);
  check_float "max" 3. (Stats.maximum [ 3.; 1.; 2. ]);
  check_float ~eps:1e-9 "geomean" 2. (Stats.geometric_mean [ 1.; 4. ]);
  check_float "relerr" 0.5 (Stats.relative_error ~expected:2. ~actual:3.)

let test_table_render () =
  let s = Table.render ~headers:[ "name"; "cost" ] [ [ "alpha"; "1.5" ]; [ "b"; "22" ] ] in
  Alcotest.(check bool) "contains header" true
    (Astring.String.is_infix ~affix:"name" s);
  Alcotest.(check bool) "contains row" true (Astring.String.is_infix ~affix:"alpha" s);
  match Table.render ~headers:[ "a" ] [ [ "1"; "2" ] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ragged row accepted"

let test_float_cell () =
  Alcotest.(check string) "two decimals" "1.50" (Table.float_cell 1.5);
  Alcotest.(check string) "nan" "-" (Table.float_cell Float.nan);
  Alcotest.(check string) "decimals" "1.500" (Table.float_cell ~decimals:3 1.5)

let test_line_chart_renders () =
  let s =
    Ascii_plot.line_chart ~title:"t" ~x_label:"x" ~y_label:"y"
      ~series:[ ("a", '*', [ (0., 0.); (1., 1.) ]); ("b", '+', [ (0., 1.); (1., 0.) ]) ]
      ()
  in
  Alcotest.(check bool) "has title" true (Astring.String.is_infix ~affix:"t\n" s);
  Alcotest.(check bool) "has markers" true
    (Astring.String.is_infix ~affix:"*" s && Astring.String.is_infix ~affix:"+" s)

let test_region_map_renders () =
  let s =
    Ascii_plot.region_map ~title:"regions" ~x_label:"P" ~y_label:"f" ~x_range:(0., 1.)
      ~y_range:(0., 1.)
      ~legend:[ ('D', "deferred"); ('C', "clustered") ]
      ~classify:(fun x _ -> if x < 0.5 then 'D' else 'C')
      ()
  in
  Alcotest.(check bool) "both regions present" true
    (Astring.String.is_infix ~affix:"D" s && Astring.String.is_infix ~affix:"C" s)

let test_plot_edge_cases () =
  (* no series, single point, constant series: no crash, sane output *)
  let chart series =
    Ascii_plot.line_chart ~title:"t" ~x_label:"x" ~y_label:"y" ~series ()
  in
  Alcotest.(check bool) "empty series renders" true (String.length (chart []) > 0);
  Alcotest.(check bool) "single point renders" true
    (String.length (chart [ ("a", '*', [ (1., 1.) ]) ]) > 0);
  Alcotest.(check bool) "constant series renders" true
    (String.length (chart [ ("a", '*', [ (0., 5.); (1., 5.) ]) ]) > 0)

(* ------------------------------------------------------------------ *)
(* Int_sort                                                            *)
(* ------------------------------------------------------------------ *)

(* Lengths 0..100 cross the 16-element runs and every merge width up to
   128; small values force repeats, and the extremes check that no
   comparison is done by subtraction. *)
let int_sort_input =
  QCheck.make
    ~print:QCheck.Print.(pair (list int) (list int))
    QCheck.Gen.(
      let element =
        frequency
          [
            (4, int_range (-8) 8);
            (2, int);
            (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0 ]);
          ]
      in
      pair (list_size (int_range 0 100) element) (list_size (int_range 0 3) element))

let prop_int_sort_matches_list_sort =
  QCheck.Test.make ~name:"sort of a prefix = List.sort Int.compare; the rest untouched"
    ~count:1000 int_sort_input (fun (prefix, rest) ->
      let a = Array.of_list (prefix @ rest) in
      let len = List.length prefix in
      Int_sort.sort a len;
      Array.to_list a = List.sort Int.compare prefix @ rest)

let test_int_sort_rejects_bad_length () =
  let a = [| 3; 1; 2 |] in
  List.iter
    (fun len ->
      match Int_sort.sort a len with
      | () -> Alcotest.failf "length %d accepted" len
      | exception Invalid_argument _ -> ())
    [ -1; 4 ];
  Alcotest.(check (list int)) "untouched after a refusal" [ 3; 1; 2 ] (Array.to_list a)

let qcheck = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "util.combin",
      [
        Alcotest.test_case "lgamma" `Quick test_lgamma;
        Alcotest.test_case "log_factorial" `Quick test_log_factorial;
        Alcotest.test_case "choose" `Quick test_choose;
      ] );
    ( "util.yao",
      [
        Alcotest.test_case "small exact values" `Quick test_yao_small_exact;
        Alcotest.test_case "degenerate inputs" `Quick test_yao_degenerate;
        Alcotest.test_case "cardenas close to exact" `Quick test_yao_cardenas_close;
        Alcotest.test_case "triangle at fractional p" `Quick test_yao_triangle_fractional_p;
      ]
      @ qcheck [ prop_yao_bounds; prop_yao_monotone_k; prop_yao_triangle ] );
    ( "util.int_sort",
      Alcotest.test_case "rejects a bad length" `Quick test_int_sort_rejects_bad_length
      :: qcheck [ prop_int_sort_matches_list_sort ] );
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "sample without replacement" `Quick
          test_rng_sample_without_replacement;
        Alcotest.test_case "sample full population" `Quick test_rng_sample_full;
        Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
      ] );
    ( "util.misc",
      [
        Alcotest.test_case "stats" `Quick test_stats_basics;
        Alcotest.test_case "table" `Quick test_table_render;
        Alcotest.test_case "float cell" `Quick test_float_cell;
        Alcotest.test_case "line chart" `Quick test_line_chart_renders;
        Alcotest.test_case "region map" `Quick test_region_map_renders;
        Alcotest.test_case "plot edge cases" `Quick test_plot_edge_cases;
      ] );
  ]
