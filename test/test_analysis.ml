(* Golden fixtures for the vmlint rules (DESIGN §8): each rule must fire on
   a minimal violating program and stay silent on the idiomatic fix.  The
   fixtures go through [Driver.lint_string], so no filesystem is involved
   and the expected findings are pinned down to rule id and count. *)

module Driver = Vmat_analysis.Driver
module Finding = Vmat_analysis.Finding
module Allowlist = Vmat_analysis.Allowlist

let lint ?(file = "lib/fixture.ml") source = Driver.lint_string ~file source

let rules_fired findings =
  List.sort_uniq String.compare (List.map (fun f -> f.Finding.rule) findings)

let check_fires ~what ~rule source =
  let fired = rules_fired (lint source) in
  if not (List.mem rule fired) then
    Alcotest.failf "%s: expected %s to fire, got [%s]" what rule
      (String.concat "; " fired)

let check_silent ~what ?file source =
  let findings = lint ?file source in
  if not (List.is_empty findings) then
    Alcotest.failf "%s: expected no findings, got: %s" what
      (String.concat " | " (List.map Finding.to_human findings))

(* ------------------------------------------------------------------ *)
(* D1: module-level mutable state                                      *)
(* ------------------------------------------------------------------ *)

let test_d1_fires () =
  check_fires ~what:"toplevel ref" ~rule:"D1" "let counter = ref 0";
  check_fires ~what:"toplevel hashtable" ~rule:"D1"
    "let cache = Hashtbl.create 16";
  check_fires ~what:"toplevel array" ~rule:"D1" "let slots = Array.make 8 0";
  check_fires ~what:"ref under let-in" ~rule:"D1"
    "let table = let n = 4 in ref n";
  check_fires ~what:"lazy mutable" ~rule:"D1"
    "let memo = lazy (Array.make 64 0.)";
  check_fires ~what:"mutable record literal" ~rule:"D1"
    "type s = { mutable hits : int }\nlet stats = { hits = 0 }"

let test_d1_silent () =
  check_silent ~what:"ref under lambda"
    "let make_counter () = ref 0\nlet use c = incr c";
  check_silent ~what:"immutable toplevel" "let names = [ \"a\"; \"b\" ]";
  check_silent ~what:"record without mutable fields"
    "type s = { hits : int }\nlet stats = { hits = 0 }"

(* ------------------------------------------------------------------ *)
(* D2: ambient nondeterminism                                          *)
(* ------------------------------------------------------------------ *)

let test_d2_fires () =
  check_fires ~what:"global Random" ~rule:"D2"
    "let draw () = Random.int 10";
  check_fires ~what:"wall clock" ~rule:"D2" "let now () = Sys.time ()";
  check_fires ~what:"Unix clock" ~rule:"D2"
    "let now () = Unix.gettimeofday ()";
  check_fires ~what:"polymorphic hash" ~rule:"D2"
    "let h key = Hashtbl.hash key"

let test_d2_silent () =
  check_silent ~what:"monomorphic String.hash"
    "let h key = String.hash key";
  (* The one blessed wrapper around randomness is exempt by path. *)
  check_silent ~what:"rng.ml exemption" ~file:"lib/util/rng.ml"
    "let draw () = Random.int 10"

(* ------------------------------------------------------------------ *)
(* D3: hash order escaping into ordered output                         *)
(* ------------------------------------------------------------------ *)

let test_d3_fires () =
  check_fires ~what:"fold building list" ~rule:"D3"
    "let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t []";
  check_fires ~what:"iter building string" ~rule:"D3"
    "let dump t b = Hashtbl.iter (fun k _ -> ignore (k ^ \",\")) t"

let test_d3_silent () =
  check_silent ~what:"fold under canonical sort"
    "let keys t =\n\
    \  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])";
  check_silent ~what:"fold accumulating a scalar"
    "let total t = Hashtbl.fold (fun _ v acc -> acc + v) t 0"

(* ------------------------------------------------------------------ *)
(* D4: polymorphic comparison                                          *)
(* ------------------------------------------------------------------ *)

let test_d4_fires () =
  check_fires ~what:"= []" ~rule:"D4" "let empty xs = xs = []";
  check_fires ~what:"<> []" ~rule:"D4" "let nonempty xs = xs <> []";
  check_fires ~what:"bare compare" ~rule:"D4"
    "let sorted xs = List.sort compare xs";
  check_fires ~what:"poly = on Tuple.get" ~rule:"D4"
    "let same t u = Tuple.get t 0 = Tuple.get u 0";
  check_fires ~what:"List.mem on Value" ~rule:"D4"
    "let has v vs = List.mem (Value.Int v) vs"

let test_d4_silent () =
  check_silent ~what:"List.is_empty" "let empty xs = List.is_empty xs";
  check_silent ~what:"monomorphic comparator"
    "let sorted xs = List.sort String.compare xs";
  check_silent ~what:"Value.equal"
    "let same a b = Value.equal a b";
  (* Map/Set functor-argument idiom: the file's own compare is fine. *)
  check_silent ~what:"file defining compare"
    "let compare a b = Stdlib.Int.compare a b\nlet sorted xs = List.sort compare xs"

(* ------------------------------------------------------------------ *)
(* D5: ctx-discipline for meter access                                 *)
(* ------------------------------------------------------------------ *)

let test_d5_fires () =
  check_fires ~what:"toplevel meter" ~rule:"D5"
    "let meter = Cost_meter.create ()\n\
     let f () = Cost_meter.charge_read meter";
  check_fires ~what:"qualified ambient meter" ~rule:"D5"
    "let f () = Cost_meter.charge_write Globals.meter"

let test_d5_silent () =
  check_silent ~what:"meter from parameter"
    "let f meter = Cost_meter.charge_read meter";
  check_silent ~what:"meter through ctx parameter"
    "let f ctx = Cost_meter.charge_read (Ctx.meter ctx)";
  check_silent ~what:"meter from env field"
    "let f env = Cost_meter.charge_write env.meter"

(* ------------------------------------------------------------------ *)
(* D6: registry-domain discipline                                      *)
(* ------------------------------------------------------------------ *)

let test_d6_fires () =
  check_fires ~what:"metrics mutation in spawn" ~rule:"D6"
    "let f m = Domain.spawn (fun () -> Metrics.inc m 1.)";
  check_fires ~what:"recorder gauge in spawn" ~rule:"D6"
    "let f r = Domain.spawn (fun () -> Recorder.set_gauge r \"g\" 1.)";
  check_fires ~what:"trace instant nested in spawn closure" ~rule:"D6"
    "let f tr work =\n\
    \  Domain.spawn (fun () -> List.iter (fun x -> Trace.instant tr x) work)";
  check_fires ~what:"fully qualified mutator in spawn" ~rule:"D6"
    "let f m = Domain.spawn (fun () -> Vmat_obs.Metrics.observe m 3.)"

let test_d6_silent () =
  check_silent ~what:"flight ring in spawn"
    "let f ring ev = Domain.spawn (fun () -> Flight.append ring ev)";
  check_silent ~what:"sketch in spawn"
    "let f sk keys = Domain.spawn (fun () -> List.iter (Sketch.observe sk) keys)";
  check_silent ~what:"mutator outside any spawn" "let f m = Metrics.inc m 1.";
  check_silent ~what:"mutator after the join"
    "let f m d =\n  Domain.join d;\n  Metrics.inc m 1."

(* ------------------------------------------------------------------ *)
(* D7: scan-loop hygiene (lib/view, lib/relalg only)                    *)
(* ------------------------------------------------------------------ *)

let test_d7_fires () =
  let lint_view source = lint ~file:"lib/view/fixture.ml" source in
  let fires ~what source =
    let fired = rules_fired (lint_view source) in
    if not (List.mem "D7" fired) then
      Alcotest.failf "%s: expected D7 to fire, got [%s]" what
        (String.concat "; " fired)
  in
  fires ~what:"materialize in range_views closure"
    "let f base lo hi out =\n\
    \  Btree.range_views base ~lo ~hi (fun v ->\n\
    \      out := Tuple_view.materialize v :: !out)";
  fires ~what:"Tuple.make in scan_views closure"
    "let f heap out =\n\
    \  Heap_file.scan_views heap (fun v ->\n\
    \      out := Tuple.make ~tid:0 [| Tuple_view.get v 0 |] :: !out)";
  fires ~what:"Tuple.project in lookup_views closure"
    "let f hash key out =\n\
    \  Hash_file.lookup_views hash key (fun v ->\n\
    \      out := Tuple.project (Tuple_view.materialize v) [| 0 |] :: !out)";
  fires ~what:"Array.map nested under iterator closure"
    "let f base g =\n\
    \  Btree.iter_views_unmetered base (fun v ->\n\
    \      ignore (Array.map g (Tuple_view.cells v)))";
  fires ~what:"qualified iterator head"
    "let f base lo hi out =\n\
    \  Vmat_index.Btree.range_views base ~lo ~hi (fun v ->\n\
    \      out := Tuple_view.materialize v :: !out)";
  fires ~what:"materialize in the shared query-modification scan's row callback"
    "let f m ~compiled base lo hi out =\n\
    \  Strategy.scan_modified m ~compiled ~col:1 ~lo ~hi\n\
    \    (Btree.range_views base ~lo ~hi)\n\
    \    (fun v -> out := Tuple_view.materialize v :: !out)"

let test_d7_silent () =
  check_silent ~what:"cursor-only closure" ~file:"lib/view/fixture.ml"
    "let f base lo hi n =\n\
    \  Btree.range_views base ~lo ~hi (fun v ->\n\
    \      if Tuple_view.compare_col v 0 lo >= 0 then incr n)";
  check_silent ~what:"materializer outside any iterator"
    ~file:"lib/view/fixture.ml"
    "let f v = Tuple_view.materialize v";
  check_silent ~what:"out of scope (lib/index)" ~file:"lib/index/fixture.ml"
    "let f base lo hi out =\n\
    \  Btree.range_views base ~lo ~hi (fun v ->\n\
    \      out := Tuple_view.materialize v :: !out)";
  check_silent ~what:"out of scope (default fixture path)"
    "let f base lo hi out =\n\
    \  Btree.range_views base ~lo ~hi (fun v ->\n\
    \      out := Tuple_view.materialize v :: !out)"

(* ------------------------------------------------------------------ *)
(* D8: borrow discipline for zero-copy cursors (interprocedural)       *)
(* ------------------------------------------------------------------ *)

let test_d8_fires () =
  check_fires ~what:"cursor into a ref" ~rule:"D8"
    "let scan base out =\n\
    \  Btree.iter_views_unmetered base (fun v -> out := v :: !out)";
  check_fires ~what:"cursor into a mutable field" ~rule:"D8"
    "type s = { mutable last : Tuple_view.t option }\n\
     let scan base s =\n\
    \  Heap_file.scan_views base (fun v -> s.last <- Some v)";
  check_fires ~what:"cursor captured by stored closure" ~rule:"D8"
    "let scan base q =\n\
    \  Btree.iter_views_unmetered base (fun v ->\n\
    \      Queue.add (fun () -> Tuple_view.get v 0) q)";
  (* The acceptance fixture: the cursor escapes through a helper two calls
     deep — only the summary fixpoint can see it. *)
  check_fires ~what:"escape two calls deep" ~rule:"D8"
    "let save out v = out := v :: !out\n\
     let relay out v = save out v\n\
     let scan base out =\n\
    \  Btree.iter_views_unmetered base (fun v -> relay out v)"

let test_d8_silent () =
  check_silent ~what:"boxed at the boundary"
    "let scan base out =\n\
    \  Btree.iter_views_unmetered base (fun v ->\n\
    \      out := Tuple_view.materialize v :: !out)";
  check_silent ~what:"fixed two-deep helper boxes first"
    "let save out t = out := t :: !out\n\
     let relay out t = save out t\n\
     let scan base out =\n\
    \  Btree.iter_views_unmetered base (fun v ->\n\
    \      relay out (Tuple_view.materialize v))";
  check_silent ~what:"compare/key reads never escape"
    "let count base n lo =\n\
    \  Btree.iter_views_unmetered base (fun v ->\n\
    \      if Tuple_view.compare_col v 0 lo >= 0 then incr n)";
  check_silent ~what:"helper that only reads the cursor"
    "let wide v = Tuple_view.arity v > 4\n\
     let count base n =\n\
    \  Heap_file.scan_views base (fun v -> if wide v then incr n)"

(* A cursor collector keeps every row function result in the list it
   returns: a result that is, holds or captures the cursor escapes. *)
let test_d8_collector_fires () =
  check_fires ~what:"row function returns the cursor" ~rule:"D8"
    "let rows base lo hi = Btree.range_rows base ~lo ~hi (fun v -> v)";
  check_fires ~what:"row function pairs the cursor" ~rule:"D8"
    "let rows base lo hi =\n\
    \  Btree.range_rows base ~lo ~hi (fun v -> (v, Tuple_view.get_int v 1))";
  check_fires ~what:"row function returns a closure over the cursor" ~rule:"D8"
    "let rows base lo hi =\n\
    \  Btree.range_rows base ~lo ~hi (fun v -> fun () -> Tuple_view.tid v)";
  check_fires ~what:"named row function returns its cursor" ~rule:"D8"
    "let keep v = (v, 1)\n\
     let rows base lo hi = Btree.range_rows base ~lo ~hi keep"

let test_d8_collector_silent () =
  check_silent ~what:"row function boxes the answer pair"
    "let rows base lo hi =\n\
    \  Btree.range_rows base ~lo ~hi (fun v -> Tuple_view.counted_row v)";
  check_silent ~what:"row function boxes and reads"
    "let rows base lo hi =\n\
    \  Btree.range_rows base ~lo ~hi (fun v ->\n\
    \      (Tuple_view.materialize v, Tuple_view.get_int v 1))";
  check_silent ~what:"named row function boxes"
    "let box v = Tuple_view.counted_row v\n\
     let rows base lo hi = Btree.range_rows base ~lo ~hi box";
  check_silent ~what:"row function returns a captured non-cursor"
    "let rows base lo hi tag =\n\
    \  Btree.range_rows base ~lo ~hi (fun v -> (tag, Tuple_view.tid v))"

(* The summary fixpoint terminates on mutual recursion (the pass cap is a
   backstop, not the convergence argument) and the converged summaries stay
   precise: the mutually-recursive pair only boxes, so nothing fires. *)
let test_d8_mutual_recursion_fixpoint () =
  check_silent ~what:"mutually recursive helpers converge"
    "let rec ping out k v =\n\
    \  if Tuple_view.compare_col v 0 k >= 0 then pong out k v\n\
    \  else out := Tuple_view.materialize v :: !out\n\
     and pong out k v = ping out k v\n\
     let scan base out k =\n\
    \  Btree.iter_views_unmetered base (fun v -> ping out k v)";
  check_fires ~what:"mutually recursive escape still found" ~rule:"D8"
    "let rec ping out k v =\n\
    \  if Tuple_view.compare_col v 0 k >= 0 then pong out k v\n\
    \  else out := v :: !out\n\
     and pong out k v = ping out k v\n\
     let scan base out k =\n\
    \  Btree.iter_views_unmetered base (fun v -> ping out k v)"

(* ------------------------------------------------------------------ *)
(* D9: no mutation while borrowed                                      *)
(* ------------------------------------------------------------------ *)

let test_d9_fires () =
  check_fires ~what:"delete under live scan" ~rule:"D9"
    "let purge heap =\n\
    \  Heap_file.scan_views heap (fun v ->\n\
    \      Heap_file.delete heap (Tuple_view.tid v))";
  check_fires ~what:"pool traffic under live scan" ~rule:"D9"
    "let f base pool page =\n\
    \  Btree.iter_views_unmetered base (fun v ->\n\
    \      ignore (Buffer_pool.read pool page))";
  (* Interprocedural: the mutator hides behind a local helper. *)
  check_fires ~what:"mutator behind a helper" ~rule:"D9"
    "let drop heap tid = Heap_file.delete heap tid\n\
     let purge heap =\n\
    \  Heap_file.scan_views heap (fun v -> drop heap (Tuple_view.tid v))"

let test_d9_silent () =
  check_silent ~what:"collect tids, mutate after the scan"
    "let purge heap =\n\
    \  let doomed = ref [] in\n\
    \  Heap_file.scan_views heap (fun v ->\n\
    \      doomed := Tuple_view.tid v :: !doomed);\n\
    \  List.iter (fun tid -> Heap_file.delete heap tid) !doomed";
  check_silent ~what:"read-only helper under the scan"
    "let keep v = Tuple_view.arity v > 2\n\
     let count heap n =\n\
    \  Heap_file.scan_views heap (fun v -> if keep v then incr n)"

(* ------------------------------------------------------------------ *)
(* D10: domain-capture races                                           *)
(* ------------------------------------------------------------------ *)

let test_d10_fires () =
  (* The acceptance fixture: a Hashtbl captured by a spawned closure. *)
  check_fires ~what:"Hashtbl capture" ~rule:"D10"
    "let f () =\n\
    \  let tbl = Hashtbl.create 16 in\n\
    \  let d = Domain.spawn (fun () -> Hashtbl.add tbl 1 2) in\n\
    \  Hashtbl.add tbl 3 4;\n\
    \  Domain.join d";
  check_fires ~what:"captured ref" ~rule:"D10"
    "let f () =\n\
    \  let hits = ref 0 in\n\
    \  let d = Domain.spawn (fun () -> incr hits) in\n\
    \  Domain.join d;\n\
    \  !hits";
  check_fires ~what:"capture through a local helper" ~rule:"D10"
    "let f () =\n\
    \  let q = Queue.create () in\n\
    \  let work () = Queue.push 1 q in\n\
    \  Domain.spawn work"

let test_d10_silent () =
  check_silent ~what:"sanctioned Atomic capture"
    "let f () =\n\
    \  let total = Atomic.make 0 in\n\
    \  let d = Domain.spawn (fun () -> Atomic.set total 1) in\n\
    \  Domain.join d;\n\
    \  Atomic.get total";
  check_silent ~what:"sanctioned Flight/Sketch captures"
    "let f ev keys =\n\
    \  let ring = Flight.create ~capacity:64 ~label:\"w\" () in\n\
    \  let sk = Sketch.create ~capacity:32 () in\n\
    \  Domain.spawn (fun () ->\n\
    \      Flight.append ring ev;\n\
    \      List.iter (Sketch.observe sk) keys)";
  check_silent ~what:"state created inside the domain"
    "let f () =\n\
    \  Domain.spawn (fun () ->\n\
    \      let tbl = Hashtbl.create 16 in\n\
    \      Hashtbl.add tbl 1 2)";
  check_silent ~what:"immutable capture"
    "let f xs = Domain.spawn (fun () -> List.length xs)"

(* ------------------------------------------------------------------ *)
(* Infrastructure: parse errors, allowlist                             *)
(* ------------------------------------------------------------------ *)

let test_parse_error () =
  match lint "let let let" with
  | [ f ] ->
      Alcotest.(check string) "rule" "PARSE" f.Finding.rule;
      Alcotest.(check bool) "severity" true (f.Finding.severity = Finding.Error)
  | other -> Alcotest.failf "expected one PARSE finding, got %d" (List.length other)

let finding rule file line =
  { Finding.rule; severity = Finding.Error; file; line; col = 0; message = "m" }

let test_allowlist_matching () =
  let allowlist =
    match
      Allowlist.of_string
        "# comment\n\
         D1 lib/storage/cost_meter.ml:28 read-only lookup table\n\
         D3 bag.ml caller re-sorts\n"
    with
    | Ok entries -> entries
    | Error message -> Alcotest.failf "allowlist parse: %s" message
  in
  Alcotest.(check bool) "rule+path+line match" true
    (Allowlist.matches allowlist (finding "D1" "lib/storage/cost_meter.ml" 28));
  Alcotest.(check bool) "wrong line" false
    (Allowlist.matches allowlist (finding "D1" "lib/storage/cost_meter.ml" 99));
  Alcotest.(check bool) "wrong rule" false
    (Allowlist.matches allowlist (finding "D2" "lib/storage/cost_meter.ml" 28));
  Alcotest.(check bool) "path suffix match" true
    (Allowlist.matches allowlist (finding "D3" "lib/relalg/bag.ml" 7));
  Alcotest.(check bool) "suffix needs / boundary" false
    (Allowlist.matches allowlist (finding "D3" "lib/relalg/notbag.ml" 7))

let test_allowlist_unused_and_errors () =
  (match Allowlist.of_string "D1 lib/a.ml justified\nD2 lib/b.ml never hit\n" with
  | Ok allowlist ->
      ignore (Allowlist.matches allowlist (finding "D1" "lib/a.ml" 3));
      let unused = Allowlist.unused allowlist in
      Alcotest.(check int) "one unused" 1 (List.length unused);
      Alcotest.(check string) "unused is D2" "D2"
        (List.hd unused).Allowlist.rule
  | Error message -> Alcotest.failf "allowlist parse: %s" message);
  match Allowlist.of_string "D1 missing-justification\n" with
  | Ok _ -> Alcotest.fail "entry without justification should be rejected"
  | Error _ -> ()

let test_filter_allowed () =
  let findings = lint "let counter = ref 0" in
  Alcotest.(check bool) "fixture fires" false (List.is_empty findings);
  let allowlist =
    match Allowlist.of_string "D1 lib/fixture.ml deliberate fixture\n" with
    | Ok entries -> entries
    | Error message -> Alcotest.failf "allowlist parse: %s" message
  in
  Alcotest.(check int) "all suppressed" 0
    (List.length (Driver.filter_allowed allowlist findings))

let test_allowlist_unknown_rules () =
  match Allowlist.of_string "D1 lib/a.ml fine\nD99 lib/b.ml typo'd rule id\n" with
  | Ok allowlist ->
      let bad = Allowlist.unknown_rules ~known:Driver.rule_ids allowlist in
      Alcotest.(check int) "one unknown" 1 (List.length bad);
      Alcotest.(check string) "the typo'd one" "D99" (List.hd bad).Allowlist.rule;
      Alcotest.(check int) "current ids all known" 0
        (List.length (Allowlist.unknown_rules ~known:Driver.rule_ids
           (match Allowlist.of_string "D8 lib/a.ml x\nD10 lib/b.ml y\n" with
           | Ok e -> e
           | Error m -> Alcotest.failf "parse: %s" m)))
  | Error message -> Alcotest.failf "allowlist parse: %s" message

(* Every rule ships its own documentation: a doc line, a minimal firing
   example, and a fix (the payload of [vmlint --explain]).  The example is
   kept honest by linting it: it must fire its own rule. *)
let test_rule_examples_fire () =
  List.iter
    (fun rule ->
      let module Rule = Vmat_analysis.Rule in
      Alcotest.(check bool)
        (rule.Rule.id ^ " has doc") false (String.length rule.Rule.doc = 0);
      Alcotest.(check bool)
        (rule.Rule.id ^ " has fix") false (String.length rule.Rule.fix = 0);
      let fired =
        rules_fired (lint ~file:"lib/view/fixture.ml" rule.Rule.example)
      in
      if not (List.mem rule.Rule.id fired) then
        Alcotest.failf "%s: its own --explain example does not fire it (got [%s])"
          rule.Rule.id
          (String.concat "; " fired))
    Driver.all_rules

let test_finding_format () =
  let f = finding "D1" "lib/x.ml" 3 in
  Alcotest.(check string) "human line" "lib/x.ml:3:0 · D1 · m [error]"
    (Finding.to_human f);
  let json = Finding.list_to_json [ f ] in
  Alcotest.(check bool) "json mentions rule" true
    (Astring.String.is_infix ~affix:"\"rule\":\"D1\"" json)

(* The self-test that keeps the analyzer honest about its own tree: the
   checked-in .vmlint suppresses every remaining finding, warnings included,
   and carries no stale entries.  test/dune declares .vmlint and lib/ as
   deps, so under dune runtest the checkout's copy is the parent of the
   test's directory; run by hand from the checkout root, it is the current
   one.  Finding neither fails the test. *)
let test_lint_own_tree () =
  let is_root dir =
    Sys.file_exists (Filename.concat dir ".vmlint") && Sys.file_exists (Filename.concat dir "lib")
  in
  let root =
    match List.find_opt is_root [ Filename.current_dir_name; Filename.parent_dir_name ] with
    | Some dir -> dir
    | None -> Alcotest.failf "no .vmlint and lib/ in %s or its parent" (Sys.getcwd ())
  in
  let cwd = Sys.getcwd () in
  Sys.chdir root;
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
  let findings = Driver.lint_paths [ "lib" ] in
  let allowlist =
    match Allowlist.load ".vmlint" with
    | Ok entries -> entries
    | Error message -> Alcotest.failf ".vmlint: %s" message
  in
  let kept = Driver.filter_allowed allowlist findings in
  if not (List.is_empty kept) then
    Alcotest.failf "unsuppressed findings on lib/: %s"
      (String.concat " | " (List.map Finding.to_human kept));
  Alcotest.(check int) "no stale allowlist entries" 0
    (List.length (Allowlist.unused allowlist))

let suites =
  [
    ( "analysis",
      Alcotest.
        [
          test_case "D1 fires" `Quick test_d1_fires;
          test_case "D1 silent" `Quick test_d1_silent;
          test_case "D2 fires" `Quick test_d2_fires;
          test_case "D2 silent" `Quick test_d2_silent;
          test_case "D3 fires" `Quick test_d3_fires;
          test_case "D3 silent" `Quick test_d3_silent;
          test_case "D4 fires" `Quick test_d4_fires;
          test_case "D4 silent" `Quick test_d4_silent;
          test_case "D5 fires" `Quick test_d5_fires;
          test_case "D5 silent" `Quick test_d5_silent;
          test_case "D6 fires" `Quick test_d6_fires;
          test_case "D6 silent" `Quick test_d6_silent;
          test_case "D7 fires" `Quick test_d7_fires;
          test_case "D7 silent" `Quick test_d7_silent;
          test_case "D8 fires" `Quick test_d8_fires;
          test_case "D8 silent" `Quick test_d8_silent;
          test_case "D8 mutual-recursion fixpoint" `Quick
            test_d8_mutual_recursion_fixpoint;
          test_case "D8 collector fires" `Quick test_d8_collector_fires;
          test_case "D8 collector silent" `Quick test_d8_collector_silent;
          test_case "D9 fires" `Quick test_d9_fires;
          test_case "D9 silent" `Quick test_d9_silent;
          test_case "D10 fires" `Quick test_d10_fires;
          test_case "D10 silent" `Quick test_d10_silent;
          test_case "parse error finding" `Quick test_parse_error;
          test_case "allowlist matching" `Quick test_allowlist_matching;
          test_case "allowlist unused + errors" `Quick test_allowlist_unused_and_errors;
          test_case "allowlist unknown rules" `Quick test_allowlist_unknown_rules;
          test_case "rule examples fire" `Quick test_rule_examples_fire;
          test_case "filter allowed" `Quick test_filter_allowed;
          test_case "finding format" `Quick test_finding_format;
          test_case "lint own tree" `Quick test_lint_own_tree;
        ] );
  ]
