open Core
open Core.Ast

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let tokens input =
  match Lexer.tokenize input with
  | Ok tokens -> tokens
  | Error message -> Alcotest.failf "lexing %s: %s" input message

let test_lexer_basics () =
  Alcotest.(check (list string)) "mixed tokens"
    [ "select"; "*"; "from"; "v"; "where"; "pval"; "<"; "0.1" ]
    (List.map Lexer.token_to_string (tokens "SELECT * FROM V where pval < 0.1"));
  (match tokens "a <= b >= c <> d != e" with
  | [ _; Lexer.Le; _; Lexer.Ge; _; Lexer.Ne; _; Lexer.Ne; _ ] -> ()
  | _ -> Alcotest.fail "two-char operators");
  match tokens "x 'hello world' \"double\" 1e3 2.5" with
  | [ Lexer.Ident "x"; Lexer.String "hello world"; Lexer.String "double";
      Lexer.Number 1000.; Lexer.Number 2.5 ] -> ()
  | _ -> Alcotest.fail "strings and numbers"

let test_lexer_errors () =
  Alcotest.(check bool) "unterminated string" true
    (Result.is_error (Lexer.tokenize "'oops"));
  Alcotest.(check bool) "bad character" true (Result.is_error (Lexer.tokenize "a ; b"))

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let parse input =
  match Parser.parse input with
  | Ok statement -> statement
  | Error message -> Alcotest.failf "parsing %s: %s" input message

let test_parse_create_table () =
  match parse "create table r (id int key, pval float, note string) size 100" with
  | Create_table { table = "r"; columns; tuple_bytes = 100 } ->
      Alcotest.(check int) "columns" 3 (List.length columns);
      (match columns with
      | [ ("id", Schema.T_int, true); ("pval", Schema.T_float, false);
          ("note", Schema.T_string, false) ] -> ()
      | _ -> Alcotest.fail "column details")
  | _ -> Alcotest.fail "wrong statement"

let test_parse_define_view () =
  match
    parse "define view v (pval, amount) from r where pval < 0.1 cluster on pval using deferred"
  with
  | Define_view { view = "v"; columns; from_left = "r"; join = None; where_ = Some _;
                  cluster = { table = None; column = "pval" }; using = Some "deferred" } ->
      Alcotest.(check int) "target list" 2 (List.length columns)
  | _ -> Alcotest.fail "wrong statement"

let test_parse_define_join_view () =
  match
    parse
      "define view j (r1.pval, r2.weight) from r1 join r2 on r1.jkey = r2.jkey \
       where r1.pval < 0.5 cluster on pval"
  with
  | Define_view { join = Some ("r2", { table = Some "r1"; column = "jkey" },
                               { table = Some "r2"; column = "jkey" });
                  using = None; _ } -> ()
  | _ -> Alcotest.fail "wrong statement"

let test_parse_define_aggregate () =
  (match parse "define aggregate t as sum(amount) from r where pval < 0.1" with
  | Define_aggregate { view = "t"; func = "sum"; arg = Some "amount"; from_ = "r";
                       where_ = Some _; using = None } -> ()
  | _ -> Alcotest.fail "sum");
  match parse "define aggregate c as count(*) from r" with
  | Define_aggregate { func = "count"; arg = None; where_ = None; _ } -> ()
  | _ -> Alcotest.fail "count(*)"

let test_parse_dml () =
  (match parse "insert into r values (1, 0.5, 'x')" with
  | Insert { table = "r"; values = [ L_number 1.; L_number 0.5; L_string "x" ] } -> ()
  | _ -> Alcotest.fail "insert");
  (match parse "update r set amount = 5 where id = 3" with
  | Update { table = "r"; set_column = "amount"; set_value = L_number 5.; where_ = Some _ } ->
      ()
  | _ -> Alcotest.fail "update");
  match parse "delete from r where id = 3" with
  | Delete { table = "r"; where_ = Some _ } -> ()
  | _ -> Alcotest.fail "delete"

let test_parse_select () =
  (match parse "select * from v" with
  | Select_view { view = "v"; range = None } -> ()
  | _ -> Alcotest.fail "bare select");
  (match parse "select * from v where pval between 0.1 and 0.2" with
  | Select_view { view = "v"; range = Some ("pval", L_number 0.1, L_number 0.2) } -> ()
  | _ -> Alcotest.fail "range select");
  match parse "select value from t" with
  | Select_value { view = "t" } -> ()
  | _ -> Alcotest.fail "select value"

let test_parse_errors () =
  List.iter
    (fun input ->
      if Result.is_ok (Parser.parse input) then Alcotest.failf "accepted: %s" input)
    [
      "";
      "select";
      "create table";
      "define view v from r cluster on x";
      "insert into r values (1,)";
      "select * from v extra";
      "update r set = 5";
    ]

let test_parse_predicates () =
  let pred input =
    match Parser.parse_predicate input with
    | Ok p -> p
    | Error m -> Alcotest.failf "predicate %s: %s" input m
  in
  (match pred "a < 1 and b = 'x' or not c >= 2" with
  | P_or (P_and _, P_not _) -> ()
  | _ -> Alcotest.fail "precedence: and binds tighter than or");
  (match pred "(a < 1 or b > 2) and c between 0 and 1" with
  | P_and (P_or _, P_between _) -> ()
  | _ -> Alcotest.fail "parentheses");
  match pred "r.x = s.y" with
  | P_cmp (Predicate.Eq, O_col { table = Some "r"; _ }, O_col { table = Some "s"; _ }) -> ()
  | _ -> Alcotest.fail "qualified columns"

(* ------------------------------------------------------------------ *)
(* Resolution                                                          *)
(* ------------------------------------------------------------------ *)

let schema =
  Schema.make ~name:"r"
    ~columns:
      Schema.[
        { name = "id"; ty = T_int };
        { name = "pval"; ty = T_float };
        { name = "note"; ty = T_string };
      ]
    ~tuple_bytes:100 ~key:"id"

let test_resolution () =
  let resolved input =
    match Parser.parse_predicate input with
    | Error m -> Alcotest.failf "parse: %s" m
    | Ok p -> (
        match Ast.resolve_pexpr schema p with
        | Ok pred -> pred
        | Error m -> Alcotest.failf "resolve: %s" m)
  in
  let tuple = Tuple.make ~tid:1 [| Value.Int 3; Value.Float 0.25; Value.Str "x" |] in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check bool) input expected (Predicate.eval (resolved input) tuple))
    [
      ("pval < 0.5", true);
      ("pval >= 0.5", false);
      ("id = 3", true);
      ("r.id = 3", true);
      ("note = 'x'", true);
      ("note = 'y'", false);
      ("pval between 0.2 and 0.3", true);
      ("id = 3 and not pval > 0.5", true);
      ("id = 1 or note = 'x'", true);
    ];
  (* integer literal lands as Int when the column is an int *)
  (match resolved "id = 3" with
  | Predicate.Cmp (_, _, Predicate.Const (Value.Int 3)) -> ()
  | _ -> Alcotest.fail "int coercion");
  (* unknown columns are reported *)
  match
    Result.bind (Parser.parse_predicate "nope = 1") (Ast.resolve_pexpr schema)
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown column accepted"

let test_resolution_two_schemas () =
  let right =
    Schema.make ~name:"s"
      ~columns:Schema.[ { name = "jkey"; ty = T_int }; { name = "w"; ty = T_float } ]
      ~tuple_bytes:50 ~key:"jkey"
  in
  match
    Result.bind
      (Parser.parse_predicate "r.id = s.jkey and w > 1")
      (Ast.resolve_pexpr2 ~left:schema ~right)
  with
  | Ok pred ->
      (* columns of the right schema are offset by the left arity (3) *)
      let joined =
        Tuple.make ~tid:1
          [| Value.Int 7; Value.Float 0.1; Value.Str "x"; Value.Int 7; Value.Float 2. |]
      in
      Alcotest.(check bool) "joined tuple satisfies" true (Predicate.eval pred joined)
  | Error m -> Alcotest.failf "resolve2: %s" m

(* ------------------------------------------------------------------ *)
(* Untrusted text never escapes as an exception                        *)
(* ------------------------------------------------------------------ *)

(* The grammar's vocabulary plus near misses: keywords, strategy and
   aggregate names, identifiers qualified and bare, every operator, and
   literals at the edges of what the lexer reads. *)
let vocabulary =
  [|
    "create"; "table"; "define"; "view"; "aggregate"; "as"; "from"; "where"; "join"; "on";
    "cluster"; "using"; "insert"; "into"; "values"; "update"; "set"; "delete"; "select";
    "value"; "and"; "or"; "not"; "between"; "true"; "false"; "key"; "size"; "int"; "float";
    "string"; "bool"; "text"; "real"; "varchar"; "sum"; "count"; "avg"; "min"; "max";
    "variance"; "deferred"; "immediate"; "clustered"; "recompute"; "snapshot"; "blakeley";
    "r"; "s"; "v"; "t"; "id"; "pval"; "amount"; "note"; "r.id"; "s.pval"; "r.";
    "("; ")"; ","; "."; "*"; "="; "<>"; "!="; "<"; "<="; ">"; ">="; "0"; "1"; "-1"; "0.5";
    "1e3"; "1e400"; "-0"; "99999999999999999999"; "'x'"; "\"y\""; "''"; "'"; "\""; ";"; "\t";
  |]

let token_soup =
  QCheck.make ~print:Fun.id
    QCheck.Gen.(
      map2
        (fun sep words -> String.concat sep words)
        (oneofl [ " "; ""; "  " ])
        (list_size (int_range 0 30) (oneofa vocabulary)))

let any_bytes = QCheck.make ~print:String.escaped QCheck.Gen.(string_size (int_range 0 60))

let never_raises f s = match f s with Ok _ | Error _ -> true

let prop_parse_never_raises =
  List.concat_map
    (fun (name, input) ->
      [
        QCheck.Test.make ~name:("parse answers Ok or Error on " ^ name) ~count:2000 input
          (never_raises Parser.parse);
        QCheck.Test.make ~name:("parse_predicate answers Ok or Error on " ^ name) ~count:2000
          input
          (never_raises Parser.parse_predicate);
      ])
    [ ("token soups", token_soup); ("arbitrary bytes", any_bytes) ]

(* Statements over a few names, mostly right and sometimes wrong: unknown
   tables, columns and types, bad arities and values, duplicate
   definitions, strategies a view kind does not accept. *)
let statement_gen =
  QCheck.Gen.(
    let table = frequencyl [ (4, "r"); (2, "s"); (1, "nosuch") ] in
    let view = frequencyl [ (3, "v"); (3, "w"); (1, "r"); (1, "nosuch") ] in
    let column =
      frequency
        [
          (8, oneofl [ "id"; "pval"; "amount"; "note" ]);
          (1, oneofl [ "bogus"; "r.pval"; "s.id" ]);
        ]
    in
    let literal =
      frequencyl
        [ (3, "1"); (3, "0.05"); (2, "0.5"); (2, "7"); (1, "'x'"); (1, "true"); (1, "1e400") ]
    in
    let op = oneofl [ "="; "<>"; "<"; "<="; ">"; ">=" ] in
    let pred =
      oneof
        [
          map3 (Printf.sprintf "%s %s %s") column op literal;
          map3 (Printf.sprintf "%s between %s and %s") column literal literal;
          map2 (Printf.sprintf "%s < %s and not id = 1") column literal;
          map2 (Printf.sprintf "%s = %s or true") column column;
        ]
    in
    let columns = map (String.concat ", ") (list_size (int_range 0 3) column) in
    let strategy =
      frequencyl
        [
          (2, ""); (3, " using deferred"); (2, " using immediate"); (1, " using recompute");
          (1, " using snapshot"); (1, " using blakeley"); (1, " using clustered");
          (1, " using nosuch");
        ]
    in
    let ty = oneofl [ "int"; "float"; "string"; "bool"; "blob" ] in
    let coldef =
      oneof [ map2 (Printf.sprintf "%s %s") column ty; map2 (Printf.sprintf "%s %s key") column ty ]
    in
    frequency
      [
        ( 1,
          map3
            (fun t cols size -> Printf.sprintf "create table %s (%s) size %s" t cols size)
            table
            (map (String.concat ", ") (list_size (int_range 0 4) coldef))
            (oneofl [ "100"; "0"; "1.5" ]) );
        ( 3,
          map3
            (fun v (cols, t) (p, c, u) ->
              Printf.sprintf "define view %s (%s) from %s where %s cluster on %s%s" v cols t p c u)
            view (pair columns table) (triple pred column strategy) );
        ( 1,
          map3
            (fun v (c1, c2) (p, c, u) ->
              Printf.sprintf
                "define view %s (r.%s, s.%s) from r join s on r.id = s.id where %s cluster on %s%s"
                v c1 c2 p c u)
            view (pair column column) (triple pred column strategy) );
        ( 2,
          map3
            (fun v (f, c) (t, p, u) ->
              Printf.sprintf "define aggregate %s as %s(%s) from %s where %s%s" v f c t p u)
            view
            (pair (oneofl [ "sum"; "count"; "avg"; "min"; "nosuch" ]) column)
            (triple table pred strategy) );
        ( 4,
          map2
            (fun t vals -> Printf.sprintf "insert into %s values (%s)" t (String.concat ", " vals))
            table
            (oneof
               [
                 list_size (int_range 0 5) literal;
                 map (fun n -> [ n; "0.05"; "3"; "'y'" ]) (oneofl [ "3"; "4"; "5"; "6" ]);
               ]) );
        ( 3,
          map3
            (fun t (c, x) p -> Printf.sprintf "update %s set %s = %s where %s" t c x p)
            table (pair column literal) pred );
        (2, map2 (Printf.sprintf "delete from %s where %s") table pred);
        (2, map (Printf.sprintf "select * from %s") view);
        (1, map3 (Printf.sprintf "select * from %s where %s between %s and 1") view column literal);
        (1, map (Printf.sprintf "select value from %s") view);
      ])

(* Most sequences start from two tables holding a few rows, so the
   definitions and updates after them get past name resolution. *)
let setup_statements =
  [
    "create table r (id int key, pval float, amount float, note string) size 100";
    "create table s (id int key, pval float, amount float, note string) size 50";
    "insert into r values (1, 0.05, 10, 'a')";
    "insert into r values (2, 0.5, 20, 'b')";
    "insert into s values (1, 0.05, 30, 'c')";
  ]

let prop_db_exec_never_raises =
  QCheck.Test.make ~name:"Db.exec answers Ok or Error; an Error changes no name" ~count:200
    (QCheck.make
       ~print:(String.concat ";\n")
       QCheck.Gen.(
         map2
           (fun setup statements -> if setup then setup_statements @ statements else statements)
           (frequencyl [ (4, true); (1, false) ])
           (list_size (int_range 1 25) statement_gen)))
    (fun statements ->
      let db = Db.create () in
      List.for_all
        (fun statement ->
          let names () = (Db.table_names db, Db.view_names db) in
          let before = names () in
          match Db.exec db statement with
          | Ok _ -> true
          | Error _ -> names () = before)
        statements)

let suites =
  [
    ( "lang.lexer",
      [
        Alcotest.test_case "basics" `Quick test_lexer_basics;
        Alcotest.test_case "errors" `Quick test_lexer_errors;
      ] );
    ( "lang.parser",
      [
        Alcotest.test_case "create table" `Quick test_parse_create_table;
        Alcotest.test_case "define view" `Quick test_parse_define_view;
        Alcotest.test_case "define join view" `Quick test_parse_define_join_view;
        Alcotest.test_case "define aggregate" `Quick test_parse_define_aggregate;
        Alcotest.test_case "dml" `Quick test_parse_dml;
        Alcotest.test_case "select" `Quick test_parse_select;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "predicates" `Quick test_parse_predicates;
      ] );
    ( "lang.resolve",
      [
        Alcotest.test_case "single schema" `Quick test_resolution;
        Alcotest.test_case "two schemas" `Quick test_resolution_two_schemas;
      ] );
    ( "lang.fuzz",
      List.map QCheck_alcotest.to_alcotest
        (prop_parse_never_raises @ [ prop_db_exec_never_raises ]) );
  ]
