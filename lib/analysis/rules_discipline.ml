(* Discipline rules D4-D6: comparator hygiene, ctx-discipline, and
   registry-domain discipline. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* D4: polymorphic comparison where monomorphic comparators exist       *)
(* ------------------------------------------------------------------ *)

(* Structural compare on Tuple.t/Value.t is both a representation trap (a
   future change of Value.t — say interning strings — silently reorders
   everything) and slower than the dedicated comparators.  Three syntactic
   cues, each a warning:
     1. a bare [compare] passed as a function (to List.sort etc.);
     2. [= []] / [<> []] — use List.is_empty or a pattern match;
     3. a polymorphic comparison whose operand syntactically produces a
        Tuple.t or Value.t (Tuple.* application or Value.* constructor). *)

let poly_binops = [ "="; "<>" ]
let poly_functions = [ "compare"; "Stdlib.compare"; "List.mem"; "List.assoc" ]

let tuple_producers =
  [
    "Tuple.get";
    "Tuple.project";
    "Tuple.make";
    "Tuple.with_tid";
    "Tuple.set";
    "Tuple.concat";
  ]

let is_nil expr =
  match expr.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident "[]"; _ }, None) -> true
  | _ -> false

let rec produces_tuple_or_value expr =
  match expr.pexp_desc with
  | Pexp_apply (f, _) -> (
      match Rule.applied_path f with
      | Some path -> List.mem path tuple_producers
      | None -> false)
  | Pexp_construct ({ txt = Longident.Ldot (Longident.Lident "Value", _); _ }, _) ->
      true
  | Pexp_constraint (inner, _) -> produces_tuple_or_value inner
  | _ -> false

let d4 =
  {
    Rule.id = "D4";
    doc =
      "polymorphic compare/=/List.mem on values with monomorphic comparators \
       (Tuple.equal, Value.compare, List.is_empty)";
    example = "let sorted xs = List.sort compare xs\nlet empty xs = xs = []";
    fix =
      "let sorted xs = List.sort Value.compare xs\n\
       let empty xs = List.is_empty xs";
    check =
      (fun ctx structure ->
        let file_defines_compare =
          List.mem "compare" (Rule.toplevel_value_names structure)
        in
        let report loc message =
          ctx.Rule.report ~severity:Finding.Warning ~loc message
        in
        let check_apply e f args =
          match Rule.applied_path f with
          | Some op when List.mem op poly_binops -> (
              match Rule.unlabelled args with
              | [ a; b ] ->
                  if is_nil a || is_nil b then
                    report e.pexp_loc
                      (Printf.sprintf
                         "[%s []] is a polymorphic comparison: use \
                          List.is_empty or match on the list"
                         op)
                  else if produces_tuple_or_value a || produces_tuple_or_value b
                  then
                    report e.pexp_loc
                      (Printf.sprintf
                         "polymorphic %s on a Tuple.t/Value.t operand: use \
                          Tuple.equal / Value.equal (representation-stable \
                          and cheaper)"
                         op)
              | _ -> ())
          | Some fn when List.mem fn poly_functions -> (
              match List.find_opt produces_tuple_or_value (Rule.unlabelled args) with
              | Some _ ->
                  report e.pexp_loc
                    (Printf.sprintf
                       "%s uses polymorphic equality on a Tuple.t/Value.t \
                        operand: use the monomorphic comparator"
                       fn)
              | None -> ())
          | _ -> ()
        in
        let visit e =
          match e.pexp_desc with
          | Pexp_apply (f, args) -> check_apply e f args
          | Pexp_ident { txt = Longident.Lident "compare"; _ }
            when not file_defines_compare ->
              report e.pexp_loc
                "bare polymorphic [compare]: pass a monomorphic comparator \
                 (Value.compare, Int.compare, String.compare, ...)"
          | Pexp_ident { txt; _ }
            when Rule.path_of_longident txt = "Stdlib.compare" ->
              report e.pexp_loc
                "Stdlib.compare is polymorphic: pass a monomorphic comparator"
          | _ -> ()
        in
        (* A [compare] that is the *head* of an application with operands we
           can't type is still reported (cue 1) — unless this file defines
           its own compare (a Map/Set functor argument idiom). *)
        let iterator =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun iter e ->
                visit e;
                Ast_iterator.default_iterator.expr iter e);
          }
        in
        iterator.structure iterator structure);
  }

(* ------------------------------------------------------------------ *)
(* D5: ctx-discipline for meter access                                  *)
(* ------------------------------------------------------------------ *)

(* Every charge must flow through a meter the caller received — a Ctx.t, an
   env struct holding one, or a function parameter — never a module-level
   binding.  A meter reachable without being passed is exactly the ambient
   state PR 3 eliminated: it couples engines that must be isolated.  The
   heuristic: the meter operand's root identifier (through field projections
   and receiver-style applications) must not be a toplevel [let] of the same
   file, nor a qualified path into another module. *)

let metered_calls =
  [
    "Cost_meter.charge_read";
    "Cost_meter.charge_write";
    "Cost_meter.charge_predicate_test";
    "Cost_meter.charge_set_overhead";
    "Cost_meter.with_category";
    "Ctx.meter";
  ]

let d5 =
  {
    Rule.id = "D5";
    doc =
      "meter/ctx discipline: Cost_meter charges must use a meter passed in \
       (ctx or env), never a module-level binding";
    example =
      "let meter = Cost_meter.create ()\n\
       let read () = Cost_meter.charge_read meter";
    fix = "let read ctx = Cost_meter.charge_read (Ctx.meter ctx)";
    check =
      (fun ctx structure ->
        let toplevel = Rule.toplevel_value_names structure in
        let visit e =
          match e.pexp_desc with
          | Pexp_apply (f, args) -> (
              match Rule.applied_path f with
              | Some path when List.mem path metered_calls -> (
                  match Rule.unlabelled args with
                  | receiver :: _ -> (
                      match Rule.root_ident receiver with
                      | Some (`Local name) when List.mem name toplevel ->
                          ctx.Rule.report ~severity:Finding.Error ~loc:e.pexp_loc
                            (Printf.sprintf
                               "%s reaches the meter through module-level \
                                binding [%s]: take a Ctx.t (or env) parameter \
                                instead, so engines stay isolated and \
                                re-entrant"
                               path name)
                      | Some (`Qualified qpath) ->
                          ctx.Rule.report ~severity:Finding.Error ~loc:e.pexp_loc
                            (Printf.sprintf
                               "%s reaches the meter through qualified path \
                                [%s]: meters must be passed in via Ctx.t, \
                                never reached ambiently"
                               path qpath)
                      | _ -> ())
                  | [] -> ())
              | _ -> ())
          | _ -> ()
        in
        let iterator =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun iter e ->
                visit e;
                Ast_iterator.default_iterator.expr iter e);
          }
        in
        iterator.structure iterator structure);
  }

(* ------------------------------------------------------------------ *)
(* D6: metrics registry is owner-domain-only                            *)
(* ------------------------------------------------------------------ *)

(* The metric registry (and the trace log behind it) is plain mutable state
   with a single-domain ownership contract (DESIGN §11): only the domain
   that owns the recorder may mutate it, and worker domains report back
   through their private flight rings / sketches, merged post-join.  A
   registry or trace mutator syntactically inside a [Domain.spawn] closure
   is a data race in the making — the spawned domain runs concurrently with
   the owner.  Flight.append / Sketch.observe inside a spawn are exactly
   the sanctioned alternative and are never flagged. *)

let registry_mutators =
  [
    "Metrics.inc";
    "Metrics.reset_counter";
    "Metrics.set";
    "Metrics.observe";
    "Recorder.inc";
    "Recorder.set_gauge";
    "Recorder.observe";
    "Recorder.span";
    "Recorder.instant";
    "Recorder.trace_counter";
    "Recorder.set_thread";
    "Recorder.set_clock";
    "Trace.begin_span";
    "Trace.end_span";
    "Trace.instant";
    "Trace.counter";
    "Trace.set_thread";
  ]

(* Match both short paths (module alias convention) and fully qualified
   ones (Vmat_obs.Metrics.inc). *)
let is_registry_mutator path =
  List.exists
    (fun m -> path = m || String.ends_with ~suffix:("." ^ m) path)
    registry_mutators

(* The first registry-mutator application anywhere under [expr], if any. *)
let find_mutator expr =
  let found = ref None in
  let iterator =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun iter e ->
          (match e.pexp_desc with
          | Pexp_apply (f, _) -> (
              match Rule.applied_path f with
              | Some path when is_registry_mutator path ->
                  if !found = None then found := Some (path, e.pexp_loc)
              | _ -> ())
          | _ -> ());
          if !found = None then Ast_iterator.default_iterator.expr iter e);
    }
  in
  iterator.expr iterator expr;
  !found

let d6 =
  {
    Rule.id = "D6";
    doc =
      "registry-domain discipline: metrics/trace mutators must not appear \
       inside a Domain.spawn closure (report through flight rings/sketches, \
       merge post-join)";
    example = "let f m = Domain.spawn (fun () -> Metrics.inc m 1.)";
    fix =
      "let f ring = Domain.spawn (fun () -> Flight.append ring ev)\n\
       (* merge into the registry after Domain.join *)";
    check =
      (fun ctx structure ->
        let visit e =
          match e.pexp_desc with
          | Pexp_apply (f, args) when Rule.applied_path f = Some "Domain.spawn"
            -> (
              match Rule.unlabelled args with
              | closure :: _ -> (
                  match find_mutator closure with
                  | Some (path, loc) ->
                      ctx.Rule.report ~severity:Finding.Error ~loc
                        (Printf.sprintf
                           "%s inside a Domain.spawn closure mutates the \
                            owner domain's registry/trace concurrently: \
                            record into a domain-private Flight ring or \
                            Sketch and merge after the join"
                           path)
                  | None -> ())
              | [] -> ())
          | _ -> ()
        in
        let iterator =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun iter e ->
                visit e;
                Ast_iterator.default_iterator.expr iter e);
          }
        in
        iterator.structure iterator structure);
  }

(* ------------------------------------------------------------------ *)
(* D7: no per-row materialization inside scan/range/iter closures       *)
(* ------------------------------------------------------------------ *)

(* The flat-tuple refactor's contract (DESIGN §12): the closures handed to
   the cursor iterators run once per page-resident row, and boxing there
   (Tuple.make / Tuple.project / Array.map / Tuple_view.materialize) turns
   an allocation-free scan back into one allocation per row — the exact
   regression the cursor API exists to prevent.  Survivor boxing at a true
   API boundary (a probe into another structure, an aggregate insert) is
   sanctioned and carries a [.vmlint] allowlist entry with its
   justification.  Scoped to [lib/view] and [lib/relalg], the layers whose
   hot loops the contract covers; a warning, not an error, because the
   boundary is a judgment call.  [Strategy.scan_modified] is listed with
   the storage iterators: it is the query-modification scan every qmod
   engine shares, and its row callback runs once per examined row. *)

let scan_iterators =
  [
    "Btree.range_views";
    "Btree.find_views";
    "Btree.iter_views_unmetered";
    "Btree.range";
    "Hash_file.scan_views";
    "Hash_file.lookup_views";
    "Hash_file.iter_views_unmetered";
    "Heap_file.scan_views";
    "Heap_file.iter_views_unmetered";
    "Materialized.range";
    "Strategy.scan_modified";
  ]

let materializers =
  [ "Tuple.make"; "Tuple.project"; "Array.map"; "Tuple_view.materialize" ]

let is_scan_iterator path =
  List.exists
    (fun m -> path = m || String.ends_with ~suffix:("." ^ m) path)
    scan_iterators

let is_materializer path =
  List.exists
    (fun m -> path = m || String.ends_with ~suffix:("." ^ m) path)
    materializers

(* Every materializer application anywhere under [expr]. *)
let find_materializers expr =
  let found = ref [] in
  let iterator =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun iter e ->
          (match e.pexp_desc with
          | Pexp_apply (f, _) -> (
              match Rule.applied_path f with
              | Some path when is_materializer path ->
                  found := (path, e.pexp_loc) :: !found
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr iter e);
    }
  in
  iterator.expr iterator expr;
  List.rev !found

let d7 =
  {
    Rule.id = "D7";
    doc =
      "scan-loop hygiene (lib/view, lib/relalg): no Tuple.make / \
       Tuple.project / Array.map / Tuple_view.materialize inside a cursor \
       iterator's per-row closure; box survivors at API boundaries \
       (allowlisted) and evaluate everything else off the cells";
    example =
      "let all base out =\n\
      \  Btree.range_views base (fun v ->\n\
      \      out := Tuple_view.materialize v :: !out)";
    fix =
      "let survivors base ~compiled out =\n\
      \  Btree.range_views base (fun v ->\n\
      \      if Predicate.eval_view compiled v then\n\
      \        out := Tuple_view.materialize v :: !out)  (* boundary: allowlist *)";
    check =
      (fun ctx structure ->
        let in_scope =
          String.starts_with ~prefix:"lib/view" ctx.Rule.file
          || String.starts_with ~prefix:"lib/relalg" ctx.Rule.file
        in
        if in_scope then begin
          let visit e =
            match e.pexp_desc with
            | Pexp_apply (f, args) -> (
                match Rule.applied_path f with
                | Some head when is_scan_iterator head ->
                    List.iter
                      (fun arg ->
                        List.iter
                          (fun (path, loc) ->
                            ctx.Rule.report ~severity:Finding.Warning ~loc
                              (Printf.sprintf
                                 "%s inside a %s per-row closure boxes every \
                                  row of the scan: evaluate off the cursor's \
                                  cells (compare_col / get_* / eval_view) and \
                                  materialize only survivors at the API \
                                  boundary (allowlist the site if this is one)"
                                 path head))
                          (find_materializers arg))
                      (Rule.unlabelled args)
                | _ -> ())
            | _ -> ()
          in
          let iterator =
            {
              Ast_iterator.default_iterator with
              expr =
                (fun iter e ->
                  visit e;
                  Ast_iterator.default_iterator.expr iter e);
            }
          in
          iterator.structure iterator structure
        end);
  }

let all = [ d4; d5; d6; d7 ]
