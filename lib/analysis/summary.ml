(* The interprocedural layer (DESIGN §13): per-function summaries propagated
   to a fixpoint over the whole lint run, then consumed by the borrow rules.

   A summary records, per parameter, four monotone booleans — may be a
   cursor, may escape (be stored somewhere that outlives the call), may be
   returned (aliased into the result), may be mutated — plus one per-function
   fact: the call chain, if any, from this function to a storage mutator
   (Flat writes, Heap_file insert/delete, Buffer_pool traffic).  All facts
   only ever go from "no" to "yes", so the fixpoint terminates; the pass
   cap is a belt-and-braces bound, not a correctness requirement.

   The analysis itself is an abstract interpreter over "exposure": the set
   of tracked bindings (parameters of the function or lambda under analysis)
   that may be *part of the value* of an expression, threaded through
   let-aliases, tuples/constructors/records, branches and closure captures.
   A sink (ref/field/container store, or a call whose summary says the
   matching parameter escapes) fired on a non-empty exposure records an
   escape — and reports it, when the exposed binding is a borrowed cursor
   and a report callback is installed (rule D8).

   Soundness caveats (deliberate, documented in DESIGN §13): the analysis is
   syntactic and per-name — no types, no heap model.  Known false-negative
   shapes: a cursor smuggled through a *function-typed parameter* (the
   callee is unknown at the definition site and assumed transient), through
   an exception payload, or through a locally [let]-bound lambda invoked
   under a different name.  Known over-approximations: any exposed argument
   to a qualified function outside the lint run's universe counts as an
   escape unless the module is on the safe-stdlib list. *)

open Parsetree
module Smap = Map.Make (String)
module Sset = Callgraph.Sset

(* ------------------------------------------------------------------ *)
(* Summaries and the environment                                       *)
(* ------------------------------------------------------------------ *)

type info = {
  i_key : string;  (** "Module.fn" *)
  i_file : string;
  i_line : int;
  i_labels : string option array;  (** argument labels, [None] = positional *)
  i_names : string option array;  (** parameter names (simple patterns) *)
  mutable i_cursor : bool array;  (** parameter may be a borrowed cursor *)
  mutable i_escape : string option array;  (** why the parameter may escape *)
  mutable i_returns : bool array;  (** parameter may alias the result *)
  mutable i_mutates : bool array;  (** parameter may be mutated *)
  mutable i_storage : string list option;
      (** call chain from this function to a storage mutator *)
}

type env = {
  fns : (string, info) Hashtbl.t;
  universe : Sset.t;
  mutable_globals : (string, Sset.t) Hashtbl.t;
      (** per module: toplevel names bound to a mutable constructor *)
}

let universe env = env.universe
let find env key = Hashtbl.find_opt env.fns key

let is_mutable_global env ~modname ~name =
  match Hashtbl.find_opt env.mutable_globals modname with
  | Some names -> Sset.mem name names
  | None -> false

(* ------------------------------------------------------------------ *)
(* Built-in models                                                     *)
(* ------------------------------------------------------------------ *)

(* The last two path components, with local module aliases resolved, give
   the canonical "Module.fn" name used by every built-in table — matching
   both [Btree.insert] and [Vmat_index.Btree.insert]. *)
let canon (scope : Callgraph.scope) path =
  match List.rev (String.split_on_char '.' path) with
  | f :: m :: _ ->
      let m =
        match List.assoc_opt m scope.Callgraph.aliases with
        | Some target -> target
        | None -> m
      in
      Some (m, f)
  | _ -> None

(* Storage mutators: the D9 roots.  Anything that resolves to one of these
   transitively (through summaries) invalidates live cursors over the
   scanned storage — Buffer_pool traffic counts because a fetch may evict
   (modeled; pages are accounting entries, but the model is the contract). *)
let storage_roots =
  [
    "Flat.insert_at";
    "Flat.replace_at";
    "Flat.remove_at";
    "Flat.compact";
    "Heap_file.insert";
    "Heap_file.delete";
    "Buffer_pool.read";
    "Buffer_pool.write";
    "Buffer_pool.invalidate";
    "Buffer_pool.discard";
  ]

(* The cursor-yielding iterators: a lambda passed directly to one of these
   receives a borrowed Tuple_view.t as its first parameter.  (Btree.range,
   Materialized.range and Materialized.answer hand out *boxed* rows and are
   deliberately absent.) *)
let cursor_iterators =
  [
    "Btree.range_views";
    "Btree.range_rows";
    "Btree.find_views";
    "Btree.iter_views_unmetered";
    "Hash_file.scan_views";
    "Hash_file.lookup_views";
    "Hash_file.iter_views_unmetered";
    "Heap_file.scan_views";
    "Heap_file.iter_views_unmetered";
  ]

(* The cursor collectors: iterators that keep each callback result in the
   list they return, so a row function's result must not be, or capture,
   its cursor (D8). *)
let cursor_collectors = [ "Btree.range_rows" ]

(* Stdlib calls that store an argument into a longer-lived container. *)
let store_models =
  [
    ("Hashtbl.add", "a hash table");
    ("Hashtbl.replace", "a hash table");
    ("Queue.add", "a queue");
    ("Queue.push", "a queue");
    ("Queue.transfer", "a queue");
    ("Stack.push", "a stack");
    ("Array.set", "an array");
    ("Array.unsafe_set", "an array");
    ("Array.fill", "an array");
    ("Array.blit", "an array");
    ("Atomic.make", "an atomic");
    ("Atomic.set", "an atomic");
    ("Atomic.exchange", "an atomic");
    ("Atomic.compare_and_set", "an atomic");
  ]

(* Stdlib calls that mutate their receiver without storing a new value. *)
let mutator_models =
  [
    "Hashtbl.remove";
    "Hashtbl.reset";
    "Hashtbl.clear";
    "Hashtbl.filter_map_inplace";
    "Queue.pop";
    "Queue.take";
    "Queue.clear";
    "Stack.pop";
    "Stack.clear";
    "Array.sort";
    "Array.stable_sort";
    "Buffer.clear";
    "Buffer.reset";
  ]

let raise_models = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit" ]

(* Stdlib modules assumed transient: they may hold an argument only for the
   duration of the call (higher-order iteration) or inside the value they
   return (map/filter — covered because exposure propagates to the result).
   Member models above take precedence over this module-level default. *)
let safe_modules =
  [
    "List";
    "ListLabels";
    "Array";
    "ArrayLabels";
    "Option";
    "Result";
    "Either";
    "Fun";
    "Seq";
    "String";
    "StringLabels";
    "Bytes";
    "Char";
    "Int";
    "Int32";
    "Int64";
    "Nativeint";
    "Float";
    "Bool";
    "Printf";
    "Format";
    "Sys";
    "Filename";
    "Hashtbl";
    "Queue";
    "Stack";
    "Atomic";
    "Buffer";
    "Lazy";
    "Stdlib";
    "Domain";
    "Gc";
    "Printexc";
    "Lexing";
    "Map";
    "Set";
  ]

(* Constructors whose result is mutable storage (D10's binding evidence). *)
let mutable_constructors =
  [ "ref"; "Hashtbl.create"; "Queue.create"; "Stack.create"; "Buffer.create" ]

(* Constructors whose result is on the sanctioned-capture list (D10). *)
let sanctioned_constructors =
  [
    "Atomic.make";
    "Mvcc.create";
    "Mvcc.pin";
    "Flight.create";
    "Sketch.create";
    "Wallclock.start";
  ]

(* Modules whose values are safe to touch from a spawned domain (D10). *)
let sanctioned_modules = [ "Mvcc"; "Flight"; "Sketch"; "Wallclock"; "Atomic" ]

(* ------------------------------------------------------------------ *)
(* Exposure tokens                                                     *)
(* ------------------------------------------------------------------ *)

type tok = {
  k_id : int;
  k_desc : string;  (** source name, for messages *)
  k_cursor : bool;  (** tracked as a borrowed cursor *)
  k_param : int option;  (** index into the summarized function's params *)
}

let add_tok t ex = if List.exists (fun u -> u.k_id = t.k_id) ex then ex else t :: ex
let union a b = List.fold_left (fun acc t -> add_tok t acc) a b
let unions exs = List.fold_left union [] exs

type acc = {
  a_env : env;
  a_scope : Callgraph.scope;
  a_report : loc:Location.t -> string -> unit;  (** D8 escape reporter *)
  mutable a_escape : (int * string) list;
  mutable a_mutates : int list;
  mutable a_cursor : int list;
  mutable a_storage : string list option;
  mutable a_next : int;
}

let fresh_id acc =
  acc.a_next <- acc.a_next + 1;
  acc.a_next

let record_escape acc i why =
  if not (List.mem_assoc i acc.a_escape) then acc.a_escape <- (i, why) :: acc.a_escape

let record_mutates acc i =
  if not (List.mem i acc.a_mutates) then acc.a_mutates <- i :: acc.a_mutates

let record_cursor acc i =
  if not (List.mem i acc.a_cursor) then acc.a_cursor <- i :: acc.a_cursor

let record_storage acc chain =
  match acc.a_storage with Some _ -> () | None -> acc.a_storage <- Some chain

(* A sink: the exposed bindings may be stored somewhere that outlives the
   call.  Parameters feed the summary; borrowed cursors are reported. *)
let sink acc ~loc ex why =
  List.iter
    (fun t ->
      (match t.k_param with Some i -> record_escape acc i why | None -> ());
      if t.k_cursor then
        acc.a_report ~loc
          (Printf.sprintf
             "borrowed cursor [%s] %s: the view is only valid until the \
              underlying page is next mutated — box it at the boundary \
              (Tuple_view.materialize / project) or restructure so nothing \
              outlives the callback"
             t.k_desc why))
    ex

let lookup bindings name =
  match Smap.find_opt name bindings with Some toks -> toks | None -> []

(* A *direct* identifier (through type constraints only) — cursor marking
   must not read through field projections the way mutation rooting does:
   [Tuple_view.project t.schema ...] says nothing about [t] itself. *)
let rec direct_ident expr =
  match expr.pexp_desc with
  | Pexp_ident { txt = Longident.Lident name; _ } -> Some name
  | Pexp_constraint (inner, _) -> direct_ident inner
  | _ -> None

(* Mark the tracked roots of [expr] (through field projections) as mutated. *)
let mutate acc bindings expr =
  match Ast_util.root_ident expr with
  | Some (`Local name) ->
      List.iter
        (fun t -> match t.k_param with Some i -> record_mutates acc i | None -> ())
        (lookup bindings name)
  | _ -> ()

let mark_cursor acc bindings expr =
  match direct_ident expr with
  | Some name ->
      List.iter
        (fun t -> match t.k_param with Some i -> record_cursor acc i | None -> ())
        (lookup bindings name)
  | None -> ()

(* Every tracked binding occurring (as a value) anywhere under [expr] — the
   conservative exposure of constructs the interpreter doesn't enumerate,
   and of closure bodies (captures). *)
let occurs bindings expr =
  let out = ref [] in
  let iterator =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun iter e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident n; _ } ->
              out := union !out (lookup bindings n)
          | _ -> ());
          Ast_iterator.default_iterator.expr iter e);
    }
  in
  iterator.expr iterator expr;
  !out

let bind_pattern bindings pat ex =
  List.fold_left (fun b n -> Smap.add n ex b) bindings (Ast_util.pattern_vars pat)

let pat_var (p : Lambda.param) =
  let rec var pat =
    match pat.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (inner, _) -> var inner
    | Ppat_alias (_, { txt; _ }) -> Some txt
    | _ -> None
  in
  var p.Lambda.l_pat

let label_of (p : Lambda.param) =
  match p.Lambda.l_label with
  | Asttypes.Nolabel -> None
  | Asttypes.Labelled l | Asttypes.Optional l -> Some l

(* Match call-site arguments to summarized parameters: positional arguments
   fill unlabelled parameters in order, labelled arguments match by name.
   [full] is false for a partial application (some positional parameter
   unfilled) — the result is then a closure holding the given arguments. *)
let match_args labels args =
  let n = Array.length labels in
  let used = Array.make n false in
  let matched = ref [] in
  let next_pos = ref 0 in
  List.iter
    (fun (label, arg) ->
      let name =
        match label with
        | Asttypes.Nolabel -> None
        | Asttypes.Labelled l | Asttypes.Optional l -> Some l
      in
      let rec seek i =
        if i >= n then None
        else if (not used.(i)) && labels.(i) = name then Some i
        else seek (i + 1)
      in
      let start = match name with None -> !next_pos | Some _ -> 0 in
      match seek start with
      | Some i ->
          used.(i) <- true;
          if name = None then next_pos := i + 1;
          matched := (i, arg) :: !matched
      | None -> ())
    args;
  let full = ref true in
  Array.iteri (fun i l -> if l = None && not used.(i) then full := false) labels;
  (List.rev !matched, !full)

let is_member name2 table =
  List.exists (fun m -> m = name2) table

(* The view-positioned arguments of a [Tuple_view.f] application: receiver
   first, except [on] (builds a view *from a page*, no view argument) and
   [compare_cols] (two views, at positions 0 and 2). *)
let view_args f unlabelled =
  match (f, unlabelled) with
  | "on", _ -> []
  | "compare_cols", a :: _ :: b :: _ -> [ a; b ]
  | _, a :: _ -> [ a ]
  | _, [] -> []

(* Does [body] use [name] as a cursor: a Tuple_view accessor applied to it,
   or [name] passed into a summarized callee's cursor-positioned parameter? *)
let cursor_scan acc name body =
  Ast_util.expr_contains
    (fun e ->
      match e.pexp_desc with
      | Pexp_apply (head, args) -> (
          match Ast_util.applied_path head with
          | None -> false
          | Some path -> (
              let roots_at_name arg =
                match direct_ident arg with Some n -> n = name | None -> false
              in
              match canon acc.a_scope path with
              | Some ("Tuple_view", f) ->
                  List.exists roots_at_name (view_args f (Ast_util.unlabelled args))
              | _ -> (
                  match Callgraph.resolve acc.a_scope path with
                  | `Fn key -> (
                      match find acc.a_env key with
                      | Some info ->
                          let matched, _ = match_args info.i_labels args in
                          List.exists
                            (fun (i, arg) ->
                              info.i_cursor.(i) && roots_at_name arg)
                            matched
                      | None -> false)
                  | _ -> false)))
      | _ -> false)
    body

(* ------------------------------------------------------------------ *)
(* The interpreter                                                     *)
(* ------------------------------------------------------------------ *)

let rec eval acc bindings expr =
  match Lambda.destructure expr with
  | Lambda.Lambda (params, body) ->
      eval_lambda acc bindings ~cursor_hint:false params body
  | Lambda.Cases cases ->
      (* [function ...] lambda: anonymous scrutinee, bodies analyzed with
         case variables untracked; value exposure = captures. *)
      List.iter
        (fun c ->
          let b = bind_pattern bindings c.pc_lhs [] in
          Option.iter (fun g -> ignore (eval acc b g)) c.pc_guard;
          ignore (eval acc b c.pc_rhs))
        cases;
      occurs bindings expr
  | Lambda.Not_a_lambda -> (
      match expr.pexp_desc with
      | Pexp_ident { txt = Longident.Lident n; _ } -> lookup bindings n
      | Pexp_ident _ -> []
      | Pexp_constant _ -> []
      | Pexp_let (_, vbs, body) ->
          let b' =
            List.fold_left
              (fun b vb ->
                let ex = eval acc bindings vb.pvb_expr in
                bind_pattern b vb.pvb_pat ex)
              bindings vbs
          in
          eval acc b' body
      | Pexp_apply (head, args) -> eval_apply acc bindings expr head args
      | Pexp_sequence (a, b) ->
          ignore (eval acc bindings a);
          eval acc bindings b
      | Pexp_tuple es | Pexp_array es -> unions (List.map (eval acc bindings) es)
      | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> (
          match arg with Some e -> eval acc bindings e | None -> [])
      | Pexp_record (fields, base) ->
          let ex = unions (List.map (fun (_, v) -> eval acc bindings v) fields) in
          let bx = match base with Some b -> eval acc bindings b | None -> [] in
          union ex bx
      | Pexp_field (e, _) -> eval acc bindings e
      | Pexp_setfield (lhs, _, rhs) ->
          let ex = eval acc bindings rhs in
          sink acc ~loc:expr.pexp_loc ex "stored into a mutable field";
          mutate acc bindings lhs;
          ignore (eval acc bindings lhs);
          []
      | Pexp_ifthenelse (c, t, e) ->
          ignore (eval acc bindings c);
          let tx = eval acc bindings t in
          let ex = match e with Some e -> eval acc bindings e | None -> [] in
          union tx ex
      | Pexp_match (scrutinee, cases) | Pexp_try (scrutinee, cases) ->
          let sx = eval acc bindings scrutinee in
          unions
            (List.map
               (fun c ->
                 let b = bind_pattern bindings c.pc_lhs sx in
                 Option.iter (fun g -> ignore (eval acc b g)) c.pc_guard;
                 eval acc b c.pc_rhs)
               cases)
      | Pexp_constraint (e, _) -> eval acc bindings e
      | Pexp_coerce (e, _, _) -> eval acc bindings e
      | Pexp_open (_, e) | Pexp_letmodule (_, _, e) | Pexp_letexception (_, e) ->
          eval acc bindings e
      | Pexp_while (c, body) ->
          ignore (eval acc bindings c);
          ignore (eval acc bindings body);
          []
      | Pexp_for (pat, lo, hi, _, body) ->
          ignore (eval acc bindings lo);
          ignore (eval acc bindings hi);
          ignore (eval acc (bind_pattern bindings pat []) body);
          []
      | Pexp_assert e ->
          ignore (eval acc bindings e);
          []
      | Pexp_lazy e -> eval acc bindings e
      | _ ->
          (* Constructs the interpreter doesn't enumerate: conservative
             exposure (any tracked occurrence), no sinks. *)
          occurs bindings expr)

and eval_lambda ?kept acc bindings ~cursor_hint params body =
  (* A lambda: analyze the body with its own parameters tracked — a
     parameter is tracked as a cursor when this lambda is the direct
     callback of a cursor iterator (hint, first parameter) or when the body
     itself uses it as a cursor.  [kept] names the cursor collector that
     keeps the body's result: a cursor in that result escapes. *)
  let b' =
    List.fold_left
      (fun (b, idx) p ->
        match pat_var p with
        | Some n ->
            let cursor = (cursor_hint && idx = 0) || cursor_scan acc n body in
            let t =
              { k_id = fresh_id acc; k_desc = n; k_cursor = cursor; k_param = None }
            in
            (Smap.add n [ t ] b, idx + 1)
        | None -> (bind_pattern b p.Lambda.l_pat [], idx + 1))
      (bindings, 0) params
    |> fst
  in
  let result = eval acc b' body in
  Option.iter
    (fun collector ->
      (* Applied to its cursor alone, a curried row function returns a
         closure over every binding its body uses. *)
      let kept_value = match params with [ _ ] -> result | _ -> occurs b' body in
      sink acc ~loc:body.pexp_loc
        (List.filter (fun t -> t.k_cursor) kept_value)
        (Printf.sprintf "is returned by a row function whose results %s keeps" collector))
    kept;
  (* The lambda's value exposure: the tracked bindings it captures. *)
  let shadowless =
    List.fold_left
      (fun b p -> bind_pattern b p.Lambda.l_pat [])
      bindings params
  in
  occurs shadowless body

and eval_apply acc bindings expr head args =
  let loc = expr.pexp_loc in
  match Ast_util.applied_path head with
  | None ->
      (* Applying a non-identifier (field projection, immediate lambda):
         evaluate everything and propagate — the callee is opaque but local,
         so storing is assumed to happen at a visible sink instead. *)
      let hx = eval acc bindings head in
      let ax = List.map (fun (_, a) -> eval acc bindings a) args in
      unions (hx :: ax)
  | Some path -> apply_path acc bindings ~loc path args

and apply_path acc bindings ~loc path args =
  let eval_args () = List.map (fun (_, a) -> eval acc bindings a) args in
  match (path, args) with
  | "@@", (_, f) :: rest when not (List.is_empty rest) ->
      (* f @@ x — re-associate so iterator callbacks behind @@ still anchor *)
      re_apply acc bindings ~loc f rest
  | "|>", [ x; (_, f) ] -> re_apply acc bindings ~loc f [ x ]
  | ":=", [ (_, lhs); (_, rhs) ] ->
      let ex = eval acc bindings rhs in
      sink acc ~loc ex "stored into a ref";
      mutate acc bindings lhs;
      ignore (eval acc bindings lhs);
      []
  | "ref", _ ->
      let ex = unions (eval_args ()) in
      sink acc ~loc ex "stored into a ref";
      []
  | ("incr" | "decr"), (_, arg) :: _ ->
      mutate acc bindings arg;
      []
  | "ignore", _ ->
      ignore (eval_args ());
      []
  | _ when List.mem path raise_models ->
      (* Exception payloads are not tracked (documented false negative). *)
      ignore (eval_args ());
      []
  | _ -> (
      match canon acc.a_scope path with
      | Some ("Tuple_view", f) ->
          (* The boxing/reading boundary: every accessor returns a fresh
             boxed value or a scalar; set/set_slot mutate the cursor. *)
          let views = view_args f (Ast_util.unlabelled args) in
          List.iter (fun a -> mark_cursor acc bindings a) views;
          if f = "set" || f = "set_slot" then
            List.iter (fun a -> mutate acc bindings a) views;
          ignore (eval_args ());
          []
      | Some (m, f) when is_member (m ^ "." ^ f) storage_roots ->
          record_storage acc [ m ^ "." ^ f ];
          (match Ast_util.unlabelled args with
          | receiver :: _ -> mutate acc bindings receiver
          | [] -> ());
          ignore (eval_args ());
          []
      | name2 -> (
          let member = match name2 with Some (m, f) -> m ^ "." ^ f | None -> path in
          match List.assoc_opt member store_models with
          | Some container ->
              (match Ast_util.unlabelled args with
              | receiver :: _ -> mutate acc bindings receiver
              | [] -> ());
              let ex = unions (eval_args ()) in
              sink acc ~loc ex (Printf.sprintf "stored into %s" container);
              []
          | None ->
              if is_member member mutator_models then begin
                (match Ast_util.unlabelled args with
                | receiver :: _ -> mutate acc bindings receiver
                | [] -> ());
                ignore (eval_args ());
                []
              end
              else
                let hint = is_member member cursor_iterators in
                let kept = if is_member member cursor_collectors then Some member else None in
                apply_resolved acc bindings ~loc ~hint ?kept path args))

(* Re-dispatch for @@ / |> with the real head. *)
and re_apply acc bindings ~loc f args =
  match Ast_util.applied_path f with
  | Some path -> apply_path acc bindings ~loc path args
  | None ->
      let hx = eval acc bindings f in
      let ax = List.map (fun (_, a) -> eval acc bindings a) args in
      unions (hx :: ax)

and apply_resolved acc bindings ~loc ~hint ?kept path args =
  (* Evaluate arguments — lambdas handed to a cursor iterator get their
     first parameter tracked as a borrowed cursor.  A named row function
     handed to a cursor collector must not return its cursor argument. *)
  let eval_arg a =
    match Lambda.destructure a with
    | Lambda.Lambda (params, body) when hint ->
        eval_lambda ?kept acc bindings ~cursor_hint:true params body
    | _ ->
        (match (kept, Ast_util.applied_path a) with
        | Some collector, Some fpath -> (
            match Callgraph.resolve acc.a_scope fpath with
            | `Fn key -> (
                match find acc.a_env key with
                | Some info when Array.length info.i_returns > 0 && info.i_returns.(0) ->
                    acc.a_report ~loc:a.pexp_loc
                      (Printf.sprintf
                         "row function %s returns its borrowed cursor, and %s keeps \
                          every result: box the row at the boundary \
                          (Tuple_view.materialize / counted_row) instead"
                         info.i_key collector)
                | _ -> ())
            | _ -> ())
        | _ -> ());
        eval acc bindings a
  in
  match Callgraph.resolve acc.a_scope path with
  | `Fn key -> (
      match find acc.a_env key with
      | None ->
          (* A toplevel value that is not a summarized function (a constant,
             a closure built by partial application): assumed transient. *)
          unions (List.map (fun (_, a) -> eval_arg a) args)
      | Some info ->
          let evaluated = List.map (fun (l, a) -> (l, a, eval_arg a)) args in
          let matched, full =
            match_args info.i_labels (List.map (fun (l, a, _) -> (l, a)) evaluated)
          in
          if not full then
            (* Partial application: the result closes over the arguments. *)
            unions (List.map (fun (_, _, ex) -> ex) evaluated)
          else begin
            (match info.i_storage with
            | Some chain -> record_storage acc (info.i_key :: chain)
            | None -> ());
            let result = ref [] in
            List.iter
              (fun (i, arg) ->
                let ex =
                  match
                    List.find_opt (fun (_, a, _) -> a == arg) evaluated
                  with
                  | Some (_, _, ex) -> ex
                  | None -> []
                in
                (match info.i_escape.(i) with
                | Some why when not (List.is_empty ex) ->
                    sink acc ~loc ex
                      (Printf.sprintf "passed to %s, whose parameter [%s] may \
                                       escape (%s)"
                         info.i_key
                         (match info.i_names.(i) with Some n -> n | None -> "_")
                         why)
                | _ -> ());
                if info.i_mutates.(i) then mutate acc bindings arg;
                if info.i_cursor.(i) then mark_cursor acc bindings arg;
                if info.i_returns.(i) then result := union !result ex)
              matched;
            !result
          end)
  | `Local ->
      (* Unqualified non-toplevel head: a parameter or local binding.
         Assumed transient (its definition site is checked on its own);
         exposure propagates through the result. *)
      unions (List.map (fun (_, a) -> eval_arg a) args)
  | `Unknown ->
      let exs = List.map (fun (_, a) -> eval_arg a) args in
      let modname =
        match canon acc.a_scope path with Some (m, _) -> m | None -> path
      in
      let is_module =
        String.length modname > 0 && modname.[0] >= 'A' && modname.[0] <= 'Z'
      in
      (* Operators ([+.], [@], ...) and lowercase heads reaching here are
         stdlib pervasives, not modules that could store anything. *)
      if (not is_module) || List.mem modname safe_modules then unions exs
      else begin
        (* No summary, not on the safe list: assume it may store. *)
        sink acc ~loc (unions exs)
          (Printf.sprintf "passed to %s, which has no summary in this lint \
                           run and may store its argument" path);
        []
      end

(* ------------------------------------------------------------------ *)
(* Per-function analysis and the fixpoint                              *)
(* ------------------------------------------------------------------ *)

let null_report ~loc:_ _ = ()

(* Analyze one summarized function: track its parameters (cursor flags from
   the current fixpoint state), evaluate the body, record which parameters
   reach the result. *)
let analyze ?(report = null_report) env scope (fn : Callgraph.fn) (info : info) =
  let acc =
    {
      a_env = env;
      a_scope = scope;
      a_report = report;
      a_escape = [];
      a_mutates = [];
      a_cursor = [];
      a_storage = None;
      a_next = 0;
    }
  in
  let bindings, _ =
    List.fold_left
      (fun (b, idx) p ->
        match pat_var p with
        | Some n ->
            let t =
              {
                k_id = fresh_id acc;
                k_desc = n;
                k_cursor = info.i_cursor.(idx);
                k_param = Some idx;
              }
            in
            (Smap.add n [ t ] b, idx + 1)
        | None -> (bind_pattern b p.Lambda.l_pat [], idx + 1))
      (Smap.empty, 0) fn.Callgraph.fn_params
  in
  let ret = eval acc bindings fn.Callgraph.fn_body in
  let returns =
    List.filter_map (fun t -> t.k_param) ret |> List.sort_uniq Int.compare
  in
  (acc, returns)

(* Analyze a bare toplevel expression (a non-function [let] or [let () =]):
   no parameters of its own, but lambdas inside still get checked. *)
let check_expr ?(report = null_report) env scope expr =
  let acc =
    {
      a_env = env;
      a_scope = scope;
      a_report = report;
      a_escape = [];
      a_mutates = [];
      a_cursor = [];
      a_storage = None;
      a_next = 0;
    }
  in
  ignore (eval acc Smap.empty expr)

let merge info (acc, returns) =
  let changed = ref false in
  let set_bool arr i =
    if not arr.(i) then begin
      arr.(i) <- true;
      changed := true
    end
  in
  List.iter (fun i -> set_bool info.i_cursor i) acc.a_cursor;
  List.iter (fun i -> set_bool info.i_mutates i) acc.a_mutates;
  List.iter (fun i -> set_bool info.i_returns i) returns;
  List.iter
    (fun (i, why) ->
      match info.i_escape.(i) with
      | Some _ -> ()
      | None ->
          info.i_escape.(i) <- Some why;
          changed := true)
    acc.a_escape;
  (match (info.i_storage, acc.a_storage) with
  | None, Some chain ->
      info.i_storage <- Some chain;
      changed := true
  | _ -> ());
  !changed

let fresh_info ~file (fn : Callgraph.fn) =
  let n = List.length fn.Callgraph.fn_params in
  {
    i_key = fn.Callgraph.fn_key;
    i_file = file;
    i_line = fn.Callgraph.fn_line;
    i_labels = Array.of_list (List.map label_of fn.Callgraph.fn_params);
    i_names = Array.of_list (List.map pat_var fn.Callgraph.fn_params);
    i_cursor = Array.make n false;
    i_escape = Array.make n None;
    i_returns = Array.make n false;
    i_mutates = Array.make n false;
    i_storage = None;
  }

(* Toplevel names bound to a mutable constructor (module-level D10 arm). *)
let mutable_toplevel structure =
  List.filter_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
          Some
            (List.filter_map
               (fun vb ->
                 match vb.pvb_pat.ppat_desc with
                 | Ppat_var { txt; _ } -> (
                     match vb.pvb_expr.pexp_desc with
                     | Pexp_apply (head, _) -> (
                         match Ast_util.applied_path head with
                         | Some p when List.mem p mutable_constructors -> Some txt
                         | _ -> None)
                     | _ -> None)
                 | _ -> None)
               bindings)
      | _ -> None)
    structure
  |> List.concat

(* Build the environment for one lint run: collect every summarized function
   of every parsed file, then iterate to a fixpoint.  The pass cap is a
   backstop; every fact is monotone so convergence is guaranteed. *)
let build parsed =
  let universe =
    Sset.of_list (List.map (fun (f, _) -> Callgraph.module_of_file f) parsed)
  in
  let env =
    {
      fns = Hashtbl.create 256;
      universe;
      mutable_globals = Hashtbl.create 16;
    }
  in
  let units =
    List.map
      (fun (file, structure) ->
        let modname = Callgraph.module_of_file file in
        let scope = Callgraph.scope ~file ~universe structure in
        let fns = Callgraph.functions_of ~modname structure in
        List.iter
          (fun fn ->
            Hashtbl.replace env.fns fn.Callgraph.fn_key (fresh_info ~file fn))
          fns;
        Hashtbl.replace env.mutable_globals modname
          (Sset.of_list (mutable_toplevel structure));
        (scope, fns))
      parsed
  in
  let changed = ref true in
  let passes = ref 0 in
  while !changed && !passes < 40 do
    changed := false;
    incr passes;
    List.iter
      (fun (scope, fns) ->
        List.iter
          (fun fn ->
            match Hashtbl.find_opt env.fns fn.Callgraph.fn_key with
            | Some info ->
                if merge info (analyze env scope fn info) then changed := true
            | None -> ())
          fns)
      units
  done;
  env

(* An environment for a single already-parsed structure (the golden-fixture
   path): the fixture's own helpers resolve interprocedurally. *)
let build_one ~file structure = build [ (file, structure) ]

(* ------------------------------------------------------------------ *)
(* Debug dump (--summaries-out)                                        *)
(* ------------------------------------------------------------------ *)

let dump env =
  let buf = Buffer.create 4096 in
  let entries =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) env.fns [])
  in
  List.iter
    (fun (key, info) ->
      let flags arr =
        Array.to_list arr
        |> List.mapi (fun i b -> (i, b))
        |> List.filter_map (fun (i, b) ->
               if b then
                 Some (match info.i_names.(i) with Some n -> n | None -> string_of_int i)
               else None)
        |> String.concat ","
      in
      let escapes =
        Array.to_list info.i_escape
        |> List.mapi (fun i e -> (i, e))
        |> List.filter_map (fun (i, e) ->
               match e with
               | Some why ->
                   Some
                     (Printf.sprintf "%s:%s"
                        (match info.i_names.(i) with
                        | Some n -> n
                        | None -> string_of_int i)
                        why)
               | None -> None)
        |> String.concat "; "
      in
      Buffer.add_string buf
        (Printf.sprintf
           "%s (%s:%d)\n  cursor=[%s] returns=[%s] mutates=[%s]\n  escapes=[%s]\n  storage=%s\n"
           key info.i_file info.i_line (flags info.i_cursor)
           (flags info.i_returns) (flags info.i_mutates) escapes
           (match info.i_storage with
           | Some chain -> String.concat " -> " chain
           | None -> "-")))
    entries;
  Buffer.contents buf
