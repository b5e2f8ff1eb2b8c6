open Vmat_storage

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type operand = Column of int | Const of Value.t

type t =
  | True
  | False
  | Cmp of comparison * operand * operand
  | Between of int * Value.t * Value.t
  | And of t * t
  | Or of t * t
  | Not of t

let compare_holds op c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let operand_value binding = function
  | Const v -> Some v
  | Column i -> binding i

let rec eval3 p binding =
  match p with
  | True -> Some true
  | False -> Some false
  | Cmp (op, a, b) -> (
      match (operand_value binding a, operand_value binding b) with
      | Some va, Some vb -> Some (compare_holds op (Value.compare va vb))
      | _ -> None)
  | Between (col, lo, hi) -> (
      match binding col with
      | Some v -> Some (Value.compare lo v <= 0 && Value.compare v hi <= 0)
      | None -> None)
  | And (a, b) -> (
      match (eval3 a binding, eval3 b binding) with
      | Some false, _ | _, Some false -> Some false
      | Some true, Some true -> Some true
      | _ -> None)
  | Or (a, b) -> (
      match (eval3 a binding, eval3 b binding) with
      | Some true, _ | _, Some true -> Some true
      | Some false, Some false -> Some false
      | _ -> None)
  | Not a -> Option.map not (eval3 a binding)

let eval p tuple =
  let binding i = if i < Tuple.arity tuple then Some (Tuple.get tuple i) else None in
  match eval3 p binding with
  | Some b -> b
  | None -> invalid_arg "Predicate.eval: tuple does not bind all columns read"

let satisfiable_with p binding =
  match eval3 p binding with Some false -> false | Some true | None -> true

(* ------------------------------------------------------------------ *)
(* Compiled evaluation                                                  *)
(* ------------------------------------------------------------------ *)

(* [eval3] rebuilds a binding closure and boxes [Some] results per tuple.
   Compilation walks the AST once, closing each node over preallocated
   [Some true]/[Some false] and, for the flat path, evaluating comparisons
   directly over column offsets ([Tuple_view.compare_col]) — zero
   allocations per row.  Semantics are [eval3] exactly: out-of-range columns
   bind to [None], And/Or use three-valued logic.  Short-circuiting is
   sound because [eval3] is side-effect-free: when the left conjunct is
   [Some false] the conjunction is [Some false] whatever the right says, and
   dually for Or. *)

let some_true = Some true
let some_false = Some false
let of_bool b = if b then some_true else some_false

(* Functorizing over the row representation keeps the two compilers (flat
   views and boxed tuples) provably the same algorithm. *)
module type ROW = sig
  type row

  val arity : row -> int
  val compare_col : row -> int -> Value.t -> int
  (** [Value.compare (column col) v]. *)

  val compare_cols : row -> int -> int -> int
end

module Compile (Row : ROW) = struct
  let rec compile p : Row.row -> bool option =
    match p with
    | True -> fun _ -> some_true
    | False -> fun _ -> some_false
    | Cmp (op, Const a, Const b) ->
        let r = of_bool (compare_holds op (Value.compare a b)) in
        fun _ -> r
    | Cmp (op, Column i, Const v) ->
        fun row ->
          if i >= Row.arity row then None
          else of_bool (compare_holds op (Row.compare_col row i v))
    | Cmp (op, Const v, Column i) ->
        fun row ->
          if i >= Row.arity row then None
          else of_bool (compare_holds op (-Row.compare_col row i v))
    | Cmp (op, Column i, Column j) ->
        fun row ->
          let n = Row.arity row in
          if i >= n || j >= n then None
          else of_bool (compare_holds op (Row.compare_cols row i j))
    | Between (col, lo, hi) ->
        fun row ->
          if col >= Row.arity row then None
          else
            of_bool (Row.compare_col row col lo >= 0 && Row.compare_col row col hi <= 0)
    | And (a, b) ->
        let ca = compile a and cb = compile b in
        fun row -> (
          match ca row with
          | Some false -> some_false
          | Some true -> cb row
          | None -> ( match cb row with Some false -> some_false | _ -> None))
    | Or (a, b) ->
        let ca = compile a and cb = compile b in
        fun row -> (
          match ca row with
          | Some true -> some_true
          | Some false -> cb row
          | None -> ( match cb row with Some true -> some_true | _ -> None))
    | Not a ->
        let ca = compile a in
        fun row -> (
          match ca row with
          | Some b -> if b then some_false else some_true
          | None -> None)
end

module View_compiler = Compile (struct
  type row = Tuple_view.t

  let arity = Tuple_view.arity
  let compare_col = Tuple_view.compare_col
  let compare_cols row i j = Tuple_view.compare_cols row i row j
end)

module Boxed_compiler = Compile (struct
  type row = Tuple.t

  let arity = Tuple.arity
  let compare_col row i v = Value.compare (Tuple.get row i) v
  let compare_cols row i j = Value.compare (Tuple.get row i) (Tuple.get row j)
end)

let compile p = View_compiler.compile p

let compile_boxed p = Boxed_compiler.compile p

let eval_view compiled view =
  match compiled view with
  | Some b -> b
  | None -> invalid_arg "Predicate.eval: tuple does not bind all columns read"

let columns_read p =
  let rec collect acc = function
    | True | False -> acc
    | Cmp (_, a, b) ->
        let add acc = function Column i -> i :: acc | Const _ -> acc in
        add (add acc a) b
    | Between (col, _, _) -> col :: acc
    | And (a, b) | Or (a, b) -> collect (collect acc a) b
    | Not a -> collect acc a
  in
  List.sort_uniq Int.compare (collect [] p)

type interval = { column : int; lo : Value.t option; hi : Value.t option }

(* Conservative cover: a list of intervals such that every satisfying tuple
   falls into at least one.  For a conjunction, covering either conjunct is
   enough; for a disjunction, both sides must be covered. *)
let rec tlock_intervals p =
  match p with
  | True -> None
  | False -> Some []
  | Between (column, lo, hi) -> Some [ { column; lo = Some lo; hi = Some hi } ]
  | Cmp (op, Column column, Const v) | Cmp (op, Const v, Column column) ->
      let op =
        (* Normalize [Const v OP Column c] to [Column c OP' Const v]. *)
        match p with
        | Cmp (_, Const _, Column _) -> (
            match op with Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | other -> other)
        | _ -> op
      in
      (match op with
      | Eq -> Some [ { column; lo = Some v; hi = Some v } ]
      | Lt | Le -> Some [ { column; lo = None; hi = Some v } ]
      | Gt | Ge -> Some [ { column; lo = Some v; hi = None } ]
      | Ne -> None)
  | Cmp _ -> None
  | And (a, b) -> (
      match tlock_intervals a with Some ivs -> Some ivs | None -> tlock_intervals b)
  | Or (a, b) -> (
      match (tlock_intervals a, tlock_intervals b) with
      | Some ia, Some ib -> Some (ia @ ib)
      | _ -> None)
  | Not _ -> None

let rec selectivity_on_unit_column p ~column =
  match p with
  | True -> 1.
  | False -> 0.
  | Between (col, lo, hi) when col = column -> (
      try
        let lo = Float.max 0. (Value.as_float lo) and hi = Float.min 1. (Value.as_float hi) in
        Float.max 0. (hi -. lo)
      with Invalid_argument _ -> 1.)
  | Cmp (op, Column col, Const v) when col = column -> (
      try
        let x = Float.max 0. (Float.min 1. (Value.as_float v)) in
        match op with
        | Lt | Le -> x
        | Gt | Ge -> 1. -. x
        | Eq -> 0.
        | Ne -> 1.
      with Invalid_argument _ -> 1.)
  | And (a, b) ->
      Float.min
        (selectivity_on_unit_column a ~column)
        (selectivity_on_unit_column b ~column)
  | Or (a, b) ->
      Float.min 1.
        (selectivity_on_unit_column a ~column +. selectivity_on_unit_column b ~column)
  | Not a -> 1. -. selectivity_on_unit_column a ~column
  | _ -> 1.

let comparison_name = function
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let rec pp fmt = function
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Cmp (op, a, b) ->
      let pp_operand fmt = function
        | Column i -> Format.fprintf fmt "$%d" i
        | Const v -> Value.pp fmt v
      in
      Format.fprintf fmt "%a %s %a" pp_operand a (comparison_name op) pp_operand b
  | Between (c, lo, hi) -> Format.fprintf fmt "$%d in [%a, %a]" c Value.pp lo Value.pp hi
  | And (a, b) -> Format.fprintf fmt "(%a and %a)" pp a pp b
  | Or (a, b) -> Format.fprintf fmt "(%a or %a)" pp a pp b
  | Not a -> Format.fprintf fmt "(not %a)" pp a
