(* A zero-copy cursor over one flat row: a page plus a slot index.  Storage
   engines reuse a single cursor per scan (mutating [slot]), so iterating a
   page allocates nothing; callers that keep a row past the callback must
   [materialize] it. *)

type t = { mutable page : Flat.t; mutable slot : int }

let on page slot = { page; slot }

let set v page slot =
  v.page <- page;
  v.slot <- slot

let set_slot v slot = v.slot <- slot

let tid v = Flat.tid_at v.page v.slot
let arity v = Flat.arity_at v.page v.slot
let get v col = Flat.cell_value v.page v.slot col
let get_int v col = Flat.cell_int v.page v.slot col
let get_int_or v col ~default = Flat.cell_int_or v.page v.slot col ~default
let get_bool_or_false v col = Flat.cell_bool_or_false v.page v.slot col

let compare_col v col value = Flat.compare_cell_value v.page v.slot col value

let compare_cols a ca b cb = Flat.compare_cells a.page a.slot ca b.page b.slot cb

(* Lexicographic field comparison ignoring tids — mirrors
   [Tuple.compare_values]. *)
let compare_values a b =
  let la = arity a and lb = arity b in
  let rec loop i =
    if i >= la || i >= lb then Int.compare la lb
    else match compare_cols a i b i with 0 -> loop (i + 1) | c -> c
  in
  loop 0

let compare_values_tuple v tuple =
  let la = arity v and lb = Tuple.arity tuple in
  let rec loop i =
    if i >= la || i >= lb then Int.compare la lb
    else match compare_col v i (Tuple.get tuple i) with 0 -> loop (i + 1) | c -> c
  in
  loop 0

let equal_values_tuple v tuple = compare_values_tuple v tuple = 0

(* First [n] cells of the view against all fields of [tuple] — the
   stored-row-vs-view-row equality of materialized views (the stored row
   carries a trailing count column). *)
let equal_prefix_values v tuple n =
  Tuple.arity tuple = n
  && arity v >= n
  &&
  let rec loop i =
    i >= n || (compare_col v i (Tuple.get tuple i) = 0 && loop (i + 1))
  in
  loop 0

let value_key v = Flat.row_value_key v.page v.slot

let materialize v = Flat.materialize v.page v.slot
let materialize_prefix v n ~tid = Flat.materialize_prefix v.page v.slot n ~tid
let counted_row v = Flat.counted_row v.page v.slot
let project v positions ~tid = Flat.project v.page v.slot positions ~tid
