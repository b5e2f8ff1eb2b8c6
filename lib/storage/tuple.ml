type t = { tid : int; values : Value.t array; mutable key_memo : string option }

let make ~tid values = { tid; values; key_memo = None }

type source = { mutable next_tid : int }

let source ?(first = 1) () = { next_tid = first }

let next s =
  let tid = s.next_tid in
  s.next_tid <- tid + 1;
  tid

let peek s = s.next_tid

let tid t = t.tid
let values t = t.values
let get t i = t.values.(i)
let arity t = Array.length t.values

let set t i v =
  let values = Array.copy t.values in
  values.(i) <- v;
  { tid = t.tid; values; key_memo = None }

(* The key ignores the tid, so the memo stays valid across [with_tid]. *)
let with_tid t tid = { t with tid }

let project t positions =
  { tid = t.tid; values = Array.map (Array.get t.values) positions; key_memo = None }

let concat ~tid a b = { tid; values = Array.append a.values b.values; key_memo = None }

let equal_values a b =
  Array.length a.values = Array.length b.values
  && Array.for_all2 Value.equal a.values b.values

let equal a b = a.tid = b.tid && equal_values a b

let compare_values a b =
  let la = Array.length a.values and lb = Array.length b.values in
  let rec loop i =
    if i >= la || i >= lb then Int.compare la lb
    else
      match Value.compare a.values.(i) b.values.(i) with
      | 0 -> loop (i + 1)
      | c -> c
  in
  loop 0

(* Memoized: rows are keyed repeatedly (snapshot sorts/merges/digests, bag
   lookups), and tuples are immutable, so the first rendering is cached on
   the tuple.  Publication safety: the writer domain keys every row while
   building a snapshot, so reader domains only ever load an already-written
   [Some]. *)
let value_key t =
  match t.key_memo with
  | Some key -> key
  | None ->
      let key =
        String.concat "|" (Array.to_list (Array.map Value.key_string t.values))
      in
      t.key_memo <- Some key;
      key

let pp fmt t =
  Format.fprintf fmt "#%d(%s)" t.tid
    (String.concat ", " (Array.to_list (Array.map Value.to_string t.values)))
