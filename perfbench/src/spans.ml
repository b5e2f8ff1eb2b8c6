(* In-memory span recorder for the traced run.  A span is a name, a start
   and end on the monotonic clock, the span open around it (its parent, -1
   for a root) and the id of the timed unit (operation or set-up step) it
   belongs to.  The layer of a span is its name up to the first dot. *)

type t = {
  mutable names : string array;
  mutable starts : int array;
  mutable ends : int array;
  mutable parents : int array;
  mutable units : int array;
  mutable len : int;
  mutable open_ : int;  (** innermost open span, -1 when none *)
  mutable unit_id : int;
}

let create () =
  let cap = 1024 in
  {
    names = Array.make cap "";
    starts = Array.make cap 0;
    ends = Array.make cap 0;
    parents = Array.make cap (-1);
    units = Array.make cap 0;
    len = 0;
    open_ = -1;
    unit_id = 0;
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill = Array.init cap (fun i -> if i < t.len then a.(i) else fill) in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0;
  t.ends <- extend t.ends 0;
  t.parents <- extend t.parents (-1);
  t.units <- extend t.units 0

let set_unit t id = t.unit_id <- id

let record t name f =
  if t.len = Array.length t.names then grow t;
  let id = t.len in
  t.len <- id + 1;
  t.names.(id) <- name;
  t.parents.(id) <- t.open_;
  t.units.(id) <- t.unit_id;
  t.open_ <- id;
  t.starts.(id) <- Clock.now ();
  let close () =
    t.ends.(id) <- Clock.now ();
    t.open_ <- t.parents.(id)
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* [span (Some t) name f] records; [span None name f] is just [f ()]. *)
let span t name f = match t with None -> f () | Some t -> record t name f

let length t = t.len
let name t i = t.names.(i)
let unit_of t i = t.units.(i)
let duration t i = t.ends.(i) - t.starts.(i)

let layer name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Self time: a span's duration minus its children's.  Children nest
   inside their parent by construction (the recorder is a stack). *)
let self_times t =
  let self = Array.init t.len (duration t) in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p >= 0 then self.(p) <- self.(p) - duration t i
  done;
  self

let write_json t oc =
  output_string oc "[\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"unit\":%d}%s\n" i
      t.names.(i) t.starts.(i) t.ends.(i) t.parents.(i) t.units.(i)
      (if i = t.len - 1 then "" else ",")
  done;
  output_string oc "]\n"
