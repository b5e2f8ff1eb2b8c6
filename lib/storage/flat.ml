(* Flat page-resident rows: the in-memory twin of the WAL codec's LE
   fixint/varlen format (DESIGN §12).  A page is one growable [Bytes] buffer
   plus a slot directory of row offsets; rows are self-describing
   ([len][tid][arity][cells][varlen]) and relocatable (varlen offsets are
   row-relative), so moving a row between pages is a single blit.

   Layout of one row at offset [off]:

     off + 0   u32   total row length in bytes (header + cells + varlen)
     off + 4   i64   tid
     off + 12  u16   arity
     off + 14  cells arity x 9 bytes: 1 tag byte + 8 payload bytes
     ...       varlen bytes (string payloads, in column order)

   Cell payloads by tag (tags match lib/storage/codec.ml):
     0 Null    payload unused (zero)
     1 Bool    payload <> 0
     2 Int     i64 LE
     3 Float   IEEE-754 bits LE
     4 Str     u32 LE offset from row start ++ u32 LE byte length

   Fixed-width cells make column access O(1): cell [i] of the row at [off]
   lives at [off + 14 + 9*i].  Comparisons and key strings are computed
   straight off the buffer without boxing a [Value.t]. *)

type t = {
  mutable buf : Bytes.t;
  mutable used : int;  (* high-water mark of row bytes (including garbage) *)
  mutable slots : int array;  (* row offsets, in slot order *)
  mutable nslots : int;
  mutable garbage : int;  (* dead row bytes below [used] *)
}

let header_bytes = 14
let cell_bytes = 9

let tag_null = 0
let tag_bool = 1
let tag_int = 2
let tag_float = 3
let tag_str = 4

let create ?(hint = 256) () =
  {
    buf = Bytes.create (max 64 hint);
    used = 0;
    slots = Array.make 8 0;
    nslots = 0;
    garbage = 0;
  }

let length p = p.nslots
let byte_size p = p.used - p.garbage

let clear p =
  p.used <- 0;
  p.nslots <- 0;
  p.garbage <- 0

let ensure_bytes p extra =
  let need = p.used + extra in
  if need > Bytes.length p.buf then begin
    let cap = ref (Bytes.length p.buf * 2) in
    while need > !cap do
      cap := !cap * 2
    done;
    let fresh = Bytes.create !cap in
    Bytes.blit p.buf 0 fresh 0 p.used;
    p.buf <- fresh
  end

let ensure_slot p =
  if p.nslots = Array.length p.slots then begin
    let fresh = Array.make (Array.length p.slots * 2) 0 in
    Array.blit p.slots 0 fresh 0 p.nslots;
    p.slots <- fresh
  end

let slot_off p i =
  if i < 0 || i >= p.nslots then invalid_arg "Flat: slot out of range";
  p.slots.(i)

let row_len_at p off = Int32.to_int (Bytes.get_int32_le p.buf off)

(* ------------------------------------------------------------------ *)
(* Encoding                                                             *)
(* ------------------------------------------------------------------ *)

let row_size tuple =
  let values = Tuple.values tuple in
  let var =
    Array.fold_left
      (fun acc v -> match v with Value.Str s -> acc + String.length s | _ -> acc)
      0 values
  in
  header_bytes + (Array.length values * cell_bytes) + var

(* Encode [tuple] at the end of the buffer; returns its offset.  Does not
   touch the slot directory. *)
let write_row p tuple =
  let values = Tuple.values tuple in
  let n = Array.length values in
  if n > 0xffff then invalid_arg "Flat: arity exceeds 65535";
  let size = row_size tuple in
  ensure_bytes p size;
  let off = p.used in
  Bytes.set_int32_le p.buf off (Int32.of_int size);
  Bytes.set_int64_le p.buf (off + 4) (Int64.of_int (Tuple.tid tuple));
  Bytes.set_uint16_le p.buf (off + 12) n;
  let var = ref (header_bytes + (n * cell_bytes)) in
  for i = 0 to n - 1 do
    let c = off + header_bytes + (i * cell_bytes) in
    match values.(i) with
    | Value.Null ->
        Bytes.set_uint8 p.buf c tag_null;
        Bytes.set_int64_le p.buf (c + 1) 0L
    | Value.Bool b ->
        Bytes.set_uint8 p.buf c tag_bool;
        Bytes.set_int64_le p.buf (c + 1) (if b then 1L else 0L)
    | Value.Int x ->
        Bytes.set_uint8 p.buf c tag_int;
        Bytes.set_int64_le p.buf (c + 1) (Int64.of_int x)
    | Value.Float f ->
        Bytes.set_uint8 p.buf c tag_float;
        Bytes.set_int64_le p.buf (c + 1) (Int64.bits_of_float f)
    | Value.Str s ->
        let len = String.length s in
        Bytes.set_uint8 p.buf c tag_str;
        Bytes.set_int32_le p.buf (c + 1) (Int32.of_int !var);
        Bytes.set_int32_le p.buf (c + 5) (Int32.of_int len);
        Bytes.blit_string s 0 p.buf (off + !var) len;
        var := !var + len
  done;
  p.used <- p.used + size;
  off

(* ------------------------------------------------------------------ *)
(* Compaction                                                           *)
(* ------------------------------------------------------------------ *)

let compact p =
  let fresh = Bytes.create (Bytes.length p.buf) in
  let w = ref 0 in
  for i = 0 to p.nslots - 1 do
    let off = p.slots.(i) in
    let len = row_len_at p off in
    Bytes.blit p.buf off fresh !w len;
    p.slots.(i) <- !w;
    w := !w + len
  done;
  p.buf <- fresh;
  p.used <- !w;
  p.garbage <- 0

let maybe_compact p = if p.garbage * 2 > p.used then compact p

(* ------------------------------------------------------------------ *)
(* Slot directory edits                                                 *)
(* ------------------------------------------------------------------ *)

let append p tuple =
  let off = write_row p tuple in
  ensure_slot p;
  p.slots.(p.nslots) <- off;
  p.nslots <- p.nslots + 1;
  p.nslots - 1

let insert_at p i tuple =
  if i < 0 || i > p.nslots then invalid_arg "Flat.insert_at";
  let off = write_row p tuple in
  ensure_slot p;
  Array.blit p.slots i p.slots (i + 1) (p.nslots - i);
  p.slots.(i) <- off;
  p.nslots <- p.nslots + 1

let remove_at p i =
  let off = slot_off p i in
  p.garbage <- p.garbage + row_len_at p off;
  Array.blit p.slots (i + 1) p.slots i (p.nslots - i - 1);
  p.nslots <- p.nslots - 1;
  maybe_compact p

let replace_at p i tuple =
  let old = slot_off p i in
  let old_len = row_len_at p old in
  let off = write_row p tuple in
  p.slots.(i) <- off;
  p.garbage <- p.garbage + old_len;
  maybe_compact p

let truncate p n =
  if n < 0 || n > p.nslots then invalid_arg "Flat.truncate";
  for i = n to p.nslots - 1 do
    p.garbage <- p.garbage + row_len_at p p.slots.(i)
  done;
  p.nslots <- n;
  maybe_compact p

let copy_row ~src i ~dst =
  let off = slot_off src i in
  let len = row_len_at src off in
  ensure_bytes dst len;
  Bytes.blit src.buf off dst.buf dst.used len;
  ensure_slot dst;
  dst.slots.(dst.nslots) <- dst.used;
  dst.nslots <- dst.nslots + 1;
  dst.used <- dst.used + len

(* ------------------------------------------------------------------ *)
(* Row accessors                                                        *)
(* ------------------------------------------------------------------ *)

let tid_at p i = Int64.to_int (Bytes.get_int64_le p.buf (slot_off p i + 4))
let arity_at p i = Bytes.get_uint16_le p.buf (slot_off p i + 12)

let cell_check p off col =
  let n = Bytes.get_uint16_le p.buf (off + 12) in
  if col < 0 || col >= n then invalid_arg "Flat: column out of range"

let cell_off off col = off + header_bytes + (col * cell_bytes)

let str_parts p off c =
  let s_off = Int32.to_int (Bytes.get_int32_le p.buf (c + 1)) in
  let s_len = Int32.to_int (Bytes.get_int32_le p.buf (c + 5)) in
  (off + s_off, s_len)

let value_of_cell p off col =
  let c = cell_off off col in
  match Bytes.get_uint8 p.buf c with
  | 0 -> Value.Null
  | 1 -> Value.Bool (not (Int64.equal (Bytes.get_int64_le p.buf (c + 1)) 0L))
  | 2 -> Value.Int (Int64.to_int (Bytes.get_int64_le p.buf (c + 1)))
  | 3 -> Value.Float (Int64.float_of_bits (Bytes.get_int64_le p.buf (c + 1)))
  | 4 ->
      let s_off, s_len = str_parts p off c in
      Value.Str (Bytes.sub_string p.buf s_off s_len)
  | tag -> invalid_arg (Printf.sprintf "Flat: corrupt cell tag %d" tag)

let cell_value p i col =
  let off = slot_off p i in
  cell_check p off col;
  value_of_cell p off col

let cell_int p i col =
  let off = slot_off p i in
  cell_check p off col;
  let c = cell_off off col in
  if Bytes.get_uint8 p.buf c <> tag_int then invalid_arg "Flat.cell_int: not an Int cell";
  Int64.to_int (Bytes.get_int64_le p.buf (c + 1))

let cell_int_or p i col ~default =
  let off = slot_off p i in
  cell_check p off col;
  let c = cell_off off col in
  if Bytes.get_uint8 p.buf c <> tag_int then default
  else Int64.to_int (Bytes.get_int64_le p.buf (c + 1))

(* Mirrors the Hr marker decode: any non-Bool cell reads as false. *)
let cell_bool_or_false p i col =
  let off = slot_off p i in
  cell_check p off col;
  let c = cell_off off col in
  Bytes.get_uint8 p.buf c = tag_bool
  && not (Int64.equal (Bytes.get_int64_le p.buf (c + 1)) 0L)

(* ------------------------------------------------------------------ *)
(* Comparisons straight off the buffer (no Value.t boxing)              *)
(* ------------------------------------------------------------------ *)

let rank_of_tag = function
  | 0 -> 0
  | 1 -> 1
  | 2 | 3 -> 2
  | 4 -> 3
  | tag -> invalid_arg (Printf.sprintf "Flat: corrupt cell tag %d" tag)

(* String.compare is byte-lexicographic, so comparing the raw byte ranges
   reproduces it exactly. *)
let compare_bytes_bytes ba oa la bb ob lb =
  let n = if la < lb then la else lb in
  let rec loop i =
    if i = n then Int.compare la lb
    else
      let c = Char.compare (Bytes.get ba (oa + i)) (Bytes.get bb (ob + i)) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

let compare_bytes_string ba oa la s =
  let lb = String.length s in
  let n = if la < lb then la else lb in
  let rec loop i =
    if i = n then Int.compare la lb
    else
      let c = Char.compare (Bytes.get ba (oa + i)) (String.get s i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

(* [compare_cell_value p i col v] = [Value.compare (cell) v], replicated
   case-by-case so no Value.t is boxed for the cell. *)
let compare_cell_value p i col (v : Value.t) =
  let off = slot_off p i in
  cell_check p off col;
  let c = cell_off off col in
  let tag = Bytes.get_uint8 p.buf c in
  match (tag, v) with
  | 0, Value.Null -> 0
  | 1, Value.Bool y ->
      Bool.compare (not (Int64.equal (Bytes.get_int64_le p.buf (c + 1)) 0L)) y
  | 2, Value.Int y -> Int.compare (Int64.to_int (Bytes.get_int64_le p.buf (c + 1))) y
  | 3, Value.Float y -> Float.compare (Int64.float_of_bits (Bytes.get_int64_le p.buf (c + 1))) y
  | 2, Value.Float y ->
      Float.compare (float_of_int (Int64.to_int (Bytes.get_int64_le p.buf (c + 1)))) y
  | 3, Value.Int y ->
      Float.compare (Int64.float_of_bits (Bytes.get_int64_le p.buf (c + 1))) (float_of_int y)
  | 4, Value.Str y ->
      let s_off, s_len = str_parts p off c in
      compare_bytes_string p.buf s_off s_len y
  | _, _ -> Int.compare (rank_of_tag tag) (Value.rank v)

let float_of_cell p c tag =
  if tag = tag_int then float_of_int (Int64.to_int (Bytes.get_int64_le p.buf (c + 1)))
  else Int64.float_of_bits (Bytes.get_int64_le p.buf (c + 1))

(* [Value.compare] between two cells, possibly on different pages. *)
let compare_cells pa ia ca pb ib cb =
  let offa = slot_off pa ia and offb = slot_off pb ib in
  cell_check pa offa ca;
  cell_check pb offb cb;
  let a = cell_off offa ca and b = cell_off offb cb in
  let ta = Bytes.get_uint8 pa.buf a and tb = Bytes.get_uint8 pb.buf b in
  match (ta, tb) with
  | 0, 0 -> 0
  | 1, 1 ->
      Bool.compare
        (not (Int64.equal (Bytes.get_int64_le pa.buf (a + 1)) 0L))
        (not (Int64.equal (Bytes.get_int64_le pb.buf (b + 1)) 0L))
  | 2, 2 ->
      Int.compare
        (Int64.to_int (Bytes.get_int64_le pa.buf (a + 1)))
        (Int64.to_int (Bytes.get_int64_le pb.buf (b + 1)))
  | (2 | 3), (2 | 3) -> Float.compare (float_of_cell pa a ta) (float_of_cell pb b tb)
  | 4, 4 ->
      let sa, la = str_parts pa offa a and sb, lb = str_parts pb offb b in
      compare_bytes_bytes pa.buf sa la pb.buf sb lb
  | _, _ -> Int.compare (rank_of_tag ta) (rank_of_tag tb)

(* ------------------------------------------------------------------ *)
(* Key strings (must equal Value.key_string of the boxed cell)          *)
(* ------------------------------------------------------------------ *)

let add_cell_key_string buffer p off col =
  let c = cell_off off col in
  match Bytes.get_uint8 p.buf c with
  | 0 -> Buffer.add_char buffer 'N'
  | 1 ->
      Buffer.add_string buffer
        (if Int64.equal (Bytes.get_int64_le p.buf (c + 1)) 0L then "B0" else "B1")
  | 2 ->
      Buffer.add_char buffer 'I';
      Buffer.add_string buffer (string_of_int (Int64.to_int (Bytes.get_int64_le p.buf (c + 1))))
  | 3 ->
      let f = Int64.float_of_bits (Bytes.get_int64_le p.buf (c + 1)) in
      if Float.is_integer f && Float.abs f < 1e15 then begin
        Buffer.add_char buffer 'I';
        Buffer.add_string buffer (string_of_int (int_of_float f))
      end
      else begin
        Buffer.add_char buffer 'F';
        Buffer.add_string buffer (string_of_float f)
      end
  | 4 ->
      let s_off, s_len = str_parts p off c in
      Buffer.add_char buffer 'S';
      Buffer.add_subbytes buffer p.buf s_off s_len
  | tag -> invalid_arg (Printf.sprintf "Flat: corrupt cell tag %d" tag)

(* Equals [Tuple.value_key] of the materialized row: cell key strings joined
   by '|'. *)
let row_value_key p i =
  let off = slot_off p i in
  let n = Bytes.get_uint16_le p.buf (off + 12) in
  let b = Buffer.create 32 in
  for col = 0 to n - 1 do
    if col > 0 then Buffer.add_char b '|';
    add_cell_key_string b p off col
  done;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Materialization (the sanctioned boxing boundary)                     *)
(* ------------------------------------------------------------------ *)

let tid_of_row p off = Int64.to_int (Bytes.get_int64_le p.buf (off + 4))

(* The first [n] cells of the row at [off], boxed with no per-row closure:
   narrow rows (view rows are a few columns wide) are array literals, so the
   only allocation is the array itself plus its boxed cells. *)
let cells p off n =
  match n with
  | 0 -> [||]
  | 1 -> [| value_of_cell p off 0 |]
  | 2 -> [| value_of_cell p off 0; value_of_cell p off 1 |]
  | 3 -> [| value_of_cell p off 0; value_of_cell p off 1; value_of_cell p off 2 |]
  | _ ->
      let values = Array.make n Value.Null in
      for col = 0 to n - 1 do
        Array.unsafe_set values col (value_of_cell p off col)
      done;
      values

let materialize p i =
  let off = slot_off p i in
  Tuple.make ~tid:(tid_of_row p off) (cells p off (Bytes.get_uint16_le p.buf (off + 12)))

let materialize_prefix p i n ~tid =
  let off = slot_off p i in
  let arity = Bytes.get_uint16_le p.buf (off + 12) in
  if n > arity then invalid_arg "Flat.materialize_prefix: prefix longer than row";
  Tuple.make ~tid (cells p off n)

let counted_row p i =
  let off = slot_off p i in
  let n = Bytes.get_uint16_le p.buf (off + 12) - 1 in
  if n < 0 then invalid_arg "Flat.counted_row: row has no count cell";
  let c = cell_off off n in
  if Bytes.get_uint8 p.buf c <> tag_int then
    invalid_arg "Flat.counted_row: count is not an Int cell";
  ( Tuple.make ~tid:(tid_of_row p off) (cells p off n),
    Int64.to_int (Bytes.get_int64_le p.buf (c + 1)) )

(* A loop rather than [Array.map]: no closure per row, so the only
   allocation is the array and its boxed cells. *)
let project p i positions ~tid =
  let off = slot_off p i in
  let arity = Bytes.get_uint16_le p.buf (off + 12) in
  let values = Array.make (Array.length positions) Value.Null in
  for j = 0 to Array.length positions - 1 do
    let col = Array.unsafe_get positions j in
    if col < 0 || col >= arity then invalid_arg "Flat.project: column out of range";
    Array.unsafe_set values j (value_of_cell p off col)
  done;
  Tuple.make ~tid values
