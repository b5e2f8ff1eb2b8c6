(* Binary codec shared by the WAL record format and checkpoint images
   (DESIGN §9).  Little-endian, length-prefixed strings, one tag byte per
   variant.  Deliberately boring: the encoding must stay stable across
   sessions because recovery reads images written by earlier runs.

   The CRC32 is the IEEE 802.3 reflected algorithm computed slice-by-8:
   eight 256-entry tables fold eight input bytes into the register per
   step, about fifty times faster than a bit-at-a-time loop — which matters
   because every checkpoint image (a megabyte at N=20000) is checksummed
   on write and again on recovery.  The tables are built once at module
   init and only read afterwards (the one .vmlint D1 entry for this
   file). *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE, reflected, init/xorout 0xFFFFFFFF)                      *)
(* ------------------------------------------------------------------ *)

let crc32_poly = 0xEDB88320

(* [crc_table.((k lsl 8) lor b)] is the register after byte [b] followed by
   [k] zero bytes: slice 0 is the classic byte-at-a-time table, slice [k]
   extends slice [k - 1] by one more byte. *)
let crc_table =
  let t = Array.make (8 * 256) 0 in
  for b = 0 to 255 do
    let c = ref b in
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor crc32_poly else !c lsr 1
    done;
    t.(b) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

let crc32 s =
  let t = crc_table in
  let len = String.length s in
  let crc = ref 0xFFFFFFFF in
  let i = ref 0 in
  while !i + 8 <= len do
    let lo = !crc lxor Int32.to_int (String.get_int32_le s !i) in
    let hi = Int32.to_int (String.get_int32_le s (!i + 4)) in
    crc :=
      t.(0x700 lor (lo land 0xFF))
      lxor t.(0x600 lor ((lo lsr 8) land 0xFF))
      lxor t.(0x500 lor ((lo lsr 16) land 0xFF))
      lxor t.(0x400 lor ((lo lsr 24) land 0xFF))
      lxor t.(0x300 lor (hi land 0xFF))
      lxor t.(0x200 lor ((hi lsr 8) land 0xFF))
      lxor t.(0x100 lor ((hi lsr 16) land 0xFF))
      lxor t.((hi lsr 24) land 0xFF);
    i := !i + 8
  done;
  for j = !i to len - 1 do
    crc := (!crc lsr 8) lxor t.((!crc lxor Char.code s.[j]) land 0xFF)
  done;
  !crc lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Writer                                                               *)
(* ------------------------------------------------------------------ *)

type writer = Buffer.t

let writer () = Buffer.create 256
let contents w = Buffer.contents w

let u8 w n =
  if n < 0 || n > 0xFF then invalid_arg "Codec.u8: out of range";
  Buffer.add_char w (Char.chr n)

let u32 w n =
  if n < 0 || n > 0xFFFFFFFF then invalid_arg "Codec.u32: out of range";
  Buffer.add_int32_le w (Int32.of_int n)

let i64_bits w n = Buffer.add_int64_le w n
let i64 w n = Buffer.add_int64_le w (Int64.of_int n)
let f64 w x = Buffer.add_int64_le w (Int64.bits_of_float x)

let str w s =
  u32 w (String.length s);
  Buffer.add_string w s

let bool w b = u8 w (if b then 1 else 0)

let option w f = function
  | None -> u8 w 0
  | Some x ->
      u8 w 1;
      f w x

let list w f xs =
  u32 w (List.length xs);
  List.iter (f w) xs

let array w f xs =
  u32 w (Array.length xs);
  Array.iter (f w) xs

(* ------------------------------------------------------------------ *)
(* Reader                                                               *)
(* ------------------------------------------------------------------ *)

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }
let remaining r = String.length r.data - r.pos
let at_end r = remaining r = 0

let need r n =
  if remaining r < n then
    corrupt "truncated input: need %d bytes at offset %d, have %d" n r.pos (remaining r)

let r_u8 r =
  need r 1;
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

let r_u32 r =
  need r 4;
  let n = Int32.to_int (String.get_int32_le r.data r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  n

let r_i64_bits r =
  need r 8;
  let n = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  n

(* Reads the word itself rather than calling [r_i64_bits], which would box
   an int64 on every integer decoded. *)
let r_i64 r =
  need r 8;
  let n = Int64.to_int (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  n

let r_f64 r = Int64.float_of_bits (r_i64_bits r)

let r_str r =
  let len = r_u32 r in
  need r len;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt "bad bool tag %d at offset %d" n (r.pos - 1)

let r_option r f = match r_u8 r with
  | 0 -> None
  | 1 -> Some (f r)
  | n -> corrupt "bad option tag %d at offset %d" n (r.pos - 1)

let r_list r f =
  let n = r_u32 r in
  if n > remaining r then corrupt "implausible list length %d at offset %d" n r.pos;
  List.init n (fun _ -> f r)

let r_array r f =
  let n = r_u32 r in
  if n > remaining r then corrupt "implausible array length %d at offset %d" n r.pos;
  Array.init n (fun _ -> f r)

(* ------------------------------------------------------------------ *)
(* Value / Tuple / Schema                                               *)
(* ------------------------------------------------------------------ *)

let value w (v : Value.t) =
  match v with
  | Value.Null -> u8 w 0
  | Value.Bool b ->
      u8 w 1;
      bool w b
  | Value.Int n ->
      u8 w 2;
      i64 w n
  | Value.Float x ->
      u8 w 3;
      f64 w x
  | Value.Str s ->
      u8 w 4;
      str w s

let r_value r : Value.t =
  match r_u8 r with
  | 0 -> Value.Null
  | 1 -> Value.Bool (r_bool r)
  | 2 -> Value.Int (r_i64 r)
  | 3 -> Value.Float (r_f64 r)
  | 4 -> Value.Str (r_str r)
  | n -> corrupt "bad Value tag %d at offset %d" n (r.pos - 1)

let tuple w (t : Tuple.t) =
  i64 w (Tuple.tid t);
  array w value (Tuple.values t)

let r_tuple r : Tuple.t =
  let tid = r_i64 r in
  let values = r_array r r_value in
  Tuple.make ~tid values

let column_type w (ty : Schema.column_type) =
  u8 w
    (match ty with
    | Schema.T_int -> 0
    | Schema.T_float -> 1
    | Schema.T_string -> 2
    | Schema.T_bool -> 3)

let r_column_type r : Schema.column_type =
  match r_u8 r with
  | 0 -> Schema.T_int
  | 1 -> Schema.T_float
  | 2 -> Schema.T_string
  | 3 -> Schema.T_bool
  | n -> corrupt "bad column_type tag %d at offset %d" n (r.pos - 1)

let schema w (s : Schema.t) =
  str w (Schema.name s);
  list w
    (fun w (c : Schema.column) ->
      str w c.Schema.name;
      column_type w c.Schema.ty)
    (Schema.columns s);
  u32 w (Schema.tuple_bytes s);
  (* The key is stored by column *name* so [Schema.make] can revalidate it on
     decode rather than trusting a raw index. *)
  str w (Schema.column_name s (Schema.key_index s))

let r_schema r : Schema.t =
  let name = r_str r in
  let columns =
    r_list r (fun r ->
        let cname = r_str r in
        let ty = r_column_type r in
        { Schema.name = cname; ty })
  in
  let tuple_bytes = r_u32 r in
  let key = r_str r in
  match Schema.make ~name ~columns ~tuple_bytes ~key with
  | s -> s
  | exception Invalid_argument msg -> corrupt "bad schema: %s" msg

(* ------------------------------------------------------------------ *)
(* Framing: [u32 payload_len][u32 crc32(payload)][payload]              *)
(* ------------------------------------------------------------------ *)

type frame_error = Torn | Bad_crc

let add_frame w payload =
  u32 w (String.length payload);
  u32 w (crc32 payload);
  Buffer.add_string w payload

let frame payload =
  let w = Buffer.create (8 + String.length payload) in
  add_frame w payload;
  Buffer.contents w

(* Reads one frame starting at [r.pos].  On success advances past the frame
   and returns the payload.  [Error Torn] means the remaining bytes cannot
   hold a whole frame (clean truncation); [Error Bad_crc] means the frame is
   complete but its checksum fails (bit rot / torn overwrite).  In both
   error cases [r.pos] is left unchanged so the caller can record where the
   valid prefix ends. *)
let read_frame r =
  let start = r.pos in
  if remaining r < 8 then Error Torn
  else begin
    let len = r_u32 r in
    let crc = r_u32 r in
    if remaining r < len then begin
      r.pos <- start;
      Error Torn
    end
    else begin
      let payload = String.sub r.data r.pos len in
      r.pos <- r.pos + len;
      if crc32 payload <> crc then begin
        r.pos <- start;
        Error Bad_crc
      end
      else Ok payload
    end
  end
