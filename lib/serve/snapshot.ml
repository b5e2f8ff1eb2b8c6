open Vmat_storage

type t = {
  sn_epoch : int;
  sn_txns : int;
  sn_cluster_col : int;
  sn_rows : (Tuple.t * int) array;
      (* ascending (clustering value, value key); one entry per distinct
         value key, duplicate counts merged *)
}

let compare_rows col (a, _) (b, _) =
  let c = Value.compare (Tuple.get a col) (Tuple.get b col) in
  if c <> 0 then c else String.compare (Tuple.value_key a) (Tuple.value_key b)

(* Canonicalize: sort by (clustering value, value key), then merge entries
   with equal value keys by summing their duplicate counts, so the snapshot
   is a well-formed bag no matter how the strategy chunked its answer. *)
let of_rows ~cluster_col ~epoch ~txns rows =
  let arr = Array.of_list rows in
  Array.sort (compare_rows cluster_col) arr;
  let merged = ref [] in
  Array.iter
    (fun (tuple, count) ->
      match !merged with
      | (prev, prev_count) :: rest when Tuple.value_key prev = Tuple.value_key tuple ->
          merged := (prev, prev_count + count) :: rest
      | _ -> merged := (tuple, count) :: !merged)
    arr;
  {
    sn_epoch = epoch;
    sn_txns = txns;
    sn_cluster_col = cluster_col;
    sn_rows = Array.of_list (List.rev !merged);
  }

let epoch t = t.sn_epoch
let txns t = t.sn_txns
let cluster_col t = t.sn_cluster_col
let size t = Array.length t.sn_rows
let rows t = Array.to_list t.sn_rows

(* First index whose clustering value is >= lo (array length when none). *)
let lower_bound t lo =
  let n = Array.length t.sn_rows in
  let rec search l r =
    if l >= r then l
    else
      let mid = (l + r) / 2 in
      let v, _ = t.sn_rows.(mid) in
      if Value.compare (Tuple.get v t.sn_cluster_col) lo < 0 then search (mid + 1) r
      else search l mid
  in
  search 0 n

let query t ~lo ~hi =
  let n = Array.length t.sn_rows in
  let rec collect i acc =
    if i >= n then List.rev acc
    else
      let tuple, count = t.sn_rows.(i) in
      if Value.compare (Tuple.get tuple t.sn_cluster_col) hi > 0 then List.rev acc
      else collect (i + 1) ((tuple, count) :: acc)
  in
  collect (lower_bound t lo) []

(* FNV-1a, hand-rolled so the digest is deterministic by construction
   (Hashtbl.hash is banned by vmlint rule D2). *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

(* Digests hash value keys and duplicate counts, never tuple ids: replaying
   the same logical history mints fresh tids, so tids are not stable across
   a replay, but the value-keyed bag is. *)
let digest_rows rows =
  let buf = Buffer.create 256 in
  List.iter
    (fun (tuple, count) ->
      Buffer.add_string buf (Tuple.value_key tuple);
      Buffer.add_char buf '#';
      Buffer.add_string buf (string_of_int count);
      Buffer.add_char buf ';')
    rows;
  Printf.sprintf "%016Lx:%d" (fnv1a (Buffer.contents buf)) (Buffer.length buf)

let digest t = digest_rows (Array.to_list t.sn_rows)
