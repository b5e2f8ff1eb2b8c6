(* Versioned checkpoint images (DESIGN §9).

   An image is a consistent snapshot of everything the engine would need to
   answer queries without the log: the net base-relation contents (sorted
   by tid — canonical and replayable), the materialized-view rows with
   duplicate counts (canonical value-key order), the net A/D sets of the
   hypothetical relation with their screening markers, the Bloom filter's
   raw bits, and the adaptive controller's state as key/value pairs.

   Layout: magic "VMATCKP1", then one CRC32 frame holding the encoded
   image.  Images are written atomically (write-temp + rename on real
   directories), so recovery sees an old image or a new image, never a torn
   one; a corrupt image (failed CRC) is skipped and the next-newest is
   used, with the log tail covering the difference. *)

open Vmat_storage

let magic = "VMATCKP1"

type image = {
  ck_id : int;
  ck_op_index : int;  (** operations covered: everything <= this is in the image *)
  ck_next_txn_id : int;
  ck_strategy : string;  (** running strategy name at checkpoint time *)
  ck_base : Tuple.t list;  (** net base contents, ascending tid *)
  ck_view : (Tuple.t * int) list;  (** view rows + duplicate counts, value-key order *)
  ck_a_net : (Tuple.t * bool) list;  (** net appended tuples + screening markers *)
  ck_d_net : (Tuple.t * bool) list;  (** net deleted tuples + screening markers *)
  ck_bloom_bits : string;  (** raw filter bits ("" when the strategy keeps none) *)
  ck_bloom_insertions : int;
  ck_adaptive : (string * string) list;  (** controller state (sorted keys) *)
}

let file_name id = Printf.sprintf "ckpt-%06d.img" id

let file_id name =
  if String.length name = 15 && String.sub name 0 5 = "ckpt-"
     && Filename.check_suffix name ".img"
  then int_of_string_opt (String.sub name 5 6)
  else None

let image_files dev =
  List.filter_map
    (fun name -> Option.map (fun i -> (i, name)) (file_id name))
    (Device.files dev)

let marked w (t, m) =
  Codec.tuple w t;
  Codec.bool w m

let r_marked r =
  let t = Codec.r_tuple r in
  let m = Codec.r_bool r in
  (t, m)

let counted w (t, n) =
  Codec.tuple w t;
  Codec.i64 w n

let r_counted r =
  let t = Codec.r_tuple r in
  let n = Codec.r_i64 r in
  (t, n)

let pair w (k, v) =
  Codec.str w k;
  Codec.str w v

let r_pair r =
  let k = Codec.r_str r in
  let v = Codec.r_str r in
  (k, v)

let encode im =
  let w = Codec.writer () in
  Codec.i64 w im.ck_id;
  Codec.i64 w im.ck_op_index;
  Codec.i64 w im.ck_next_txn_id;
  Codec.str w im.ck_strategy;
  Codec.list w Codec.tuple im.ck_base;
  Codec.list w counted im.ck_view;
  Codec.list w marked im.ck_a_net;
  Codec.list w marked im.ck_d_net;
  Codec.str w im.ck_bloom_bits;
  Codec.i64 w im.ck_bloom_insertions;
  Codec.list w pair im.ck_adaptive;
  Codec.contents w

let decode payload =
  let r = Codec.reader payload in
  let ck_id = Codec.r_i64 r in
  let ck_op_index = Codec.r_i64 r in
  let ck_next_txn_id = Codec.r_i64 r in
  let ck_strategy = Codec.r_str r in
  let ck_base = Codec.r_list r Codec.r_tuple in
  let ck_view = Codec.r_list r r_counted in
  let ck_a_net = Codec.r_list r r_marked in
  let ck_d_net = Codec.r_list r r_marked in
  let ck_bloom_bits = Codec.r_str r in
  let ck_bloom_insertions = Codec.r_i64 r in
  let ck_adaptive = Codec.r_list r r_pair in
  if not (Codec.at_end r) then raise (Codec.Corrupt "trailing bytes after image");
  {
    ck_id;
    ck_op_index;
    ck_next_txn_id;
    ck_strategy;
    ck_base;
    ck_view;
    ck_a_net;
    ck_d_net;
    ck_bloom_bits;
    ck_bloom_insertions;
    ck_adaptive;
  }

let to_bytes im =
  let payload = encode im in
  let w = Buffer.create (String.length magic + 8 + String.length payload) in
  Buffer.add_string w magic;
  Codec.add_frame w payload;
  Buffer.contents w

let of_bytes data =
  let ml = String.length magic in
  if String.length data < ml || String.sub data 0 ml <> magic then
    Error "bad magic"
  else begin
    let r = Codec.reader data in
    r.Codec.pos <- ml;
    match Codec.read_frame r with
    | Error Codec.Torn -> Error "torn image"
    | Error Codec.Bad_crc -> Error "image checksum failure"
    | Ok payload -> (
        match decode payload with
        | im -> if Codec.at_end r then Ok im else Error "trailing bytes"
        | exception Codec.Corrupt msg -> Error msg)
  end

let write dev im =
  let data = to_bytes im in
  Device.write_atomic dev ~name:(file_name im.ck_id) data;
  String.length data

let read dev ~id =
  match Device.read dev ~name:(file_name id) with
  | None -> Error "no such image"
  | Some data -> Result.map (fun im -> (im, String.length data)) (of_bytes data)

(* Newest image that validates; corrupt images are skipped (the log tail
   since the next-newest image covers the difference). *)
let latest dev =
  let rec pick = function
    | [] -> None
    | (id, _) :: rest -> (
        match read dev ~id with Ok found -> Some found | Error _ -> pick rest)
  in
  pick (List.rev (image_files dev))
