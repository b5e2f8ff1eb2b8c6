(* Versioned checkpoint images (DESIGN §9.3).

   A full image (magic "VMATCKP2") is a consistent snapshot of everything
   the engine would need to answer queries without the log: the net
   base-relation contents (sorted by tid — canonical and replayable), the
   materialized-view rows with duplicate counts (canonical value-key order),
   the net A/D sets of the hypothetical relation with their screening
   markers, and the adaptive controller's state as key/value pairs.  An
   image of the older format (magic "VMATCKP1", which also carried a Bloom
   filter's bits) fails with "bad magic", so recovery skips it like any
   other invalid image.

   A delta image (magic "VMATCKD1") records only what changed since its
   parent image: the base tids removed and the base tuples added, plus the
   fields recovery reads (op index, next txn id, strategy, adaptive
   pairs).  View rows and A/D sets stay in full images only:
   recovery rebuilds the strategy from the base and never reads them.
   Both kinds share the ckpt-%06d.img names and one id sequence.

   Layout: the magic, then one CRC32 frame holding the encoded image.
   Images are written atomically (write-temp + rename on real directories),
   so recovery sees an old image or a new image, never a torn one.  A chain
   resolves only when every link down to its full image validates;
   otherwise the next-newest image is tried, with the log tail covering the
   difference. *)

open Vmat_storage

let magic = "VMATCKP2"
let delta_magic = "VMATCKD1"

type image = {
  ck_id : int;
  ck_op_index : int;  (** operations covered: everything <= this is in the image *)
  ck_next_txn_id : int;
  ck_strategy : string;  (** running strategy name at checkpoint time *)
  ck_base : Tuple.t list;  (** net base contents, ascending tid *)
  ck_view : (Tuple.t * int) list;  (** view rows + duplicate counts, value-key order *)
  ck_a_net : (Tuple.t * bool) list;  (** net appended tuples + screening markers *)
  ck_d_net : (Tuple.t * bool) list;  (** net deleted tuples + screening markers *)
  ck_adaptive : (string * string) list;  (** controller state (sorted keys) *)
}

type delta = {
  cd_id : int;
  cd_parent : int;
  cd_op_index : int;
  cd_next_txn_id : int;
  cd_strategy : string;
  cd_adaptive : (string * string) list;
  cd_removed : int list;
  cd_added : Tuple.t list;
}

type file = Full of image | Delta of delta
type patch = (int * Tuple.t option) list

(* ------------------------------------------------------------------ *)
(* Patches: net changes by tid, folded by linear merges                 *)
(* ------------------------------------------------------------------ *)

let[@tail_mod_cons] rec apply base (patch : patch) =
  match (base, patch) with
  | _, [] -> base
  | [], (_, Some tuple) :: patch' -> tuple :: apply [] patch'
  | [], (_, None) :: patch' -> apply [] patch'
  | row :: base', (tid, change) :: patch' ->
      let c = Int.compare (Tuple.tid row) tid in
      if c < 0 then row :: apply base' patch
      else
        let rest = if c = 0 then base' else base in
        match change with
        | Some tuple -> tuple :: apply rest patch'
        | None -> apply rest patch'

let[@tail_mod_cons] rec compose (older : patch) (newer : patch) =
  match (older, newer) with
  | [], p | p, [] -> p
  | ((a, _) as o) :: older', ((b, _) as n) :: newer' ->
      if a < b then o :: compose older' newer
      else if a > b then n :: compose older newer'
      else n :: compose older' newer'

(* The two lists are disjoint and ascending (checked on decode). *)
let[@tail_mod_cons] rec patch_of_lists removed added =
  match (removed, added) with
  | [], [] -> []
  | tid :: removed', [] -> (tid, None) :: patch_of_lists removed' []
  | [], tuple :: added' -> (Tuple.tid tuple, Some tuple) :: patch_of_lists [] added'
  | tid :: removed', tuple :: added' ->
      if tid < Tuple.tid tuple then (tid, None) :: patch_of_lists removed' added
      else (Tuple.tid tuple, Some tuple) :: patch_of_lists removed added'

let patch_of_delta d = patch_of_lists d.cd_removed d.cd_added

type chain = {
  ch_full_id : int;
  ch_delta_ids : int list;
  ch_op_index : int;
  ch_next_txn_id : int;
  ch_strategy : string;
  ch_adaptive : (string * string) list;
  ch_base : Tuple.t list;
  ch_image_bytes : int list;
}

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

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

let encode ?capacity im =
  let w = Codec.writer ?size:capacity () in
  Codec.i64 w im.ck_id;
  Codec.i64 w im.ck_op_index;
  Codec.i64 w im.ck_next_txn_id;
  Codec.str w im.ck_strategy;
  Codec.list w Codec.tuple im.ck_base;
  Codec.list w counted im.ck_view;
  Codec.list w marked im.ck_a_net;
  Codec.list w marked im.ck_d_net;
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
    ck_adaptive;
  }

(* Sized from its counts, so the writer never grows: 48 bytes of fixed
   fields and list lengths, the strategy and adaptive strings, 8 bytes per
   removed tid and each added tuple's encoded length. *)
let delta_size d =
  List.fold_left
    (fun n tuple -> n + Codec.tuple_size tuple)
    (List.fold_left
       (fun n (k, v) -> n + 8 + String.length k + String.length v)
       (48 + String.length d.cd_strategy + (8 * List.length d.cd_removed))
       d.cd_adaptive)
    d.cd_added

let encode_delta d =
  let w = Codec.writer ~size:(delta_size d) () in
  Codec.i64 w d.cd_id;
  Codec.i64 w d.cd_parent;
  Codec.i64 w d.cd_op_index;
  Codec.i64 w d.cd_next_txn_id;
  Codec.str w d.cd_strategy;
  Codec.list w pair d.cd_adaptive;
  Codec.list w Codec.i64 d.cd_removed;
  Codec.list w Codec.tuple d.cd_added;
  Codec.contents w

let rec ascending key = function
  | a :: (b :: _ as rest) -> key a < key b && ascending key rest
  | [] | [ _ ] -> true

(* Disjointness of two ascending lists, by one merge walk. *)
let rec disjoint removed added =
  match (removed, added) with
  | [], _ | _, [] -> true
  | tid :: removed', tuple :: added' ->
      let c = Int.compare tid (Tuple.tid tuple) in
      c <> 0 && if c < 0 then disjoint removed' added else disjoint removed added'

let decode_delta payload =
  let r = Codec.reader payload in
  let cd_id = Codec.r_i64 r in
  let cd_parent = Codec.r_i64 r in
  let cd_op_index = Codec.r_i64 r in
  let cd_next_txn_id = Codec.r_i64 r in
  let cd_strategy = Codec.r_str r in
  let cd_adaptive = Codec.r_list r r_pair in
  let cd_removed = Codec.r_list r Codec.r_i64 in
  let cd_added = Codec.r_list r Codec.r_tuple in
  if not (Codec.at_end r) then raise (Codec.Corrupt "trailing bytes after delta");
  if cd_parent >= cd_id then raise (Codec.Corrupt "delta parent is not older than the delta");
  if not (ascending Fun.id cd_removed && ascending Tuple.tid cd_added) then
    raise (Codec.Corrupt "delta tids out of order");
  if not (disjoint cd_removed cd_added) then
    raise (Codec.Corrupt "delta tid both removed and added");
  {
    cd_id;
    cd_parent;
    cd_op_index;
    cd_next_txn_id;
    cd_strategy;
    cd_adaptive;
    cd_removed;
    cd_added;
  }

let framed magic payload =
  let w = Buffer.create (String.length magic + 8 + String.length payload) in
  Buffer.add_string w magic;
  Codec.add_frame w payload;
  Buffer.contents w

let to_bytes ?capacity im = framed magic (encode ?capacity im)
let delta_to_bytes d = framed delta_magic (encode_delta d)

let of_bytes data =
  let ml = String.length magic in
  let head = if String.length data < ml then "" else String.sub data 0 ml in
  let decoder =
    if String.equal head magic then Some (fun payload -> Full (decode payload))
    else if String.equal head delta_magic then
      Some (fun payload -> Delta (decode_delta payload))
    else None
  in
  match decoder with
  | None -> Error "bad magic"
  | Some decode_payload -> (
      let r = Codec.reader data in
      r.Codec.pos <- ml;
      match Codec.read_frame r with
      | Error Codec.Torn -> Error "torn image"
      | Error Codec.Bad_crc -> Error "image checksum failure"
      | Ok payload -> (
          match decode_payload payload with
          | file -> if Codec.at_end r then Ok file else Error "trailing bytes"
          | exception Codec.Corrupt msg -> Error msg))

let write dev ~id data =
  Device.write_atomic dev ~name:(file_name id) data;
  String.length data

let read dev ~id =
  match Device.read dev ~name:(file_name id) with
  | None -> Error "no such image"
  | Some data -> Result.map (fun file -> (file, String.length data)) (of_bytes data)

(* ------------------------------------------------------------------ *)
(* Chain resolution                                                    *)
(* ------------------------------------------------------------------ *)

(* The chain ending at image [id]: its full image's id, the image and its
   bytes, and the deltas above it with their bytes, oldest first.  [None]
   when any link is missing or fails to validate.  A delta must carry its
   own file's id, so a stray file cannot splice chains. *)
let links load id =
  let rec walk id deltas =
    match load id with
    | Error _ -> None
    | Ok (Full im, bytes) -> Some (id, im, bytes, deltas)
    | Ok (Delta d, bytes) ->
        if d.cd_id <> id then None else walk d.cd_parent ((d, bytes) :: deltas)
  in
  walk id []

let fold (full_id, im, full_bytes, deltas) =
  let patch = List.fold_left (fun acc (d, _) -> compose acc (patch_of_delta d)) [] deltas in
  let chain =
    {
      ch_full_id = full_id;
      ch_delta_ids = List.map (fun (d, _) -> d.cd_id) deltas;
      ch_op_index = im.ck_op_index;
      ch_next_txn_id = im.ck_next_txn_id;
      ch_strategy = im.ck_strategy;
      ch_adaptive = im.ck_adaptive;
      ch_base = apply im.ck_base patch;
      ch_image_bytes = full_bytes :: List.map snd deltas;
    }
  in
  match List.rev deltas with
  | [] -> chain
  | (newest, _) :: _ ->
      {
        chain with
        ch_op_index = newest.cd_op_index;
        ch_next_txn_id = newest.cd_next_txn_id;
        ch_strategy = newest.cd_strategy;
        ch_adaptive = newest.cd_adaptive;
      }

(* Newest image whose whole chain validates.  Each file is read and
   decoded at most once, however many candidate chains share it. *)
let latest dev =
  let seen = Hashtbl.create 16 in
  let load id =
    match Hashtbl.find_opt seen id with
    | Some found -> found
    | None ->
        let found = read dev ~id in
        Hashtbl.replace seen id found;
        found
  in
  let rec pick = function
    | [] -> None
    | (id, _) :: rest -> (
        match links load id with Some chain -> Some (fold chain) | None -> pick rest)
  in
  pick (List.rev (image_files dev))
