(* The WAL record vocabulary (DESIGN §9).  One record per log event, each
   wrapped in a CRC32 frame by [Codec.frame]:

     [u32 payload_len][u32 crc32(payload)][tag u8][fields...]

   A transaction is Txn_begin, one Change per tuple modification, then
   Commit; Commit carries the 1-based index of the operation in the
   workload stream, which is what recovery reports as the resume point.
   Checkpoint_note records in the log that image [ckpt_id], covering
   everything up to [op_index], was durably written; forcing it completes
   the checkpoint (the ckpt.done crash point).  It is an audit marker for
   log readers ([describe]): recovery does not read it, finds images by
   listing the device, and scans every segment. *)

open Vmat_storage
module Strategy = Vmat_view.Strategy

type t =
  | Txn_begin of { txn_id : int }
  | Change of { txn_id : int; before : Tuple.t option; after : Tuple.t option }
  | Commit of { txn_id : int; op_index : int }
  | Checkpoint_note of { ckpt_id : int; op_index : int }

let tag = function
  | Txn_begin _ -> 1
  | Change _ -> 2
  | Commit _ -> 3
  | Checkpoint_note _ -> 4

let describe = function
  | Txn_begin { txn_id } -> Printf.sprintf "txn-begin %d" txn_id
  | Change { txn_id; before; after } ->
      Printf.sprintf "change txn=%d %s->%s" txn_id
        (match before with None -> "_" | Some t -> string_of_int (Tuple.tid t))
        (match after with None -> "_" | Some t -> string_of_int (Tuple.tid t))
  | Commit { txn_id; op_index } -> Printf.sprintf "commit %d @op %d" txn_id op_index
  | Checkpoint_note { ckpt_id; op_index } ->
      Printf.sprintf "checkpoint %d @op %d" ckpt_id op_index

let encode r =
  let w = Codec.writer () in
  Codec.u8 w (tag r);
  (match r with
  | Txn_begin { txn_id } -> Codec.i64 w txn_id
  | Change { txn_id; before; after } ->
      Codec.i64 w txn_id;
      Codec.option w Codec.tuple before;
      Codec.option w Codec.tuple after
  | Commit { txn_id; op_index } ->
      Codec.i64 w txn_id;
      Codec.i64 w op_index
  | Checkpoint_note { ckpt_id; op_index } ->
      Codec.i64 w ckpt_id;
      Codec.i64 w op_index);
  Codec.contents w

let decode payload =
  let r = Codec.reader payload in
  let record =
    match Codec.r_u8 r with
    | 1 -> Txn_begin { txn_id = Codec.r_i64 r }
    | 2 ->
        let txn_id = Codec.r_i64 r in
        let before = Codec.r_option r Codec.r_tuple in
        let after = Codec.r_option r Codec.r_tuple in
        Change { txn_id; before; after }
    | 3 ->
        let txn_id = Codec.r_i64 r in
        let op_index = Codec.r_i64 r in
        Commit { txn_id; op_index }
    | 4 ->
        let ckpt_id = Codec.r_i64 r in
        let op_index = Codec.r_i64 r in
        Checkpoint_note { ckpt_id; op_index }
    | n -> raise (Codec.Corrupt (Printf.sprintf "bad record tag %d" n))
  in
  if not (Codec.at_end r) then
    raise (Codec.Corrupt "trailing bytes after record payload");
  record

let to_frame r = Codec.frame (encode r)

let change_of (c : Strategy.change) ~txn_id =
  Change { txn_id; before = c.Strategy.before; after = c.Strategy.after }

let to_change = function
  | Change { before; after; _ } -> Some { Strategy.before; after }
  | _ -> None

(* Tail classification after the last whole record. *)
type tail = Clean | Torn | Bad_crc

let tail_name = function Clean -> "clean" | Torn -> "torn" | Bad_crc -> "bad-crc"

type scan = {
  records : t list;  (** in log order *)
  valid_bytes : int;  (** bytes of the valid prefix *)
  tail : tail;
}

(* Parse a byte string into records, stopping at the first invalid frame.
   A frame whose CRC checks but whose payload does not decode is treated as
   [Bad_crc]-grade corruption (it cannot be a clean truncation). *)
let scan_bytes data =
  let r = Codec.reader data in
  let records = ref [] in
  let rec loop () =
    if Codec.at_end r then Clean
    else
      match Codec.read_frame r with
      | Error Codec.Torn -> Torn
      | Error Codec.Bad_crc -> Bad_crc
      | Ok payload -> (
          match decode payload with
          | record ->
              records := record :: !records;
              loop ()
          | exception Codec.Corrupt _ ->
              (* rewind to the frame start for an honest valid_bytes *)
              r.Codec.pos <- r.Codec.pos - (String.length payload + 8);
              Bad_crc)
  in
  let tail = loop () in
  { records = List.rev !records; valid_bytes = r.Codec.pos; tail }
