(* Append-only segmented log writer with group commit (DESIGN §9).

   Appends buffer frames in memory; [force] makes the buffered bytes
   durable in one device append and charges the page writes to the [Wal]
   meter category — so durability overhead shows up as its own column in
   every cost report.  [commit] counts committed transactions and forces
   once [group_commit] of them are pending: group_commit = 1 is the
   force-per-transaction discipline immediate maintenance would pay;
   larger values amortize the log force the way the paper's deferred
   strategy amortizes refresh work into the AD append it already performs.

   Crash points (via the context's [Fault] injector):
     wal.append      — a record entered the in-memory buffer (lost on crash)
     wal.force.torn  — mid-force: the first half of the buffered bytes hit
                       the device, the rest did not (a genuinely torn tail
                       that recovery must detect by CRC)
     wal.force.done  — the force completed
   The buffer is the simulated volatile memory: whatever was appended but
   not forced disappears with the process, exactly like a real WAL. *)

open Vmat_storage
module Recorder = Vmat_obs.Recorder

type config = {
  group_commit : int;  (** force after this many committed transactions *)
  segment_bytes : int;  (** rotate segments at this size *)
  checkpoint_every : int;  (** Durable: checkpoint after this many txns *)
}

let default_config =
  { group_commit = 1; segment_bytes = 1 lsl 16; checkpoint_every = 64 }

let config ?(group_commit = 1) ?(segment_bytes = 1 lsl 16) ?(checkpoint_every = 64) () =
  if group_commit < 1 then invalid_arg "Wal.config: group_commit must be >= 1";
  if segment_bytes < 64 then invalid_arg "Wal.config: segment_bytes must be >= 64";
  if checkpoint_every < 1 then invalid_arg "Wal.config: checkpoint_every must be >= 1";
  { group_commit; segment_bytes; checkpoint_every }

let segment_name i = Printf.sprintf "wal-%06d.log" i

let segment_index name =
  if String.length name = 14 && String.sub name 0 4 = "wal-"
     && Filename.check_suffix name ".log"
  then int_of_string_opt (String.sub name 4 6)
  else None

let segment_files dev =
  List.filter_map
    (fun name -> Option.map (fun i -> (i, name)) (segment_index name))
    (Device.files dev)

type t = {
  ctx : Ctx.t;
  dev : Device.t;
  config : config;
  pending : Buffer.t;
  mutable pending_records : int;
  mutable pending_commits : int;
  mutable seg : int;
  mutable seg_bytes : int;
  mutable next_txn_id : int;
  mutable forces : int;
  mutable appended_records : int;
  mutable forced_bytes : int;
}

let create ?(config = default_config) ?(next_txn_id = 1) ~ctx dev =
  (* Never append into a pre-existing segment: recovery may have truncated a
     torn tail, and starting a fresh segment keeps old bytes immutable. *)
  let seg =
    1 + List.fold_left (fun acc (i, _) -> max acc i) 0 (segment_files dev)
  in
  {
    ctx;
    dev;
    config;
    pending = Buffer.create 4096;
    pending_records = 0;
    pending_commits = 0;
    seg;
    seg_bytes = 0;
    next_txn_id;
    forces = 0;
    appended_records = 0;
    forced_bytes = 0;
  }

let device t = t.dev
let configuration t = t.config
let forces t = t.forces
let appended_records t = t.appended_records
let forced_bytes t = t.forced_bytes
let pending_bytes t = Buffer.length t.pending

let begin_txn t =
  let id = t.next_txn_id in
  t.next_txn_id <- id + 1;
  id

let next_txn_id t = t.next_txn_id

let append t record =
  Codec.add_frame t.pending (Record.encode record);
  t.pending_records <- t.pending_records + 1;
  t.appended_records <- t.appended_records + 1;
  Fault.point (Ctx.fault t.ctx) "wal.append"

let pages t bytes =
  let page_bytes = (Ctx.geometry t.ctx).Ctx.page_bytes in
  max 1 ((bytes + page_bytes - 1) / page_bytes)

let charge_pages t bytes =
  let pages = pages t bytes in
  let meter = Ctx.meter t.ctx in
  Cost_meter.with_category meter Cost_meter.Wal (fun () ->
      for _ = 1 to pages do
        Cost_meter.charge_write meter
      done);
  pages

let note_metrics t ~pages ~bytes ~records =
  let r = Ctx.recorder t.ctx in
  if Recorder.enabled r then begin
    Recorder.inc r ~help:"Log forces (group commits made durable)."
      "vmat_wal_forces_total" 1.;
    Recorder.inc r ~help:"Log bytes made durable." "vmat_wal_bytes_total"
      (float_of_int bytes);
    Recorder.inc r ~help:"Simulated pages charged for log forces."
      "vmat_wal_pages_total" (float_of_int pages);
    Recorder.inc r ~help:"Log records made durable." "vmat_wal_records_total"
      (float_of_int records)
  end

let rotate_if_full t =
  if t.seg_bytes >= t.config.segment_bytes then begin
    t.seg <- t.seg + 1;
    t.seg_bytes <- 0
  end

(* Make everything buffered durable.  The device write is split in two so
   that the [wal.force.torn] crash point leaves a half-written frame on the
   device — the torn tail the CRC framing exists to catch. *)
let force t =
  if Buffer.length t.pending > 0 then begin
    let fault = Ctx.fault t.ctx in
    let r = Ctx.recorder t.ctx in
    let data = Buffer.contents t.pending in
    let records = t.pending_records in
    Buffer.clear t.pending;
    t.pending_records <- 0;
    t.pending_commits <- 0;
    let body () =
      let name = segment_name t.seg in
      let len = String.length data in
      let half = len / 2 in
      Device.append t.dev ~name (String.sub data 0 half);
      Fault.point fault "wal.force.torn";
      Device.append t.dev ~name (String.sub data half (len - half));
      let pages = charge_pages t len in
      t.seg_bytes <- t.seg_bytes + len;
      t.forces <- t.forces + 1;
      t.forced_bytes <- t.forced_bytes + len;
      note_metrics t ~pages ~bytes:len ~records;
      rotate_if_full t;
      Fault.point fault "wal.force.done"
    in
    if Recorder.enabled r then Recorder.span r ~cat:"wal" "wal.force" body
    else body ()
  end

let commit t =
  t.pending_commits <- t.pending_commits + 1;
  if t.pending_commits >= t.config.group_commit then force t
