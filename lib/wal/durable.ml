(* The durability wrapper: an ordinary [Strategy.t] that write-ahead-logs
   every transaction through {!Wal} and periodically checkpoints through
   {!Checkpoint} (DESIGN §9).  It drops in front of any of the paper's
   strategies (and the adaptive wrapper) without changing their answers:
   logging happens before the inner strategy applies the changes, commit
   follows application, and queries pass straight through — so a
   `--durability wal` run differs from `--durability none` only by the
   [Wal]-category charges, which is exactly the durability-overhead axis
   the bench figures report.

   The wrapper keeps an uncharged catalog of the net base contents (tid →
   tuple), maintained from the change stream it already sees; checkpoint
   images snapshot that catalog plus whatever the optional probe exposes of
   the inner strategy's state (net A/D sets, Bloom bits, adaptive kind). *)

open Vmat_storage
module Strategy = Vmat_view.Strategy
module Bag = Vmat_relalg.Bag
module Hr = Vmat_hypo.Hr
module Bloom = Vmat_util.Bloom
module Recorder = Vmat_obs.Recorder

type probe = {
  p_ad : unit -> (Tuple.t * bool) list * (Tuple.t * bool) list;
  p_bloom : unit -> (string * int) option;
  p_adaptive : unit -> (string * string) list;
}

(* Immutable record of closures: no module-level mutable state (D1). *)
let null_probe =
  {
    p_ad = (fun () -> ([], []));
    p_bloom = (fun () -> None);
    p_adaptive = (fun () -> []);
  }

let hr_probe hr =
  {
    p_ad = (fun () -> Hr.net_changes_unmetered hr);
    p_bloom =
      (fun () ->
        let b = Hr.bloom hr in
        Some (Bloom.snapshot_bits b, Bloom.cardinality b));
    p_adaptive = (fun () -> []);
  }

type t = {
  ctx : Ctx.t;
  wal : Wal.t;
  inner : Strategy.t;
  probe : probe;
  catalog : (int, Tuple.t) Hashtbl.t;
  mutable op_index : int;
  mutable txns_since_ckpt : int;
  mutable next_ckpt_id : int;
  mutable checkpoints_taken : int;
}

(* The catalog: net base contents keyed by tid.  Recovery derives the
   continuing engine's base through {!replay_base}, so the wrapper and the
   recovery path share one implementation of it. *)
let catalog_of tuples =
  let catalog = Hashtbl.create (max 16 (List.length tuples)) in
  List.iter (fun tuple -> Hashtbl.replace catalog (Tuple.tid tuple) tuple) tuples;
  catalog

let apply_catalog catalog (changes : Strategy.change list) =
  List.iter
    (fun (c : Strategy.change) ->
      (match c.Strategy.before with
      | Some old_tuple -> Hashtbl.remove catalog (Tuple.tid old_tuple)
      | None -> ());
      match c.Strategy.after with
      | Some new_tuple -> Hashtbl.replace catalog (Tuple.tid new_tuple) new_tuple
      | None -> ())
    changes

let by_tid a b = Int.compare (Tuple.tid a) (Tuple.tid b)

(* Canonical (ascending-tid) contents; the fold is under the sort so hash
   order never escapes (vmlint D3). *)
let sorted_catalog catalog =
  List.sort by_tid (Hashtbl.fold (fun _ tuple acc -> tuple :: acc) catalog [])

let replay_base initial txns =
  let catalog = catalog_of initial in
  List.iter (apply_catalog catalog) txns;
  sorted_catalog catalog

let wrap ?(config = Wal.default_config) ?(probe = null_probe) ?(op_index = 0)
    ?next_txn_id ~ctx ~dev ~initial inner =
  let catalog = catalog_of initial in
  let next_ckpt_id =
    1 + List.fold_left (fun acc (i, _) -> max acc i) 0 (Checkpoint.image_files dev)
  in
  {
    ctx;
    wal = Wal.create ~config ?next_txn_id ~ctx dev;
    inner;
    probe;
    catalog;
    op_index;
    txns_since_ckpt = 0;
    next_ckpt_id;
    checkpoints_taken = 0;
  }

let wal t = t.wal
let inner t = t.inner
let op_index t = t.op_index
let checkpoints_taken t = t.checkpoints_taken

let base_contents t = sorted_catalog t.catalog

(* Canonical view rows (value-key order) from a strategy's logical
   contents. *)
let view_rows (s : Strategy.t) =
  let acc = ref [] in
  Bag.iter (s.Strategy.view_contents ()) (fun tuple count ->
      acc := (tuple, count) :: !acc);
  List.sort
    (fun (a, _) (b, _) -> String.compare (Tuple.value_key a) (Tuple.value_key b))
    !acc

let take_checkpoint t =
  let fault = Ctx.fault t.ctx in
  Fault.point fault "ckpt.begin";
  (* The log must durably cover everything the image will claim. *)
  Wal.force t.wal;
  let a_net, d_net = t.probe.p_ad () in
  let bloom_bits, bloom_insertions =
    match t.probe.p_bloom () with Some (bits, n) -> (bits, n) | None -> ("", 0)
  in
  let image =
    {
      Checkpoint.ck_id = t.next_ckpt_id;
      ck_op_index = t.op_index;
      ck_next_txn_id = Wal.next_txn_id t.wal;
      ck_strategy = t.inner.Strategy.name;
      ck_base = base_contents t;
      ck_view = view_rows t.inner;
      ck_a_net = a_net;
      ck_d_net = d_net;
      ck_bloom_bits = bloom_bits;
      ck_bloom_insertions = bloom_insertions;
      ck_adaptive =
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (t.probe.p_adaptive ());
    }
  in
  let bytes = Checkpoint.write (Wal.device t.wal) image in
  ignore (Wal.charge_pages t.wal bytes);
  t.next_ckpt_id <- t.next_ckpt_id + 1;
  t.checkpoints_taken <- t.checkpoints_taken + 1;
  Fault.point fault "ckpt.written";
  Wal.append t.wal
    (Record.Checkpoint_note { ckpt_id = image.Checkpoint.ck_id; op_index = t.op_index });
  Wal.force t.wal;
  let r = Ctx.recorder t.ctx in
  if Recorder.enabled r then begin
    Recorder.inc r ~help:"Checkpoint images durably written."
      "vmat_wal_checkpoints_total" 1.;
    Recorder.set_gauge r ~help:"Size of the newest checkpoint image (bytes)."
      "vmat_wal_image_bytes" (float_of_int bytes);
    Recorder.instant r ~cat:"wal" "checkpoint"
      ~args:
        [
          ("id", string_of_int image.Checkpoint.ck_id);
          ("op_index", string_of_int t.op_index);
        ]
  end;
  Fault.point fault "ckpt.done"

let handle_transaction t changes =
  let txn_id = Wal.begin_txn t.wal in
  Wal.append t.wal (Record.Txn_begin { txn_id });
  List.iter (fun c -> Wal.append t.wal (Record.change_of c ~txn_id)) changes;
  t.inner.Strategy.handle_transaction changes;
  apply_catalog t.catalog changes;
  t.op_index <- t.op_index + 1;
  Wal.append t.wal (Record.Commit { txn_id; op_index = t.op_index });
  Wal.commit t.wal;
  t.txns_since_ckpt <- t.txns_since_ckpt + 1;
  if t.txns_since_ckpt >= (Wal.configuration t.wal).Wal.checkpoint_every then begin
    t.txns_since_ckpt <- 0;
    take_checkpoint t
  end

let strategy t =
  {
    Strategy.name = t.inner.Strategy.name;
    handle_transaction = (fun changes -> handle_transaction t changes);
    answer_query =
      (fun q ->
        t.op_index <- t.op_index + 1;
        t.inner.Strategy.answer_query q);
    scalar_query =
      (fun () ->
        t.op_index <- t.op_index + 1;
        t.inner.Strategy.scalar_query ());
    view_contents = (fun () -> t.inner.Strategy.view_contents ());
  }

let flush t = Wal.force t.wal
let checkpoint_now t = take_checkpoint t
