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
   tuple), maintained from the change stream it already sees.  A full
   checkpoint image snapshots that catalog plus whatever the optional probe
   exposes of the inner strategy's state (net A/D sets, adaptive kind); a
   delta image holds only the net base changes since the previous image,
   folded from the change lists committed since then.  The wrapper writes a
   fresh full image once the deltas chained to the last one would cost more
   pages than it did (DESIGN §9.3). *)

open Vmat_storage
module Strategy = Vmat_view.Strategy
module Bag = Vmat_relalg.Bag
module Hr = Vmat_hypo.Hr
module Recorder = Vmat_obs.Recorder

type probe = {
  p_ad : unit -> (Tuple.t * bool) list * (Tuple.t * bool) list;
  p_adaptive : unit -> (string * string) list;
}

(* Immutable record of closures: no module-level mutable state (D1). *)
let null_probe =
  {
    p_ad = (fun () -> ([], []));
    p_adaptive = (fun () -> []);
  }

let hr_probe hr =
  {
    p_ad = (fun () -> Hr.net_changes_unmetered hr);
    p_adaptive = (fun () -> []);
  }

(* The image chain the wrapper is extending. *)
type tip = {
  tip_id : int;  (* newest image written *)
  full_pages : int;  (* pages of the chain's full image *)
  delta_pages : int;  (* pages of the deltas written on it since *)
}

type t = {
  ctx : Ctx.t;
  wal : Wal.t;
  inner : Strategy.t;
  probe : probe;
  catalog : (int, Tuple.t) Hashtbl.t;
  mutable op_index : int;
  mutable txns_since_ckpt : int;
  mutable since_image : Strategy.change list list;
      (* committed since the last image, newest first *)
  mutable tip : tip option;
      (* None until the wrapper's first image, which is always full, so a
         chain never hangs off an image written before a restart *)
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

(* The net effect of [txns] (oldest first) on the tids they touch, with
   {!apply_catalog}'s semantics: a removed tid ends [None], an added one
   [Some] its last tuple.  Work is proportional to the changes, not the
   base; the fold is under the sort (vmlint D3). *)
let net_patch txns : Checkpoint.patch =
  let last = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (c : Strategy.change) ->
         Option.iter
           (fun old_tuple -> Hashtbl.replace last (Tuple.tid old_tuple) None)
           c.Strategy.before;
         Option.iter
           (fun new_tuple -> Hashtbl.replace last (Tuple.tid new_tuple) (Some new_tuple))
           c.Strategy.after))
    txns;
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Hashtbl.fold (fun tid change acc -> (tid, change) :: acc) last [])

let rec tid_ascending = function
  | a :: (b :: _ as rest) -> Tuple.tid a < Tuple.tid b && tid_ascending rest
  | [] | [ _ ] -> true

(* One merge of the base with the transactions' net patch; a base that is
   not already strictly tid-ascending goes through the catalog first. *)
let replay_base initial txns =
  let base = if tid_ascending initial then initial else sorted_catalog (catalog_of initial) in
  Checkpoint.apply base (net_patch txns)

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
    since_image = [];
    tip = None;
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

let full_image t ~id ~adaptive =
  let a_net, d_net = t.probe.p_ad () in
  {
    Checkpoint.ck_id = id;
    ck_op_index = t.op_index;
    ck_next_txn_id = Wal.next_txn_id t.wal;
    ck_strategy = t.inner.Strategy.name;
    ck_base = base_contents t;
    ck_view = view_rows t.inner;
    ck_a_net = a_net;
    ck_d_net = d_net;
    ck_adaptive = adaptive;
  }

(* The next image's bytes, its kind, and the chain tip after writing it.
   A delta is encoded first; it is written unless the chain's delta pages
   plus its own would exceed the full image's pages (Hanson's trade, in
   pages: recovery reads the full image and every delta on it). *)
let next_image t ~id =
  let adaptive =
    List.sort (fun (a, _) (b, _) -> String.compare a b) (t.probe.p_adaptive ())
  in
  let full () =
    let data = Checkpoint.to_bytes (full_image t ~id ~adaptive) in
    let full_pages = Wal.pages t.wal (String.length data) in
    (data, "full", { tip_id = id; full_pages; delta_pages = 0 })
  in
  match t.tip with
  | None -> full ()
  | Some tip ->
      let delta =
        Checkpoint.delta_of_patch ~id ~parent:tip.tip_id ~op_index:t.op_index
          ~next_txn_id:(Wal.next_txn_id t.wal) ~strategy:t.inner.Strategy.name ~adaptive
          (net_patch (List.rev t.since_image))
      in
      let data = Checkpoint.delta_to_bytes delta in
      let pages = Wal.pages t.wal (String.length data) in
      if tip.delta_pages + pages > tip.full_pages then full ()
      else (data, "delta", { tip with tip_id = id; delta_pages = tip.delta_pages + pages })

let take_checkpoint t =
  let fault = Ctx.fault t.ctx in
  Fault.point fault "ckpt.begin";
  (* The log must durably cover everything the image will claim. *)
  Wal.force t.wal;
  let id = t.next_ckpt_id in
  let data, kind, tip = next_image t ~id in
  let bytes = Checkpoint.write (Wal.device t.wal) ~id data in
  ignore (Wal.charge_pages t.wal bytes);
  t.tip <- Some tip;
  t.since_image <- [];
  t.next_ckpt_id <- id + 1;
  t.checkpoints_taken <- t.checkpoints_taken + 1;
  Fault.point fault "ckpt.written";
  Wal.append t.wal (Record.Checkpoint_note { ckpt_id = id; op_index = t.op_index });
  Wal.force t.wal;
  let r = Ctx.recorder t.ctx in
  if Recorder.enabled r then begin
    Recorder.inc r ~help:"Checkpoint images durably written (full and delta)."
      "vmat_wal_checkpoints_total" 1.;
    Recorder.set_gauge r ~help:"Size of the newest checkpoint image (bytes)."
      "vmat_wal_image_bytes" (float_of_int bytes);
    Recorder.instant r ~cat:"wal" "checkpoint"
      ~args:[ ("id", string_of_int id); ("kind", kind); ("op_index", string_of_int t.op_index) ]
  end;
  Fault.point fault "ckpt.done"

let handle_transaction t changes =
  let txn_id = Wal.begin_txn t.wal in
  Wal.append t.wal (Record.Txn_begin { txn_id });
  List.iter (fun c -> Wal.append t.wal (Record.change_of c ~txn_id)) changes;
  t.inner.Strategy.handle_transaction changes;
  apply_catalog t.catalog changes;
  t.since_image <- changes :: t.since_image;
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
