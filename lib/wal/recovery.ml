(* ARIES-lite crash recovery (DESIGN §9).

   Three phases, all deterministic:

   1. Scan: resolve the newest checkpoint chain that validates (a full
      image plus the deltas folded onto it), then parse every log segment
      in order, stopping at the first invalid frame (torn tail or
      CRC failure).  Records are grouped into transactions; a transaction
      counts only once its Commit record lies in the valid prefix —
      uncommitted work is discarded, exactly the no-steal/no-undo
      discipline a redo-only log affords.

   2. Repair: truncate the invalid tail (and drop any later segments) so
      the continuing engine appends over a clean prefix.

   3. Replay: rebuild the strategy from the chain's folded base contents
      via the caller's [build] function and push every committed post-image
      transaction through [Strategy.handle_transaction] — the *existing*
      differential update machinery (Delta/Strategy_sp/Strategy_join) is
      the redo engine; there is no separate recovery interpreter.

   The resume point (1-based operation index) is the max of the image's
   coverage and the last committed transaction's op_index; the workload
   driver re-issues everything after it, which also covers transactions
   that were lost because a group commit had not been forced (client-retry
   semantics). *)

open Vmat_storage
module Strategy = Vmat_view.Strategy
module Recorder = Vmat_obs.Recorder

type txn = {
  rx_id : int;
  rx_op_index : int;
  rx_changes : Strategy.change list;
}

type scan = {
  sc_image : Checkpoint.chain option;
  sc_txns : txn list;  (** committed, post-image, in log order *)
  sc_resume : int;  (** 1-based op index recovery restores through *)
  sc_next_txn_id : int;
  sc_tail : Record.tail;
  sc_invalid : (string * int) option;
      (** segment holding the first invalid frame, and its valid-prefix
          size — what {!repair} truncates *)
  sc_records : int;  (** valid log records scanned *)
  sc_log_bytes : int;  (** valid log bytes scanned *)
}

(* Charge the log/image reads to the [Wal] category when a context is
   supplied (`vmperf recover` reports recovery I/O in the same cost terms
   as everything else); tests scan uncharged. *)
let charge_read_pages ctx bytes =
  match ctx with
  | None -> ()
  | Some ctx ->
      let page_bytes = (Ctx.geometry ctx).Ctx.page_bytes in
      let pages = max 1 ((bytes + page_bytes - 1) / page_bytes) in
      let meter = Ctx.meter ctx in
      Cost_meter.with_category meter Cost_meter.Wal (fun () ->
          for _ = 1 to pages do
            Cost_meter.charge_read meter
          done)

let scan ?ctx dev =
  let image = Checkpoint.latest dev in
  Option.iter
    (fun ch -> List.iter (charge_read_pages ctx) ch.Checkpoint.ch_image_bytes)
    image;
  let image_op =
    match image with Some ch -> ch.Checkpoint.ch_op_index | None -> 0
  in
  let open_txns : (int, Strategy.change list ref) Hashtbl.t = Hashtbl.create 8 in
  let committed = ref [] in
  let max_txn_id = ref 0 in
  let records = ref 0 in
  let log_bytes = ref 0 in
  let invalid = ref None in
  let tail = ref Record.Clean in
  let consume = function
    | Record.Txn_begin { txn_id } ->
        max_txn_id := max !max_txn_id txn_id;
        Hashtbl.replace open_txns txn_id (ref [])
    | Record.Change ({ txn_id; _ } as c) -> (
        match Hashtbl.find_opt open_txns txn_id with
        | Some changes -> (
            match Record.to_change (Record.Change c) with
            | Some change -> changes := change :: !changes
            | None -> ())
        | None -> () (* change for a txn whose begin predates the image: skip *))
    | Record.Commit { txn_id; op_index } ->
        (match Hashtbl.find_opt open_txns txn_id with
        | Some changes ->
            Hashtbl.remove open_txns txn_id;
            if op_index > image_op then
              committed :=
                { rx_id = txn_id; rx_op_index = op_index; rx_changes = List.rev !changes }
                :: !committed
        | None -> ());
        max_txn_id := max !max_txn_id txn_id
    | Record.Checkpoint_note _ -> ()
  in
  (try
     List.iter
       (fun (_, name) ->
         match Device.read dev ~name with
         | None -> ()
         | Some data ->
             charge_read_pages ctx (String.length data);
             let s = Record.scan_bytes data in
             List.iter consume s.Record.records;
             records := !records + List.length s.Record.records;
             log_bytes := !log_bytes + s.Record.valid_bytes;
             if s.Record.tail <> Record.Clean then begin
               tail := s.Record.tail;
               invalid := Some (name, s.Record.valid_bytes);
               (* nothing after the first invalid frame can be trusted *)
               raise Exit
             end)
       (Wal.segment_files dev)
   with Exit -> ());
  let txns = List.rev !committed in
  let resume =
    List.fold_left (fun acc tx -> max acc tx.rx_op_index) image_op txns
  in
  let next_txn_id =
    let from_image =
      match image with Some ch -> ch.Checkpoint.ch_next_txn_id | None -> 1
    in
    max from_image (!max_txn_id + 1)
  in
  {
    sc_image = image;
    sc_txns = txns;
    sc_resume = resume;
    sc_next_txn_id = next_txn_id;
    sc_tail = !tail;
    sc_invalid = !invalid;
    sc_records = !records;
    sc_log_bytes = !log_bytes;
  }

(* Truncate the invalid tail and drop any segments after it, so the
   continuing engine appends over a clean prefix. *)
let repair dev s =
  match s.sc_invalid with
  | None -> ()
  | Some (name, keep) ->
      Device.truncate dev ~name keep;
      let bad_from =
        match Wal.segment_index name with Some i -> i | None -> max_int
      in
      List.iter
        (fun (i, seg) -> if i > bad_from then Device.remove dev ~name:seg)
        (Wal.segment_files dev)

type build = image:Checkpoint.chain option -> Tuple.t list -> Strategy.t * Durable.probe

(* Redo: rebuild from the chain's folded base contents (or the original
   initial population) and replay the committed tail through the ordinary
   differential update machinery. *)
let replay s ~initial ~(build : build) =
  let base0 =
    match s.sc_image with Some ch -> ch.Checkpoint.ch_base | None -> initial
  in
  let strategy, probe = build ~image:s.sc_image base0 in
  let txns = List.map (fun tx -> tx.rx_changes) s.sc_txns in
  List.iter strategy.Strategy.handle_transaction txns;
  (strategy, probe, Durable.replay_base base0 txns)

let recover ?config ~ctx ~dev ~initial ~(build : build) () =
  let r = Ctx.recorder ctx in
  let body () =
    let s = scan ~ctx dev in
    repair dev s;
    let strategy, probe, base = replay s ~initial ~build in
    let durable =
      Durable.wrap ?config ~probe ~op_index:s.sc_resume
        ~next_txn_id:s.sc_next_txn_id ~ctx ~dev ~initial:base strategy
    in
    if Recorder.enabled r then
      Recorder.instant r ~cat:"wal" "recovered"
        ~args:
          [
            ("resume", string_of_int s.sc_resume);
            ("txns", string_of_int (List.length s.sc_txns));
            ("tail", Record.tail_name s.sc_tail);
          ];
    (durable, s)
  in
  if Recorder.enabled r then Recorder.span r ~cat:"wal" "recovery" body
  else body ()
