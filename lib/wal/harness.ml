(* Crash-equivalence harness (DESIGN §9).

   The property `vmperf crash-test` and the qcheck suite check:

     for every crash point k and every strategy,
       recover (crash at k)  ≡  uncrashed run

   "≡" compares *logical* outcomes — every query answer (by stream
   position) and the final view contents, both canonicalized by value key
   (tids of strategy-private view tuples are legitimately reassigned when
   a strategy is rebuilt) — plus the net base contents bit-for-bit
   (logged changes carry original tids, so the catalog replays exactly).

   The enumeration is deterministic: one counting run (crash_at = 0)
   learns the number of points K the workload passes, then each k in
   1..K runs the same workload with [Fault.create ~crash_at:k], catches
   {!Vmat_storage.Fault.Crash}, recovers on the surviving device with a
   fresh fault-free context pinned to the same [first_tid], and re-drives
   the operation stream from the recovery resume point (client-retry
   semantics for transactions whose group commit had not been forced). *)

open Vmat_storage
module Strategy = Vmat_view.Strategy
module Strategy_sp = Vmat_view.Strategy_sp
module Migrate = Vmat_adaptive.Migrate
module Adaptive = Vmat_adaptive.Adaptive
module Params = Vmat_cost.Params
module Experiment = Vmat_workload.Experiment
module Stream = Vmat_workload.Stream
module Dataset = Vmat_workload.Dataset

type kind = Static of Migrate.kind | Adaptive_k

let all_kinds = List.map (fun k -> Static k) Migrate.all_kinds @ [ Adaptive_k ]

let kind_name = function
  | Static k -> Migrate.strategy_name k
  | Adaptive_k -> "adaptive"

let kind_of_name s =
  if String.equal s "adaptive" then Some Adaptive_k
  else Option.map (fun k -> Static k) (Migrate.kind_of_name s)

type spec = {
  hp_params : Params.t;
  hp_kind : kind;
  hp_seed : int;
  hp_config : Wal.config;
}

let spec ?(seed = 42) ?(config = Wal.default_config) ~params kind =
  { hp_params = params; hp_kind = kind; hp_seed = seed; hp_config = config }

(* ------------------------------------------------------------------ *)
(* Canonical outcomes                                                  *)
(* ------------------------------------------------------------------ *)

(* Merge rows by value key (distinct tids carrying equal values are the
   same logical row) and order by key; the Hashtbl.fold sits under the
   sort so hash order never escapes (vmlint D3). *)
let canonical_rows (rows : (Tuple.t * int) list) =
  let tbl = Hashtbl.create (max 16 (List.length rows)) in
  List.iter
    (fun (tuple, count) ->
      let key = Tuple.value_key tuple in
      let prior = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (prior + count))
    rows;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun key count acc -> (key, count) :: acc) tbl [])

let render_rows rows =
  String.concat ";"
    (List.map (fun (key, count) -> Printf.sprintf "%s*%d" key count) rows)

type outcome = {
  oc_answers : (int * string) list;
      (** 0-based stream position of each query, canonical answer *)
  oc_view : (string * int) list;  (** canonical final view rows *)
  oc_base : string list;  (** net base contents: "tid key" lines, tid order *)
  oc_ops : int;  (** operations the durable engine counted *)
  oc_checkpoints : int;
}

let equal_rows =
  List.equal (fun (a, ca) (b, cb) -> String.equal a b && Int.equal ca cb)

let outcome_equal a b =
  List.equal
    (fun (ia, sa) (ib, sb) -> Int.equal ia ib && String.equal sa sb)
    a.oc_answers b.oc_answers
  && equal_rows a.oc_view b.oc_view
  && List.equal String.equal a.oc_base b.oc_base

let outcome_of ~answers durable =
  {
    oc_answers =
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Hashtbl.fold (fun i s acc -> (i, s) :: acc) answers []);
    oc_view = canonical_rows (Durable.view_rows (Durable.inner durable));
    oc_base =
      List.map
        (fun tuple ->
          Printf.sprintf "%d %s" (Tuple.tid tuple) (Tuple.value_key tuple))
        (Durable.base_contents durable);
    oc_ops = Durable.op_index durable;
    oc_checkpoints = Durable.checkpoints_taken durable;
  }

let state_lines outcome =
  ("# vmat durable state v1"
  :: List.map (fun (key, count) -> Printf.sprintf "view %s *%d" key count) outcome.oc_view)
  @ List.map (fun line -> "base " ^ line) outcome.oc_base

(* ------------------------------------------------------------------ *)
(* Building strategies (fresh and from a checkpoint image)             *)
(* ------------------------------------------------------------------ *)

let adaptive_probe a =
  {
    Durable.null_probe with
    Durable.p_adaptive =
      (fun () -> [ ("kind", Migrate.kind_name (Adaptive.current_kind a)) ]);
  }

(* [image] (the resolved checkpoint chain) matters only to the adaptive
   wrapper, which resumes in the kind it had migrated to; the other
   strategies rebuild purely from the base contents — a freshly built
   deferred view (empty differential file) is logically a just-refreshed
   one. *)
let build spec ~ctx ~(dataset : Dataset.model1) ~image initial =
  let env =
    {
      Strategy_sp.ctx;
      view = dataset.Dataset.m1_view;
      initial;
      ad_buckets = Experiment.ad_buckets_for spec.hp_params;
    }
  in
  match spec.hp_kind with
  | Static Migrate.Deferred ->
      let strategy, hr = Strategy_sp.deferred_introspect env in
      (strategy, Durable.hr_probe hr)
  | Static k -> (Migrate.build env k, Durable.null_probe)
  | Adaptive_k ->
      let initial_kind =
        match image with
        | None -> None
        | Some ch -> (
            match List.assoc_opt "kind" ch.Checkpoint.ch_adaptive with
            | Some name -> Migrate.kind_of_name name
            | None -> None)
      in
      let a = Adaptive.wrap ?initial_kind env in
      (Adaptive.strategy a, adaptive_probe a)

(* ------------------------------------------------------------------ *)
(* Driving the stream                                                  *)
(* ------------------------------------------------------------------ *)

let drive ?(from_op = 0) durable ops answers =
  let s = Durable.strategy durable in
  List.iteri
    (fun i op ->
      if i >= from_op then
        match op with
        | Stream.Txn changes -> s.Strategy.handle_transaction changes
        | Stream.Query q ->
            Hashtbl.replace answers i (render_rows (canonical_rows (s.Strategy.answer_query q))))
    ops

(* One full run over [dev] under [fault]; raises [Fault.Crash] through.
   [answers] is the client-side record of observed query responses — it
   lives outside the simulated machine, so it survives a crash. *)
let run_once spec ~fault ~dev ~answers =
  let setup = Experiment.model1_setup ~seed:spec.hp_seed spec.hp_params in
  let ctx = Experiment.fresh_ctx ~fault spec.hp_params ~first_tid:setup.Experiment.ms_first_tid in
  let initial = setup.Experiment.ms_dataset.Dataset.m1_tuples in
  let strategy, probe =
    build spec ~ctx ~dataset:setup.Experiment.ms_dataset ~image:None initial
  in
  let durable =
    Durable.wrap ~config:spec.hp_config ~probe ~ctx ~dev ~initial strategy
  in
  drive durable setup.Experiment.ms_ops answers;
  Durable.flush durable;
  outcome_of ~answers durable

let reference ?(keep_labels = false) spec =
  let fault = Fault.create ~crash_at:0 ~keep_labels () in
  let outcome =
    run_once spec ~fault ~dev:(Device.memory ()) ~answers:(Hashtbl.create 64)
  in
  (outcome, Fault.points_seen fault, Fault.labels fault)

(* ------------------------------------------------------------------ *)
(* Crash, recover, re-drive                                            *)
(* ------------------------------------------------------------------ *)

type crash_report = {
  cr_point : int;
  cr_label : string;  (** crash-point label ("" when the run completed) *)
  cr_crashed : bool;  (** false when [crash_at] exceeded the point count *)
  cr_resume : int;
  cr_txns_replayed : int;
  cr_tail : Record.tail;
  cr_outcome : outcome;
}

let recover_and_finish spec ~dev ~answers =
  let setup = Experiment.model1_setup ~seed:spec.hp_seed spec.hp_params in
  let ctx = Experiment.fresh_ctx spec.hp_params ~first_tid:setup.Experiment.ms_first_tid in
  let initial = setup.Experiment.ms_dataset.Dataset.m1_tuples in
  let build_fn ~image base =
    build spec ~ctx ~dataset:setup.Experiment.ms_dataset ~image base
  in
  let durable, s =
    Recovery.recover ~config:spec.hp_config ~ctx ~dev ~initial ~build:build_fn ()
  in
  (* Client retry: re-issue every operation past the recovery point
     (pre-crash answers at earlier positions stand; later queries are
     re-answered and overwrite). *)
  drive ~from_op:s.Recovery.sc_resume durable setup.Experiment.ms_ops answers;
  Durable.flush durable;
  (outcome_of ~answers durable, s)

let crash_and_recover spec ~crash_at =
  let dev = Device.memory () in
  let fault = Fault.create ~crash_at () in
  let answers = Hashtbl.create 64 in
  match run_once spec ~fault ~dev ~answers with
  | outcome ->
      (* [crash_at] exceeded the number of points this workload passes:
         the run completed normally. *)
      {
        cr_point = crash_at;
        cr_label = "";
        cr_crashed = false;
        cr_resume = outcome.oc_ops;
        cr_txns_replayed = 0;
        cr_tail = Record.Clean;
        cr_outcome = outcome;
      }
  | exception Fault.Crash (label, _) ->
      (* The simulated machine died: all volatile state (the engine, its
         buffered log records) is gone; [dev] and the client-side
         [answers] survive.  Every op at a position < resume completed
         pre-crash, so every earlier query already has its (reference-
         identical) answer; later queries are re-answered on re-drive. *)
      let outcome, s = recover_and_finish spec ~dev ~answers in
      {
        cr_point = crash_at;
        cr_label = label;
        cr_crashed = true;
        cr_resume = s.Recovery.sc_resume;
        cr_txns_replayed = List.length s.Recovery.sc_txns;
        cr_tail = s.Recovery.sc_tail;
        cr_outcome = outcome;
      }

(* CLI building blocks (`vmperf crash-test --dir` / `vmperf recover`):
   run on a caller-supplied device — typically a [Device.dir] — so the
   crashed state can be inspected and recovered across processes. *)

let crash_into spec ~dev ~crash_at =
  let fault = Fault.create ~crash_at () in
  let answers = Hashtbl.create 64 in
  match run_once spec ~fault ~dev ~answers with
  | outcome -> Ok outcome
  | exception Fault.Crash (label, point) -> Error (label, point)

let recover_on spec ~dev =
  (* A fresh answers table: this models a new client session, so only the
     re-driven (post-resume) queries appear in [oc_answers]; the view and
     base state are complete regardless. *)
  recover_and_finish spec ~dev ~answers:(Hashtbl.create 64)

type matrix = {
  mx_points : int;
  mx_labels : (int * string) list;
  mx_reference : outcome;
  mx_reports : crash_report list;
  mx_mismatches : int list;  (** crash points whose outcome diverged *)
}

let crash_matrix ?(progress = fun _ _ -> ()) spec =
  let ref_outcome, points, labels = reference ~keep_labels:true spec in
  let reports =
    List.init points (fun i ->
        let k = i + 1 in
        progress k points;
        crash_and_recover spec ~crash_at:k)
  in
  let mismatches =
    List.filter_map
      (fun r -> if outcome_equal r.cr_outcome ref_outcome then None else Some r.cr_point)
      reports
  in
  {
    mx_points = points;
    mx_labels = labels;
    mx_reference = ref_outcome;
    mx_reports = reports;
    mx_mismatches = mismatches;
  }
