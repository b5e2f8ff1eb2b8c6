(* The benchmark's own checks, on scaled-down inputs: counts repeat bit for
   bit and follow the seed, the kernel's allocation stays out of the
   counts, an operation's bracket reads the GC counters safely and
   exactly, the traced self times reconcile, and the oracle catches a
   wrong answer. *)

open Perfbench

let config ?(trace = false) ?kernel_every ~seed workload =
  {
    Bench.workload;
    seed;
    seconds = 0.;
    trace;
    scale = 0.02;
    kernel_every;
  }

let counts res = (List.hd res.Bench.rounds).Bench.counts
let bits l = List.map (fun (name, v) -> (name, Int64.bits_of_float v)) l

(* Deterministic counts are compared across fresh processes, as two runs
   of the benchmark would be: the heap high-water mark and the promoted
   bytes depend on the process's history, not only on the inputs.  The
   test binary re-runs itself with [--child WORKLOAD SEED], which prints
   round 1's counts as float bit patterns. *)
let child_main workload seed =
  let w = Option.get (Workloads.find workload) in
  let res = Bench.measure (config ~seed:(int_of_string seed) w) in
  List.iter (fun (name, v) -> Printf.printf "%s %Ld\n" name (Int64.bits_of_float v)) (counts res);
  Printf.printf "failed %d\nattempted %d\n" res.Bench.failed res.Bench.attempted

let in_fresh_process (w : Workloads.t) seed =
  let argv = [| Sys.executable_name; "--child"; w.Workloads.name; string_of_int seed |] in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let lines = String.split_on_char '\n' (String.trim (In_channel.input_all ic)) in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "child run failed");
  let fields = List.map (fun l -> Scanf.sscanf l "%s %Ld" (fun n v -> (n, v))) lines in
  let int name = Int64.to_int (List.assoc name fields) in
  ( List.filter (fun (n, _) -> n <> "failed" && n <> "attempted") fields,
    int "attempted",
    int "failed" )

let test_counts_repeat (w : Workloads.t) () =
  let a, attempted, failed = in_fresh_process w 7 in
  let b, _, _ = in_fresh_process w 7 in
  let c, _, failed_c = in_fresh_process w 8 in
  Alcotest.(check (list (pair string int64))) "same seed, same counts" a b;
  Alcotest.(check bool) "another seed moves the modeled cost" true
    (List.assoc "modeled_ms_per_query" a <> List.assoc "modeled_ms_per_query" c);
  Alcotest.(check int) "no operation failed" 0 (failed + failed_c);
  Alcotest.(check bool) "operations were attempted" true (attempted > 0)

let test_kernel_not_counted () =
  let w = Workloads.scan_read in
  let dense = Bench.measure (config ~kernel_every:1 ~seed:3 w) in
  let sparse = Bench.measure (config ~kernel_every:1_000_000 ~seed:3 w) in
  let pick res = List.filter (fun (n, _) -> List.mem n [ "alloc_bytes_per_op"; "modeled_ms_per_query" ]) (counts res) in
  Alcotest.(check (list (pair string int64))) "kernel schedule leaves the counts alone" (bits (pick sparse))
    (bits (pick dense))

(* A minor collection can fire inside the GC counters that an operation's
   bracket reads.  Sweep the minor heap's fill so that one does, with an
   operation that then refills the heap: the bracket must neither abort
   the process nor miscount.  The operation allocates one list of [n]
   cells (3 words each), and the bracket its [Ok] (2 words). *)
let test_gc_counters_in_bracket () =
  let heap = (Gc.get ()).Gc.minor_heap_size in
  let n = (heap / 3) + 1000 in
  let rec build acc i = if i = 0 then acc else build (i :: acc) (i - 1) in
  let m = Meas.create ~kernel:(Kernel.create ()) ~kernel_every:max_int ~traced:false in
  let sweep = 256 in
  for k = 0 to sweep - 1 do
    Gc.minor ();
    for _ = 1 to (heap - k) / 2 do
      ignore (Sys.opaque_identity (ref 0))
    done;
    ignore (Meas.op m Meas.Txn (fun () -> List.length (build [] n)))
  done;
  Alcotest.(check (float 0.)) "words allocated inside the brackets" (float_of_int (sweep * ((3 * n) + 2)))
    m.Meas.alloc_words

let test_trace_reconciles (w : Workloads.t) () =
  let res = Bench.measure (config ~trace:true ~seed:5 w) in
  let v name = (List.find (fun (m : Bench.metric) -> m.Bench.name = name) res.Bench.per_layer).Bench.value in
  Alcotest.(check bool) "a traced round ran" true (List.exists (fun r -> r.Bench.traced) res.Bench.rounds);
  Alcotest.(check bool) "busy time was traced" true (v "bench.traced_busy_s" > 0.);
  (* The share of busy time no program layer's span covers: the bench
     layer's self time plus the recorder's gaps. *)
  let err = v "bench.reconcile_err_frac" in
  if err > Bench.reconcile_tolerance then Alcotest.failf "layer self times miss busy time by %.4f" err

let test_oracle_catches_wrong_answer () =
  let open Core in
  let rng = Rng.create 1 and tids = Tuple.source () in
  let d = Dataset.make_model1 ~rng ~tids ~n:200 ~f:0.5 ~s_bytes:100 in
  let view = d.Dataset.m1_view in
  let oracle = Oracle.create d.Dataset.m1_tuples in
  let rows =
    List.filter_map
      (fun t ->
        if Predicate.eval view.View_def.sp_pred t then Some (Tuple.project t view.View_def.sp_positions, 1) else None)
      d.Dataset.m1_tuples
  in
  Alcotest.(check bool) "right rows match" true (Oracle.bag_of_rows rows = Oracle.expected oracle view);
  Alcotest.(check bool) "a missing row is caught" false (Oracle.bag_of_rows (List.tl rows) = Oracle.expected oracle view);
  let doubled = List.map (fun (t, c) -> (t, 2 * c)) rows in
  Alcotest.(check bool) "a wrong count is caught" false (Oracle.bag_of_rows doubled = Oracle.expected oracle view)

let per_workload name f = List.map (fun (w : Workloads.t) -> Alcotest.test_case (name ^ " " ^ w.Workloads.name) `Quick (f w)) Workloads.all

let () =
  match Array.to_list Sys.argv with
  | [ _; "--child"; workload; seed ] -> child_main workload seed
  | _ ->
      Alcotest.run "perfbench"
        [
          ("determinism", per_workload "counts repeat" test_counts_repeat);
          ("kernel", [ Alcotest.test_case "kernel allocation not counted" `Quick test_kernel_not_counted ]);
          ( "gc",
            [
              Alcotest.test_case "GC counters survive a collection inside the bracket" `Quick
                test_gc_counters_in_bracket;
            ] );
          ("trace", per_workload "self times reconcile" test_trace_reconciles);
          ("oracle", [ Alcotest.test_case "wrong answers are caught" `Quick test_oracle_catches_wrong_answer ]);
        ]
