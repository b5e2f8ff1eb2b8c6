(* The runtime invariant sanitizers (DESIGN §8): the sampled checks pass on
   healthy engines, deliberately injected violations are caught, and — the
   design constraint that makes VMAT_SANITIZE safe to leave on in CI —
   measurements are bit-identical with the sanitizer on or off. *)

open Core

let test_tids = Tuple.source ()

(* ------------------------------------------------------------------ *)
(* Parallel.split_seeds (satellite: property coverage)                 *)
(* ------------------------------------------------------------------ *)

let test_split_seeds_properties () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"split_seeds: count, determinism, independence"
       ~count:200
       QCheck.(pair small_int (int_range 0 64))
       (fun (root, n) ->
         let seeds = Parallel.split_seeds ~root n in
         List.length seeds = n
         && Parallel.split_seeds ~root n = seeds
         && List.length (List.sort_uniq Int.compare seeds) = n))

let test_split_seeds_distinct_roots () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"split_seeds: distinct roots, distinct streams"
       ~count:100 QCheck.small_int (fun root ->
         Parallel.split_seeds ~root 8 <> Parallel.split_seeds ~root:(root + 1) 8))

let test_split_seeds_negative () =
  Alcotest.check_raises "negative count"
    (Invalid_argument "Parallel.split_seeds: negative count") (fun () ->
      ignore (Parallel.split_seeds ~root:1 (-1)))

(* ------------------------------------------------------------------ *)
(* Sanitizer core: sampling, check accounting, violation delivery      *)
(* ------------------------------------------------------------------ *)

let accumulating () =
  let seen = ref [] in
  let san =
    Sanitize.create ~sample_every:1
      ~on_violation:(fun message -> seen := message :: !seen)
      ()
  in
  (san, seen)

let test_sanitize_disabled_is_inert () =
  Alcotest.(check bool) "none disabled" false (Sanitize.enabled Sanitize.none);
  Alcotest.(check bool) "sample never" false
    (Sanitize.sample Sanitize.none ~rule:"r");
  (* thunks must stay unevaluated on the disabled sanitizer *)
  Sanitize.check Sanitize.none ~rule:"r"
    (fun () -> Alcotest.fail "condition evaluated on disabled sanitizer")
    ~detail:(fun () -> Alcotest.fail "detail evaluated on disabled sanitizer");
  Alcotest.(check int) "no checks" 0 (Sanitize.checks_run Sanitize.none)

let test_sanitize_sampling () =
  Alcotest.check_raises "sample_every = 0"
    (Invalid_argument "Sanitize.create: sample_every must be positive")
    (fun () -> ignore (Sanitize.create ~sample_every:0 ()));
  let san = Sanitize.create ~sample_every:3 () in
  let draws = List.init 7 (fun _ -> Sanitize.sample san ~rule:"a") in
  Alcotest.(check (list bool)) "every 3rd, first always"
    [ true; false; false; true; false; false; true ]
    draws;
  (* independent per-rule counters *)
  Alcotest.(check bool) "fresh rule starts sampled" true
    (Sanitize.sample san ~rule:"b")

let test_sanitize_check_accounting () =
  let san, seen = accumulating () in
  Sanitize.check san ~rule:"ok" (fun () -> true) ~detail:(fun () -> "unused");
  Sanitize.check san ~rule:"bad" (fun () -> false) ~detail:(fun () -> "boom");
  Sanitize.report san ~rule:"worse" ~detail:"inline";
  Alcotest.(check int) "checks" 2 (Sanitize.checks_run san);
  Alcotest.(check int) "violations" 2 (Sanitize.violations san);
  Alcotest.(check (list string)) "messages carry rule tags"
    [ "[worse] inline"; "[bad] boom" ] !seen

let test_sanitize_default_raises () =
  let san = Sanitize.create () in
  Alcotest.check_raises "default handler raises"
    (Sanitize.Violation "[r] detail") (fun () ->
      Sanitize.check san ~rule:"r" (fun () -> false) ~detail:(fun () -> "detail"))

(* ------------------------------------------------------------------ *)
(* Cost conservation: clean pass + injected bypass                     *)
(* ------------------------------------------------------------------ *)

let test_cost_conservation_clean () =
  let san, seen = accumulating () in
  let meter = Cost_meter.create () in
  Sanitize.attach_meter san meter;
  Cost_meter.with_category meter Cost_meter.Query (fun () ->
      Cost_meter.charge_read meter;
      Cost_meter.charge_read meter;
      Cost_meter.charge_write meter;
      Cost_meter.charge_predicate_test meter;
      Cost_meter.charge_set_overhead meter 5);
  Sanitize.check_meter san meter;
  Alcotest.(check (list string)) "no violations" [] !seen;
  (* reset zeroes the mirror along with the meter *)
  Cost_meter.reset meter;
  Sanitize.check_meter san meter;
  Alcotest.(check (list string)) "still conserved after reset" [] !seen

let test_cost_conservation_injected () =
  let san, seen = accumulating () in
  let meter = Cost_meter.create () in
  Sanitize.attach_meter san meter;
  Cost_meter.charge_read meter;
  (* Injected violation: disconnect the mirror, then charge — exactly the
     bypassed-hook drift the conservation check exists to catch. *)
  Cost_meter.set_san_hook meter None;
  Cost_meter.charge_read meter;
  Sanitize.check_meter san meter;
  Alcotest.(check bool) "bypass caught" true (not (List.is_empty !seen));
  Alcotest.(check bool) "tagged cost-conservation" true
    (List.exists
       (fun m -> Astring.String.is_prefix ~affix:"[cost-conservation]" m)
       !seen)

(* ------------------------------------------------------------------ *)
(* refresh ≡ recompute on live strategies                              *)
(* ------------------------------------------------------------------ *)

let sanitized_ctx () =
  let san, seen = accumulating () in
  let meter = Cost_meter.create () in
  let disk = Disk.create meter in
  let ctx =
    Ctx.of_parts
      ~geometry:{ Ctx.page_bytes = 400; index_entry_bytes = 20 }
      ~first_tid:1_000_000 ~sanitizer:san ~meter ~disk ()
  in
  (ctx, san, seen)

let strategy_ops dataset =
  let rng = Rng.create 19 in
  let tuples = Array.of_list dataset.Dataset.m1_tuples in
  Stream.generate ~rng ~tuples
    ~mutate:
      (Stream.mutate_column ~tids:test_tids ~col:2 (fun rng ->
           Value.Float (float_of_int (Rng.int rng 100))))
    ~k:12 ~l:3 ~q:6
    ~query_of:(Stream.range_query_of ~lo_max:0.27 ~width:0.03)

let test_refresh_equals_recompute ctor name =
  let rng = Rng.create 17 in
  let dataset =
    Dataset.make_model1 ~rng ~tids:test_tids ~n:150 ~f:0.3 ~s_bytes:100
  in
  let ctx, san, seen = sanitized_ctx () in
  let strategy =
    ctor
      {
        Strategy_sp.ctx;
        view = dataset.Dataset.m1_view;
        initial = dataset.Dataset.m1_tuples;
        ad_buckets = 4;
      }
  in
  List.iter
    (fun op ->
      match op with
      | Stream.Txn changes -> strategy.Strategy.handle_transaction changes
      | Stream.Query q -> ignore (strategy.Strategy.answer_query q))
    (strategy_ops dataset);
  Alcotest.(check bool)
    (name ^ ": equivalence checks ran")
    true
    (Sanitize.checks_run san > 0);
  Alcotest.(check (list string)) (name ^ ": no violations") [] !seen

let test_refresh_equals_recompute_deferred () =
  test_refresh_equals_recompute Strategy_sp.deferred "deferred"

let test_refresh_equals_recompute_immediate () =
  test_refresh_equals_recompute Strategy_sp.immediate "immediate"

(* ------------------------------------------------------------------ *)
(* Zero observer effect: sanitize on ≡ sanitize off, bit for bit       *)
(* ------------------------------------------------------------------ *)

let test_sanitize_bit_identity () =
  let small = Experiment.scale Params.defaults 0.01 in
  let strategies = [ `Deferred; `Immediate; `Clustered; `Recompute ] in
  let plain = Experiment.measure_model1 ~seed:7 ~sanitize:false small strategies in
  let sanitized = Experiment.measure_model1 ~seed:7 ~sanitize:true small strategies in
  List.iter2
    (fun (name_a, (a : Runner.measurement)) (name_b, (b : Runner.measurement)) ->
      Alcotest.(check string) "same strategy" name_a name_b;
      Alcotest.(check (float 0.)) (name_a ^ ": cost_per_query identical")
        a.Runner.cost_per_query b.Runner.cost_per_query;
      Alcotest.(check int) (name_a ^ ": physical reads identical")
        a.Runner.physical_reads b.Runner.physical_reads;
      Alcotest.(check int) (name_a ^ ": physical writes identical")
        a.Runner.physical_writes b.Runner.physical_writes;
      Alcotest.(check int) (name_a ^ ": tuples returned identical")
        a.Runner.tuples_returned b.Runner.tuples_returned;
      List.iter2
        (fun (cat_a, cost_a) (cat_b, cost_b) ->
          Alcotest.(check string) "category order"
            (Cost_meter.category_name cat_a)
            (Cost_meter.category_name cat_b);
          Alcotest.(check (float 0.))
            (name_a ^ "/" ^ Cost_meter.category_name cat_a ^ " identical")
            cost_a cost_b)
        a.Runner.category_costs b.Runner.category_costs)
    plain sanitized

let test_env_enabled_parsing () =
  let saved = Sys.getenv_opt "VMAT_SANITIZE" in
  let finish () =
    (* putenv cannot unset; restore to an explicit off value at worst *)
    Unix.putenv "VMAT_SANITIZE" (Option.value saved ~default:"0")
  in
  Fun.protect ~finally:finish (fun () ->
      Unix.putenv "VMAT_SANITIZE" "1";
      Alcotest.(check bool) "1 enables" true (Sanitize.env_enabled ());
      Unix.putenv "VMAT_SANITIZE" "yes";
      Alcotest.(check bool) "yes enables" true (Sanitize.env_enabled ());
      Unix.putenv "VMAT_SANITIZE" "0";
      Alcotest.(check bool) "0 disables" false (Sanitize.env_enabled ()))

let suites =
  [
    ( "sanitize",
      Alcotest.
        [
          test_case "split_seeds properties" `Quick test_split_seeds_properties;
          test_case "split_seeds distinct roots" `Quick test_split_seeds_distinct_roots;
          test_case "split_seeds negative" `Quick test_split_seeds_negative;
          test_case "disabled is inert" `Quick test_sanitize_disabled_is_inert;
          test_case "sampling cadence" `Quick test_sanitize_sampling;
          test_case "check accounting" `Quick test_sanitize_check_accounting;
          test_case "default handler raises" `Quick test_sanitize_default_raises;
          test_case "cost conservation clean" `Quick test_cost_conservation_clean;
          test_case "cost conservation injected" `Quick test_cost_conservation_injected;
          test_case "refresh=recompute deferred" `Quick test_refresh_equals_recompute_deferred;
          test_case "refresh=recompute immediate" `Quick test_refresh_equals_recompute_immediate;
          test_case "sanitize bit-identity" `Quick test_sanitize_bit_identity;
          test_case "env switch parsing" `Quick test_env_enabled_parsing;
        ] );
  ]
