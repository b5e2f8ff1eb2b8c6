(* perfbench: one workload, one seed, a fixed measuring time.

     main.exe --workload scan-read|durable-write|fleet-zipf --seed N
              --seconds S --trace 0|1 [--spans FILE]

   Prints every metric with its unit, then, as the last line, one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer ones with --trace 1 (which also writes
   the traced rounds' spans to FILE, default
   perfbench/out/<workload>-<seed>.spans.json). *)

open Perfbench

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and spans = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
      ("--spans", Arg.Set_string spans, "FILE where the traced run writes its spans");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> die ("unexpected argument " ^ a)) usage with
  | Arg.Bad msg -> die (String.trim msg)
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
        die
          (Printf.sprintf "unknown workload %S (one of: %s)" !workload
             (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)))
  in
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if not (!seconds > 0.) then die "--seconds must be positive";
  let cfg =
    {
      Bench.workload = w;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      scale = 1.;
      kernel_every = None;
    }
  in
  let res = Bench.measure cfg in
  let untraced = List.length (List.filter (fun r -> not r.Bench.traced) res.Bench.rounds) in
  Printf.printf "workload %s seed %d: %d rounds (%d untraced), %d operations checked, %d failed, fail_frac %.6f\n"
    w.Workloads.name !seed (List.length res.Bench.rounds) untraced res.Bench.attempted res.Bench.failed
    (float_of_int res.Bench.failed /. float_of_int (max 1 res.Bench.attempted));
  let shown = if cfg.Bench.trace then res.Bench.per_layer else res.Bench.end_to_end in
  List.iter
    (fun (m : Bench.metric) ->
      let raw =
        List.find_opt (fun (r : Bench.metric) -> r.Bench.name = "raw." ^ m.Bench.name) res.Bench.per_layer
      in
      Printf.printf "  %-28s %14.4f %-9s%s\n" m.Bench.name m.Bench.value m.Bench.unit
        (match raw with
        | Some r when not cfg.Bench.trace -> Printf.sprintf " (raw %.4f)" r.Bench.value
        | _ -> ""))
    shown;
  if not cfg.Bench.trace then
    Printf.printf "  %-28s %14.4f ratio\n" "bench.machine_factor"
      (List.find (fun (r : Bench.metric) -> r.Bench.name = "bench.machine_factor") res.Bench.per_layer)
        .Bench.value
  else begin
    let path =
      if !spans <> "" then !spans
      else Printf.sprintf "perfbench/out/%s-%d.spans.json" w.Workloads.name !seed
    in
    mkdir_p (Filename.dirname path);
    Bench.write_spans path res;
    Printf.printf "spans written to %s\n" path
  end;
  print_endline
    (Bench.json_line ~correct:(res.Bench.failed = 0) ~attempted:res.Bench.attempted ~failed:res.Bench.failed shown)
