(* Tests for the observability layer (lib/obs): span nesting, histogram
   bucket math, Chrome-trace JSON well-formedness, Prometheus exposition,
   metric-vs-meter consistency, and the zero-observer-effect guarantee. *)

open Core

let approx ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs b)

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser, enough to validate exporter output.          *)
(* ------------------------------------------------------------------ *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then (
      pos := !pos + l;
      v)
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then (
        (if !pos >= n then fail "bad escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
             if !pos + 4 > n then fail "bad \\u escape";
             let hex = String.sub s !pos 4 in
             pos := !pos + 4;
             let code = int_of_string ("0x" ^ hex) in
             (* Good enough for validation: we only need the parse to
                succeed; non-ASCII escapes keep their escaped spelling. *)
             if code < 128 then Buffer.add_char buf (Char.chr code)
             else Buffer.add_string buf (Printf.sprintf "\\u%s" hex)
         | _ -> fail "bad escape char");
        go ())
      else (
        Buffer.add_char buf c;
        go ())
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Jnum f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end"
    | Some '"' -> Jstr (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (
          advance ();
          Jobj [])
        else
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Jobj (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (
          advance ();
          Jarr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Jarr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elems []
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field name = function
  | Jobj fields -> List.assoc_opt name fields
  | _ -> None

let jstr = function Jstr s -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Span nesting and ordering                                           *)
(* ------------------------------------------------------------------ *)

let phase_shape (e : Trace.event) =
  match e with
  | Trace.Begin sp -> Some ("B", Span.name sp)
  | Trace.End { span; _ } -> Some ("E", Span.name span)
  | _ -> None

let event_ts (e : Trace.event) =
  match e with
  | Trace.Begin sp -> Some (Span.start_ts sp)
  | Trace.End { ts; _ } | Trace.Instant { ts; _ } | Trace.Counter { ts; _ } -> Some ts
  | Trace.Thread_name _ -> None

let test_span_nesting () =
  let trace = Trace.create () in
  let recorder = Recorder.create ~trace () in
  let clock = ref 0. in
  Recorder.set_clock recorder (fun () ->
      clock := !clock +. 1.;
      !clock);
  Recorder.span recorder "outer" (fun () ->
      Recorder.span recorder "inner" (fun () -> ()));
  Alcotest.(check int) "depth back to 0" 0 (Trace.open_depth trace);
  let evs = Trace.events trace in
  let shape = List.filter_map phase_shape evs in
  Alcotest.(check (list (pair string string)))
    "B/E ordering"
    [ ("B", "outer"); ("B", "inner"); ("E", "inner"); ("E", "outer") ]
    shape;
  (* Timestamps are monotone non-decreasing in emission order. *)
  let ts = List.filter_map event_ts evs in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps monotone" true (monotone ts)

let test_span_mismatch_raises () =
  let trace = Trace.create () in
  let outer = Trace.begin_span trace ~ts:0. "outer" in
  let _inner = Trace.begin_span trace ~ts:1. "inner" in
  Alcotest.(check bool) "ending non-innermost raises" true
    (try
       Trace.end_span trace ~ts:2. outer;
       false
     with Invalid_argument _ -> true)

let test_span_closes_on_exception () =
  let trace = Trace.create () in
  let recorder = Recorder.create ~trace () in
  (try Recorder.span recorder "boom" (fun () -> failwith "kaput")
   with Failure _ -> ());
  Alcotest.(check int) "span closed despite exception" 0 (Trace.open_depth trace);
  let ends =
    List.filter
      (fun (e : Trace.event) -> match e with Trace.End _ -> true | _ -> false)
      (Trace.events trace)
  in
  Alcotest.(check int) "one End event" 1 (List.length ends)

let test_recorder_clock_monotone () =
  let trace = Trace.create () in
  let recorder = Recorder.create ~trace () in
  let raws = [ 10.; 20.; 5.; 7.; 3. ] in
  let queue = ref raws in
  Recorder.set_clock recorder (fun () ->
      match !queue with
      | [] -> 0.
      | x :: rest ->
          queue := rest;
          x);
  let observed = List.map (fun _ -> Recorder.now recorder) raws in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "now never decreases" true (monotone observed)

(* ------------------------------------------------------------------ *)
(* Histogram bucket math                                               *)
(* ------------------------------------------------------------------ *)

let test_log_bounds () =
  let b = Metrics.log_bounds ~start:1. ~growth:2. ~count:5 () in
  Alcotest.(check int) "count" 5 (Array.length b);
  Array.iteri
    (fun i v ->
      Alcotest.(check bool)
        (Printf.sprintf "bound %d" i)
        true
        (approx v (2. ** float_of_int i)))
    b

let test_bucket_index () =
  let bounds = [| 1.; 2.; 4.; 8. |] in
  let cases =
    [ (0.5, 0); (1., 0); (1.5, 1); (2., 1); (3.9, 2); (4., 2); (8., 3); (9., 4) ]
  in
  List.iter
    (fun (v, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "bucket_index %.1f" v)
        expected
        (Metrics.bucket_index bounds v))
    cases

let test_histogram_observe () =
  let m = Metrics.create () in
  let bounds = [| 1.; 2.; 4. |] in
  let h = Metrics.histogram m ~help:"test" ~bounds "h" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.; 100. ];
  (match Metrics.histogram_totals m "h" with
  | Some (nobs, sum) ->
      Alcotest.(check int) "nobs" 4 nobs;
      Alcotest.(check bool) "sum" true (approx sum 105.)
  | None -> Alcotest.fail "histogram totals missing");
  match Metrics.histogram_buckets m "h" with
  | Some (got_bounds, counts) ->
      Alcotest.(check int) "bounds preserved" 3 (Array.length got_bounds);
      Alcotest.(check (array int))
        "raw bucket counts incl. overflow" [| 1; 1; 1; 1 |] counts
  | None -> Alcotest.fail "histogram buckets missing"

let test_histogram_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~help:"h" ~bounds:[| 10.; 20.; 40. |] "hq" in
  Alcotest.(check (option (float 1e-9)))
    "no observations -> None" None
    (Metrics.histogram_quantile m "hq" 0.5);
  for _ = 1 to 10 do
    Metrics.observe h 5.
  done;
  for _ = 1 to 10 do
    Metrics.observe h 15.
  done;
  (* 10 obs in (0,10], 10 in (10,20]: the median target (10) lands exactly on
     the first bucket's cumulative edge, so interpolation yields its upper
     bound; 0.75 is halfway through the second bucket. *)
  Alcotest.(check (option (float 1e-9)))
    "p50 interpolates to the first bound" (Some 10.)
    (Metrics.histogram_quantile m "hq" 0.5);
  Alcotest.(check (option (float 1e-9)))
    "p75 is halfway through the second bucket" (Some 15.)
    (Metrics.histogram_quantile m "hq" 0.75);
  Alcotest.(check (option (float 1e-9)))
    "p100 is the last populated bucket's bound" (Some 20.)
    (Metrics.histogram_quantile m "hq" 1.0);
  Metrics.observe h 1000.;
  Alcotest.(check (option (float 1e-9)))
    "overflow clamps to the last finite bound" (Some 40.)
    (Metrics.histogram_quantile m "hq" 1.0);
  Alcotest.(check (option (float 1e-9)))
    "unknown series -> None" None
    (Metrics.histogram_quantile m "nope" 0.5);
  Alcotest.check_raises "q out of range raises"
    (Invalid_argument "Metrics.histogram_quantile: q must be in [0, 1]") (fun () ->
      ignore (Metrics.histogram_quantile m "hq" 1.5));
  let text = Metrics.to_prometheus m in
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "exposition has quantile=\"%s\" line" q)
        true
        (Astring.String.is_infix ~affix:(Printf.sprintf "hq_quantile{quantile=\"%s\"}" q) text))
    [ "0.5"; "0.95"; "0.99" ]

let test_counter_negative_raises () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"t" "c" in
  Alcotest.(check bool) "negative inc raises" true
    (try
       Metrics.inc c (-1.);
       false
     with Invalid_argument _ -> true)

let test_same_handle_twice () =
  let m = Metrics.create () in
  let c1 = Metrics.counter m ~labels:[ ("a", "b") ] "c_total" in
  let c2 = Metrics.counter m ~labels:[ ("a", "b") ] "c_total" in
  Metrics.inc c1 2.;
  Metrics.inc c2 3.;
  Alcotest.(check (option (float 1e-9)))
    "same series accumulates" (Some 5.)
    (Metrics.counter_value m ~labels:[ ("a", "b") ] "c_total")

(* ------------------------------------------------------------------ *)
(* Chrome-trace JSON well-formedness                                   *)
(* ------------------------------------------------------------------ *)

let build_sample_trace () =
  let trace = Trace.create () in
  let recorder = Recorder.create ~trace () in
  let clock = ref 0. in
  Recorder.set_clock recorder (fun () ->
      clock := !clock +. 0.5;
      !clock);
  Recorder.set_thread recorder ~tid:1 ~label:"strategy \"deferred\"";
  Recorder.span recorder ~cat:"workload" "run"
    ~args:[ ("strategy", "deferred\\weird\nname") ]
    (fun () ->
      Recorder.span recorder ~cat:"view" "refresh" (fun () -> ());
      Recorder.instant recorder ~cat:"adaptive" "migration"
        ~args:[ ("from", "deferred"); ("to", "immediate") ];
      Recorder.trace_counter recorder "pool" [ ("hits", 3.); ("misses", 1.) ]);
  trace

let test_chrome_json_wellformed () =
  let trace = build_sample_trace () in
  let json = Trace.to_chrome_json trace in
  let parsed =
    try parse_json json
    with Parse_error msg -> Alcotest.failf "chrome JSON does not parse: %s" msg
  in
  let events =
    match obj_field "traceEvents" parsed with
    | Some (Jarr evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing or not an array"
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  (match obj_field "displayTimeUnit" parsed with
  | Some (Jstr "ms") -> ()
  | _ -> Alcotest.fail "displayTimeUnit must be \"ms\"");
  let balance =
    List.fold_left
      (fun acc ev ->
        (* Every event has name, ph, pid, tid. *)
        List.iter
          (fun k ->
            if obj_field k ev = None then Alcotest.failf "event missing field %s" k)
          [ "name"; "ph"; "pid"; "tid" ];
        match Option.bind (obj_field "ph" ev) jstr with
        | Some "B" -> acc + 1
        | Some "E" -> acc - 1
        | Some _ -> acc
        | None -> Alcotest.fail "ph is not a string")
      0 events
  in
  Alcotest.(check int) "B/E balanced" 0 balance;
  (* Durational events must carry a numeric ts in microseconds. *)
  List.iter
    (fun ev ->
      match Option.bind (obj_field "ph" ev) jstr with
      | Some ("B" | "E" | "i" | "C") -> (
          match obj_field "ts" ev with
          | Some (Jnum _) -> ()
          | _ -> Alcotest.fail "timed event missing numeric ts")
      | _ -> ())
    events

let test_jsonl_lines_parse () =
  let trace = build_sample_trace () in
  let jsonl = Trace.to_jsonl trace in
  let lines = String.split_on_char '\n' jsonl |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "one line per event" (Trace.event_count trace)
    (List.length lines);
  List.iteri
    (fun i line ->
      match parse_json line with
      | Jobj _ -> ()
      | _ -> Alcotest.failf "line %d is not a JSON object" i
      | exception Parse_error msg -> Alcotest.failf "line %d: %s" i msg)
    lines

let test_json_text_specials () =
  (* Non-finite floats must not produce bare nan/inf tokens. *)
  List.iter
    (fun v ->
      let s = Json_text.obj [ ("v", Json_text.num v) ] in
      match parse_json s with
      | Jobj [ ("v", Jstr _) ] -> ()
      | _ -> Alcotest.failf "non-finite %f not encoded as string" v)
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  let s = Json_text.str "a\"b\\c\nd\te" in
  match parse_json s with
  | Jstr got -> Alcotest.(check string) "escape roundtrip" "a\"b\\c\nd\te" got
  | _ -> Alcotest.fail "escaped string did not parse"

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let test_prometheus_exposition () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"A counter." ~labels:[ ("k", "v") ] "c_total" in
  Metrics.inc c 3.;
  let g = Metrics.gauge m ~help:"A gauge." "g" in
  Metrics.set g 1.5;
  let h = Metrics.histogram m ~help:"A histogram." ~bounds:[| 1.; 2.; 4. |] "h" in
  List.iter (Metrics.observe h) [ 0.5; 3.; 100. ];
  let text = Metrics.to_prometheus m in
  let lines = String.split_on_char '\n' text in
  let has prefix =
    List.exists
      (fun l ->
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      lines
  in
  Alcotest.(check bool) "HELP c_total" true (has "# HELP c_total");
  Alcotest.(check bool) "TYPE c_total counter" true (has "# TYPE c_total counter");
  Alcotest.(check bool) "TYPE g gauge" true (has "# TYPE g gauge");
  Alcotest.(check bool) "TYPE h histogram" true (has "# TYPE h histogram");
  Alcotest.(check bool) "labelled sample" true (has "c_total{k=\"v\"} 3");
  (* Cumulative buckets: parse h_bucket lines, check monotone and +Inf. *)
  let bucket_lines =
    List.filter (fun l -> String.length l > 9 && String.sub l 0 9 = "h_bucket{") lines
  in
  Alcotest.(check int) "bucket lines (3 bounds + +Inf)" 4 (List.length bucket_lines);
  let values =
    List.map
      (fun l ->
        match String.rindex_opt l ' ' with
        | Some i -> float_of_string (String.sub l (i + 1) (String.length l - i - 1))
        | None -> Alcotest.failf "bad bucket line: %s" l)
      bucket_lines
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative buckets monotone" true (monotone values);
  let last = List.nth values (List.length values - 1) in
  Alcotest.(check bool) "+Inf bucket equals count" true (approx last 3.);
  Alcotest.(check bool) "+Inf le label present" true
    (List.exists (fun l -> Astring.String.is_infix ~affix:"le=\"+Inf\"" l) bucket_lines)

let test_metrics_json_parses () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"c" ~labels:[ ("a", "b") ] "c_total" in
  Metrics.inc c 1.;
  let h = Metrics.histogram m ~help:"h" "h" in
  Metrics.observe h 3.;
  match parse_json (Metrics.to_json m) with
  | Jobj fields -> (
      match List.assoc_opt "metrics" fields with
      | Some (Jarr entries) ->
          Alcotest.(check int) "two series" 2 (List.length entries)
      | _ -> Alcotest.fail "metrics array missing")
  | _ -> Alcotest.fail "metrics JSON is not an object"
  | exception Parse_error msg -> Alcotest.failf "metrics JSON: %s" msg

(* ------------------------------------------------------------------ *)
(* Metric-vs-meter consistency (qcheck) and observer effect            *)
(* ------------------------------------------------------------------ *)

let small = Experiment.scale Params.defaults 0.01

let strategy_of_int i =
  match i mod 4 with
  | 0 -> `Deferred
  | 1 -> `Immediate
  | 2 -> `Clustered
  | _ -> `Recompute

let metric_matches_meter =
  QCheck.Test.make ~count:8 ~name:"metrics cost counters mirror the meter"
    QCheck.(pair (int_range 1 1000) (int_range 0 3))
    (fun (seed, si) ->
      let metrics = Metrics.create () in
      let recorder = Recorder.create ~metrics () in
      let results =
        Experiment.measure_model1 ~seed ~recorder small [ strategy_of_int si ]
      in
      let _, m = List.hd results in
      List.for_all
        (fun (cat, cost) ->
          match
            Metrics.counter_value metrics
              ~labels:[ ("category", Cost_meter.category_name cat) ]
              "vmat_cost_ms_total"
          with
          | Some v -> approx ~eps:1e-9 v cost
          | None -> cost = 0.)
        m.Runner.category_costs)

let test_observer_effect () =
  (* A live recorder must not change any measured number.  Each
     [Experiment.measure_*] run owns its execution contexts and tuple-id
     sources, so two back-to-back in-process runs are bit-identical with no
     manual state reset. *)
  let bare = Experiment.measure_model1 ~seed:7 small [ `Deferred; `Clustered ] in
  let trace = Trace.create () in
  let metrics = Metrics.create () in
  let recorder = Recorder.create ~trace ~metrics ~trace_charges:true () in
  let observed =
    Experiment.measure_model1 ~seed:7 ~recorder small [ `Deferred; `Clustered ]
  in
  Alcotest.(check bool) "recorder produced events" true (Trace.event_count trace > 0);
  List.iter2
    (fun (n1, (m1 : Runner.measurement)) (n2, (m2 : Runner.measurement)) ->
      Alcotest.(check string) "same strategy" n1 n2;
      Alcotest.(check bool)
        (Printf.sprintf "%s measurement bit-identical" n1)
        true (m1 = m2))
    bare observed

let test_pool_stats_in_measurement () =
  let results = Experiment.measure_model1 ~seed:3 small [ `Deferred ] in
  let _, m = List.hd results in
  Alcotest.(check bool) "pool hits observed" true (m.Runner.buffer_pool_hits > 0);
  Alcotest.(check bool) "pool counters non-negative" true
    (m.Runner.buffer_pool_misses >= 0)

(* ------------------------------------------------------------------ *)
(* Satellite: quantile edge cases (empty / single observation)         *)
(* ------------------------------------------------------------------ *)

let test_quantile_edges () =
  Alcotest.(check (float 1e-9)) "empty sample quantile is 0" 0. (Stats.quantile 0.9 []);
  Alcotest.(check (float 1e-9)) "singleton quantile is the sole value" 7.
    (Stats.quantile 0.1 [ 7. ]);
  Alcotest.check_raises "q out of range still raises"
    (Invalid_argument "Stats.quantile: q must be in [0, 1]") (fun () ->
      ignore (Stats.quantile 2. [ 1. ]));
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  Alcotest.(check (option (float 1e-9))) "no observations -> None" None
    (Metrics.histogram_quantile m "h" 0.5);
  Metrics.observe h 3.7;
  (* One observation has an exact quantile — its own value — regardless of
     where the bucket edges fall. *)
  Alcotest.(check (option (float 1e-9))) "single observation is exact" (Some 3.7)
    (Metrics.histogram_quantile m "h" 0.99);
  Alcotest.(check (option (float 1e-9))) "...at every q" (Some 3.7)
    (Metrics.histogram_quantile m "h" 0.)

(* ------------------------------------------------------------------ *)
(* Satellite: Prometheus exposition conformance on a serving snapshot  *)
(* ------------------------------------------------------------------ *)

(* Parse one exposition series line into (name, labels, value), undoing
   label-value escaping.  Fails loudly on malformed lines, which is the
   point: the exporter must emit something a scraper can read back. *)
let parse_prom_line line =
  let n = String.length line in
  let brace = String.index_opt line '{' in
  let name_end =
    match brace with Some b -> b | None -> String.index line ' '
  in
  let name = String.sub line 0 name_end in
  let labels = ref [] in
  let pos = ref name_end in
  (match brace with
  | None -> ()
  | Some b ->
      pos := b + 1;
      let rec parse_pairs () =
        if !pos >= n then failwith "unterminated label set";
        if line.[!pos] = '}' then incr pos
        else begin
          let eq = String.index_from line !pos '=' in
          let key = String.sub line !pos (eq - !pos) in
          if line.[eq + 1] <> '"' then failwith "label value not quoted";
          let buf = Buffer.create 16 in
          let i = ref (eq + 2) in
          let rec scan () =
            if !i >= n then failwith "unterminated label value";
            match line.[!i] with
            | '"' -> incr i
            | '\\' ->
                (match line.[!i + 1] with
                | 'n' -> Buffer.add_char buf '\n'
                | c -> Buffer.add_char buf c);
                i := !i + 2;
                scan ()
            | c ->
                Buffer.add_char buf c;
                incr i;
                scan ()
          in
          scan ();
          labels := (key, Buffer.contents buf) :: !labels;
          pos := !i;
          if !pos < n && line.[!pos] = ',' then incr pos;
          parse_pairs ()
        end
      in
      parse_pairs ());
  let value_str = String.trim (String.sub line (!pos) (n - !pos)) in
  let value =
    match value_str with
    | "+Inf" -> Float.infinity
    | "-Inf" -> Float.neg_infinity
    | "NaN" -> Float.nan
    | s -> float_of_string s
  in
  (name, List.rev !labels, value)

let test_prometheus_conformance () =
  (* A real serving snapshot with every observability extra on, so the
     exposition carries histograms (latency, op cost), flight counters and
     hot-key gauges whose label values need escaping-safe round-trips. *)
  let metrics = Metrics.create () in
  let recorder = Recorder.create ~metrics () in
  let config =
    {
      Serve.default_config with
      Serve.readers = 2;
      queries_per_reader = 30;
      publish_every = 4;
      trace_sample = 4;
      sketch_capacity = 16;
      flight_capacity = 64;
    }
  in
  let _ = Serve.run ~config ~recorder ~params:small ~strategy:`Deferred () in
  let text = Metrics.to_prometheus metrics in
  let lines = String.split_on_char '\n' text in
  let series =
    List.filter_map
      (fun line ->
        if line = "" || String.length line = 0 || line.[0] = '#' then None
        else Some (parse_prom_line line))
      lines
  in
  Alcotest.(check bool) "snapshot is non-trivial" true (List.length series > 10);
  (* Histogram conformance: within each series, buckets are emitted in
     order with cumulative (non-decreasing) counts; the +Inf bucket equals
     the _count; a _sum accompanies every _count. *)
  let strip_le labels = List.filter (fun (k, _) -> k <> "le") labels in
  let assoc_all name =
    List.filter_map
      (fun (n, l, v) -> if n = name then Some (l, v) else None)
      series
  in
  let histo_families =
    List.sort_uniq String.compare
      (List.filter_map
         (fun (n, _, _) ->
           if Astring.String.is_suffix ~affix:"_bucket" n then
             Some (String.sub n 0 (String.length n - 7))
           else None)
         series)
  in
  Alcotest.(check bool) "serving snapshot has histograms" true (histo_families <> []);
  List.iter
    (fun fam ->
      let buckets = assoc_all (fam ^ "_bucket") in
      let counts = assoc_all (fam ^ "_count") in
      let sums = assoc_all (fam ^ "_sum") in
      (* Walk buckets in emission order, tracking monotonicity per group. *)
      let last : ((string * string) list, float) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (labels, v) ->
          let group = strip_le labels in
          (match Hashtbl.find_opt last group with
          | Some prev when v < prev ->
              Alcotest.failf "%s: bucket counts decrease (%.0f after %.0f)" fam v prev
          | _ -> ());
          Hashtbl.replace last group v;
          match List.assoc_opt "le" labels with
          | None -> Alcotest.failf "%s: bucket without le label" fam
          | Some "+Inf" ->
              let total =
                match List.assoc_opt group counts with
                | Some c -> c
                | None -> Alcotest.failf "%s: no _count for a bucket group" fam
              in
              Alcotest.(check (float 1e-9))
                (fam ^ " +Inf bucket equals _count") total v
          | Some le -> ignore (float_of_string le))
        buckets;
      List.iter
        (fun (labels, _) ->
          if List.assoc_opt labels sums = None then
            Alcotest.failf "%s: _count without _sum" fam)
        counts)
    histo_families;
  (* The serving layer's own series made it out, with label values (bucket
     keys like "[0.25,0.5)") that round-trip through escaping. *)
  let flight = assoc_all "vmat_flight_appended_total" in
  Alcotest.(check bool) "flight counters exported per domain" true
    (List.exists (fun (l, _) -> List.assoc_opt "domain" l = Some "writer") flight);
  let hot = assoc_all "vmat_key_hot" in
  Alcotest.(check bool) "hot-key gauges exported" true (hot <> []);
  Alcotest.(check bool) "bucket-key labels survive the round-trip" true
    (List.for_all
       (fun (l, _) ->
         match List.assoc_opt "key" l with
         | Some k ->
             Astring.String.is_prefix ~affix:"[" k
             && Astring.String.is_infix ~affix:"," k
         | None -> false)
       hot)

let test_prometheus_escaping () =
  let m = Metrics.create () in
  let tricky = "a\"b\\c\nd" in
  let g = Metrics.gauge m ~labels:[ ("key", tricky) ] "escape_test" in
  Metrics.set g 1.;
  let line =
    List.find
      (fun l -> Astring.String.is_prefix ~affix:"escape_test{" l)
      (String.split_on_char '\n' (Metrics.to_prometheus m))
  in
  let _, labels, v = parse_prom_line line in
  Alcotest.(check (float 1e-9)) "value" 1. v;
  Alcotest.(check (option string)) "escaped label round-trips" (Some tricky)
    (List.assoc_opt "key" labels)

(* ------------------------------------------------------------------ *)
(* Allocation meter                                                    *)
(* ------------------------------------------------------------------ *)

(* [rounds] minor-heap blocks of 100 words each, then one block of
   [major + 1] words, allocated directly in the major heap. *)
let allocate_words ~rounds ~major =
  for _ = 1 to rounds do
    ignore (Sys.opaque_identity (Array.make 99 0))
  done;
  ignore (Sys.opaque_identity (Array.make major 0));
  float_of_int ((rounds * 100) + major + 1)

(* The meter's own words in one bracket: one [Gc.counters] result and the
   boxed floats it returns. *)
let meter_slack = 64.

let test_alloc_meter_exact () =
  let w0 = Alloc_meter.words () in
  let expected = allocate_words ~rounds:30 ~major:5_000 in
  let got = Alloc_meter.words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words read as %.0f" expected got)
    true
    (got >= expected && got <= expected +. meter_slack);
  let word = float_of_int (Sys.word_size / 8) in
  let b0 = Alloc_meter.bytes () in
  let expected = word *. allocate_words ~rounds:30 ~major:0 in
  let got = Alloc_meter.bytes () -. b0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes read as %.0f" expected got)
    true
    (got >= expected && got <= expected +. (word *. meter_slack))

let test_alloc_meter_domain_local () =
  let main0 = Alloc_meter.words () in
  let expected, got =
    Domain.join
      (Domain.spawn (fun () ->
           let w0 = Alloc_meter.words () in
           let expected = allocate_words ~rounds:1000 ~major:50_000 in
           (expected, Alloc_meter.words () -. w0)))
  in
  let main_moved = Alloc_meter.words () -. main0 in
  Alcotest.(check bool)
    (Printf.sprintf "spawned domain: %.0f words read as %.0f" expected got)
    true
    (got >= expected && got <= expected +. meter_slack);
  (* The main domain pays only for spawning and joining. *)
  Alcotest.(check bool)
    (Printf.sprintf "main domain moved %.0f words" main_moved)
    true
    (main_moved < 2_000.)

let qcheck = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "obs: spans",
      [
        Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
        Alcotest.test_case "mismatched end raises" `Quick test_span_mismatch_raises;
        Alcotest.test_case "closes on exception" `Quick test_span_closes_on_exception;
        Alcotest.test_case "clock monotone repair" `Quick test_recorder_clock_monotone;
      ] );
    ( "obs: metrics",
      [
        Alcotest.test_case "log bounds" `Quick test_log_bounds;
        Alcotest.test_case "bucket index" `Quick test_bucket_index;
        Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
        Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
        Alcotest.test_case "negative counter raises" `Quick test_counter_negative_raises;
        Alcotest.test_case "same handle twice" `Quick test_same_handle_twice;
      ] );
    ( "obs: exporters",
      [
        Alcotest.test_case "chrome JSON well-formed" `Quick test_chrome_json_wellformed;
        Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_lines_parse;
        Alcotest.test_case "json_text specials" `Quick test_json_text_specials;
        Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
        Alcotest.test_case "metrics JSON parses" `Quick test_metrics_json_parses;
        Alcotest.test_case "quantile edge cases" `Quick test_quantile_edges;
        Alcotest.test_case "prometheus conformance (serving)" `Quick
          test_prometheus_conformance;
        Alcotest.test_case "prometheus label escaping" `Quick test_prometheus_escaping;
      ] );
    ( "obs: alloc meter",
      [
        Alcotest.test_case "word-exact" `Quick test_alloc_meter_exact;
        Alcotest.test_case "domain-local" `Quick test_alloc_meter_domain_local;
      ] );
    ( "obs: integration",
      Alcotest.test_case "observer effect is zero" `Quick test_observer_effect
      :: Alcotest.test_case "pool stats measured" `Quick test_pool_stats_in_measurement
      :: qcheck [ metric_matches_meter ] );
  ]
