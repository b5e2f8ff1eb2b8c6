(* The durability subsystem (DESIGN §9): codec round-trips, fault
   injection, the segmented log writer, checkpoint images, torn-tail and
   bit-rot detection, ARIES-lite recovery, and the headline property —
   recover (crash at k) is observationally identical to never crashing,
   for every crash point k and every strategy. *)

open Core

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

(* A workload small enough that the full crash-point matrix (one run plus
   one recovery per point) stays fast: 100 base tuples, 6 transactions of
   2 modifications, 4 queries. *)
let tiny =
  let p = Experiment.scale Params.defaults 0.001 in
  { p with Params.k_updates = 6.; l_per_txn = 2.; q_queries = 4. }

let hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.init (String.length s) (String.get s)))

let unhex h = String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let tid_src = Tuple.source ~first:1000 ()

let mk_tuple values = Tuple.make ~tid:(Tuple.next tid_src) (Array.of_list values)

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Bytes.to_string b

(* ------------------------------------------------------------------ *)
(* Codec: primitives, engine types, framing                            *)
(* ------------------------------------------------------------------ *)

let test_crc32_vector () =
  (* The canonical IEEE 802.3 check value. *)
  Alcotest.(check int) "crc32(123456789)" 0xCBF43926 (Codec.crc32 "123456789");
  Alcotest.(check int) "crc32(empty)" 0 (Codec.crc32 "")

(* The bit-at-a-time IEEE CRC32 the slice-by-8 kernel must reproduce. *)
let crc32_bitwise s =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 1 to 8 do
        let lsb = !crc land 1 in
        crc := !crc lsr 1;
        if lsb = 1 then crc := !crc lxor 0xEDB88320
      done)
    s;
  !crc lxor 0xFFFFFFFF

let test_crc32_matches_bitwise () =
  (* every prefix length 0..64 covers every split into 8-byte blocks and a
     tail *)
  let block = QCheck.make ~print:hex QCheck.Gen.(string_size ~gen:char (return 64)) in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"crc32 = bitwise reference (every length 0..64)" ~count:300
       block (fun s ->
         List.for_all
           (fun n ->
             let p = String.sub s 0 n in
             Codec.crc32 p = crc32_bitwise p)
           (List.init 65 Fun.id)));
  let big =
    QCheck.make
      ~print:(fun s -> Printf.sprintf "<%d bytes>" (String.length s))
      QCheck.Gen.(string_size ~gen:char (int_range (1 lsl 20) ((1 lsl 20) + 15)))
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"crc32 = bitwise reference (>= 1 MiB)" ~count:3 big (fun s ->
         Codec.crc32 s = crc32_bitwise s))

let test_primitive_roundtrip () =
  let w = Codec.writer () in
  Codec.u8 w 0xAB;
  Codec.u32 w 0xFFFFFFFF;
  Codec.i64 w min_int;
  Codec.i64 w (-1);
  Codec.f64 w 1.5;
  Codec.str w "hello \x00 world";
  Codec.bool w true;
  Codec.option w Codec.str None;
  Codec.option w Codec.str (Some "x");
  Codec.list w Codec.i64 [ 1; 2; 3 ];
  let r = Codec.reader (Codec.contents w) in
  Alcotest.(check int) "u8" 0xAB (Codec.r_u8 r);
  Alcotest.(check int) "u32" 0xFFFFFFFF (Codec.r_u32 r);
  Alcotest.(check int) "i64 min" min_int (Codec.r_i64 r);
  Alcotest.(check int) "i64 -1" (-1) (Codec.r_i64 r);
  Alcotest.(check (float 0.)) "f64" 1.5 (Codec.r_f64 r);
  Alcotest.(check string) "str" "hello \x00 world" (Codec.r_str r);
  Alcotest.(check bool) "bool" true (Codec.r_bool r);
  Alcotest.(check (option string)) "none" None (Codec.r_option r Codec.r_str);
  Alcotest.(check (option string)) "some" (Some "x") (Codec.r_option r Codec.r_str);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.r_list r Codec.r_i64);
  Alcotest.(check bool) "at end" true (Codec.at_end r)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) float;
        map (fun s -> Value.Str s) (small_string ~gen:printable);
      ])

let value_arb = QCheck.make ~print:(fun v -> Value.to_string v) value_gen

let encode_value v =
  let w = Codec.writer () in
  Codec.value w v;
  Codec.contents w

let test_value_roundtrip () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"codec: value round-trip" ~count:500 value_arb
       (fun v ->
         let bytes = encode_value v in
         let v' = Codec.r_value (Codec.reader bytes) in
         (* byte-compare the re-encoding so NaN floats round-trip too *)
         String.equal bytes (encode_value v')))

let tuple_arb =
  QCheck.make
    ~print:(fun t -> Format.asprintf "%a" Tuple.pp t)
    QCheck.Gen.(
      map2
        (fun tid values -> Tuple.make ~tid:(abs tid) (Array.of_list values))
        int
        (list_size (int_range 0 8) value_gen))

let test_tuple_roundtrip () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"codec: tuple round-trip" ~count:500 tuple_arb
       (fun t ->
         let w = Codec.writer () in
         Codec.tuple w t;
         let t' = Codec.r_tuple (Codec.reader (Codec.contents w)) in
         Tuple.tid t = Tuple.tid t'
         && String.equal (Tuple.value_key t) (Tuple.value_key t')))

let test_schema_roundtrip () =
  let check_schema s =
    let w = Codec.writer () in
    Codec.schema w s;
    let s' = Codec.r_schema (Codec.reader (Codec.contents w)) in
    Alcotest.(check string) "name" (Schema.name s) (Schema.name s');
    Alcotest.(check int) "tuple bytes" (Schema.tuple_bytes s) (Schema.tuple_bytes s');
    Alcotest.(check int) "key index" (Schema.key_index s) (Schema.key_index s');
    Alcotest.(check (list string))
      "columns"
      (List.map (fun (c : Schema.column) -> c.Schema.name) (Schema.columns s))
      (List.map (fun (c : Schema.column) -> c.Schema.name) (Schema.columns s'))
  in
  let setup = Experiment.model1_setup tiny in
  check_schema setup.Experiment.ms_dataset.Dataset.m1_schema;
  check_schema
    (Schema.make ~name:"t"
       ~columns:
         [
           { Schema.name = "a"; ty = Schema.T_int };
           { Schema.name = "b"; ty = Schema.T_float };
           { Schema.name = "c"; ty = Schema.T_string };
           { Schema.name = "d"; ty = Schema.T_bool };
         ]
       ~tuple_bytes:64 ~key:"c")

let test_frame_detects_corruption () =
  let payload = "some payload bytes" in
  let framed = Codec.frame payload in
  (match Codec.read_frame (Codec.reader framed) with
  | Ok p -> Alcotest.(check string) "round-trip" payload p
  | Error _ -> Alcotest.fail "clean frame rejected");
  (* every truncation is detected as Torn, every payload bit-flip as a
     checksum failure *)
  for keep = 0 to String.length framed - 1 do
    let r = Codec.reader (String.sub framed 0 keep) in
    match Codec.read_frame r with
    | Ok _ -> Alcotest.fail "truncated frame accepted"
    | Error Codec.Bad_crc when keep >= 8 -> () (* whole header, cut payload *)
    | Error Codec.Torn -> Alcotest.(check int) "pos pinned" 0 r.Codec.pos
    | Error Codec.Bad_crc -> Alcotest.fail "header cut misread as CRC failure"
  done;
  for i = 8 to String.length framed - 1 do
    match Codec.read_frame (Codec.reader (flip framed i)) with
    | Ok _ -> Alcotest.fail "corrupt payload accepted"
    | Error _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let test_fault_counting () =
  let f = Fault.create ~keep_labels:true () in
  Alcotest.(check bool) "enabled" true (Fault.enabled f);
  Fault.point f "a";
  Fault.point f "b";
  Fault.point f "c";
  Alcotest.(check int) "points" 3 (Fault.points_seen f);
  Alcotest.(check (list (pair int string)))
    "labels"
    [ (1, "a"); (2, "b"); (3, "c") ]
    (Fault.labels f);
  Fault.point Fault.none "ignored";
  Alcotest.(check int) "none is stateless" 0 (Fault.points_seen Fault.none);
  Alcotest.(check bool) "none disabled" false (Fault.enabled Fault.none)

let test_fault_crash_at () =
  let f = Fault.create ~crash_at:2 () in
  Fault.point f "first";
  (try
     Fault.point f "second";
     Alcotest.fail "no crash at k"
   with Fault.Crash (label, k) ->
     Alcotest.(check string) "label" "second" label;
     Alcotest.(check int) "index" 2 k);
  Fault.reset ~crash_at:1 f;
  try
    Fault.point f "again";
    Alcotest.fail "no crash after reset"
  with Fault.Crash (label, _) -> Alcotest.(check string) "reset label" "again" label

(* ------------------------------------------------------------------ *)
(* Devices                                                             *)
(* ------------------------------------------------------------------ *)

let exercise_device dev =
  Device.append dev ~name:"a" "hello ";
  Device.append dev ~name:"a" "world";
  Device.write_atomic dev ~name:"b" "bytes";
  Alcotest.(check (option string)) "append" (Some "hello world") (Device.read dev ~name:"a");
  Alcotest.(check (option string)) "atomic" (Some "bytes") (Device.read dev ~name:"b");
  Alcotest.(check (option string)) "missing" None (Device.read dev ~name:"zzz");
  Alcotest.(check (list string)) "files sorted" [ "a"; "b" ] (Device.files dev);
  Device.truncate dev ~name:"a" 5;
  Alcotest.(check (option string)) "truncated" (Some "hello") (Device.read dev ~name:"a");
  Alcotest.(check (option int)) "size" (Some 5) (Device.size dev ~name:"a");
  Alcotest.(check int) "total" 10 (Device.total_bytes dev);
  Device.remove dev ~name:"b";
  Alcotest.(check (list string)) "removed" [ "a" ] (Device.files dev)

let test_device_memory () = exercise_device (Device.memory ())

let test_device_dir () =
  let dir = Filename.temp_dir "vmat-wal-test" "" in
  exercise_device (Device.dir dir);
  (* a fresh handle over the same directory sees the same bytes *)
  Alcotest.(check (option string))
    "persistent" (Some "hello")
    (Device.read (Device.dir dir) ~name:"a")

(* ------------------------------------------------------------------ *)
(* Records and log scanning                                            *)
(* ------------------------------------------------------------------ *)

let sample_records () =
  let t1 = mk_tuple [ Value.Int 1; Value.Str "x" ] in
  let t2 = mk_tuple [ Value.Int 2; Value.Str "y" ] in
  [
    Wal_record.Txn_begin { txn_id = 1 };
    Wal_record.Change { txn_id = 1; before = None; after = Some t1 };
    Wal_record.Change { txn_id = 1; before = Some t1; after = Some t2 };
    Wal_record.Change { txn_id = 1; before = Some t2; after = None };
    Wal_record.Commit { txn_id = 1; op_index = 1 };
    Wal_record.Checkpoint_note { ckpt_id = 3; op_index = 1 };
  ]

let test_record_roundtrip () =
  List.iter
    (fun r ->
      let r' = Wal_record.decode (Wal_record.encode r) in
      Alcotest.(check string) "describe round-trip" (Wal_record.describe r)
        (Wal_record.describe r'))
    (sample_records ())

let test_record_golden_bytes () =
  (* Byte-stability of the on-disk format: recovery must read logs written
     by earlier runs.  tag 03, then txn_id and op_index as little-endian
     64-bit integers. *)
  Alcotest.(check string)
    "commit record bytes" "0307000000000000000900000000000000"
    (hex (Wal_record.encode (Wal_record.Commit { txn_id = 7; op_index = 9 })));
  Alcotest.(check string)
    "txn-begin bytes" "012a00000000000000"
    (hex (Wal_record.encode (Wal_record.Txn_begin { txn_id = 42 })))

(* A change carrying every value kind. *)
let golden_change =
  let before =
    Tuple.make ~tid:77
      [| Value.Int 42; Value.Float 2.5; Value.Str "ab"; Value.Bool true; Value.Null |]
  in
  let after =
    Tuple.make ~tid:78
      [| Value.Int (-3); Value.Float (-0.125); Value.Str ""; Value.Bool false; Value.Null |]
  in
  Wal_record.Change { txn_id = 5; before = Some before; after = Some after }

let test_frame_golden_bytes () =
  (* The whole frame — length, CRC and payload — as the bitwise-CRC codec
     wrote it. *)
  Alcotest.(check string)
    "change frame bytes"
    ("5900000075b6535c020500000000000000014d0000000000000005000000022a00000000"
   ^ "00000003000000000000044004020000006162010100014e0000000000000005000000"
   ^ "02fdffffffffffffff03000000000000c0bf0400000000010000")
    (hex (Wal_record.to_frame golden_change))

let test_scan_tails () =
  let records = sample_records () in
  let log = String.concat "" (List.map Wal_record.to_frame records) in
  let s = Wal_record.scan_bytes log in
  Alcotest.(check int) "all records" (List.length records) (List.length s.Wal_record.records);
  Alcotest.(check string) "clean" "clean" (Wal_record.tail_name s.Wal_record.tail);
  Alcotest.(check int) "all bytes" (String.length log) s.Wal_record.valid_bytes;
  (* torn tail: cut the final frame short *)
  let torn = Wal_record.scan_bytes (String.sub log 0 (String.length log - 3)) in
  Alcotest.(check int) "prefix records" (List.length records - 1)
    (List.length torn.Wal_record.records);
  Alcotest.(check string) "torn" "torn" (Wal_record.tail_name torn.Wal_record.tail);
  (* bit rot inside the final frame's payload *)
  let rotten = Wal_record.scan_bytes (flip log (String.length log - 2)) in
  Alcotest.(check int) "prefix records (rot)" (List.length records - 1)
    (List.length rotten.Wal_record.records);
  Alcotest.(check string) "bad-crc" "bad-crc" (Wal_record.tail_name rotten.Wal_record.tail);
  Alcotest.(check bool) "valid prefix ends before the rot" true
    (rotten.Wal_record.valid_bytes < String.length log - 2)

(* ------------------------------------------------------------------ *)
(* The log writer: group commit, rotation, cost charging               *)
(* ------------------------------------------------------------------ *)

let test_group_commit () =
  let ctx = Ctx.create () in
  let dev = Device.memory () in
  let wal = Wal.create ~config:(Wal.config ~group_commit:3 ()) ~ctx dev in
  let one_txn () =
    let txn_id = Wal.begin_txn wal in
    Wal.append wal (Wal_record.Txn_begin { txn_id });
    Wal.append wal (Wal_record.Commit { txn_id; op_index = txn_id });
    Wal.commit wal
  in
  one_txn ();
  one_txn ();
  Alcotest.(check int) "buffered, not forced" 0 (Wal.forces wal);
  Alcotest.(check bool) "pending bytes" true (Wal.pending_bytes wal > 0);
  one_txn ();
  Alcotest.(check int) "third commit forces" 1 (Wal.forces wal);
  Alcotest.(check int) "nothing pending" 0 (Wal.pending_bytes wal);
  Alcotest.(check int) "records counted" 6 (Wal.appended_records wal);
  Alcotest.(check bool) "durable bytes" true (Wal.forced_bytes wal > 0);
  (* durability cost lands in the Wal category, nowhere else *)
  let m = Ctx.meter ctx in
  Alcotest.(check bool) "wal writes charged" true (Cost_meter.writes m Cost_meter.Wal > 0);
  List.iter
    (fun cat ->
      if Cost_meter.category_index cat <> Cost_meter.category_index Cost_meter.Wal then
        Alcotest.(check int)
          (Printf.sprintf "no %s writes" (Cost_meter.category_name cat))
          0
          (Cost_meter.writes m cat))
    Cost_meter.all_categories

let test_segment_rotation () =
  let ctx = Ctx.create () in
  let dev = Device.memory () in
  let wal = Wal.create ~config:(Wal.config ~segment_bytes:256 ()) ~ctx dev in
  for i = 1 to 40 do
    Wal.append wal (Wal_record.Txn_begin { txn_id = i });
    Wal.append wal (Wal_record.Commit { txn_id = i; op_index = i });
    Wal.commit wal
  done;
  let segs = Wal.segment_files dev in
  Alcotest.(check bool) "rotated" true (List.length segs > 1);
  List.iter
    (fun (i, name) ->
      Alcotest.(check (option int)) "name round-trip" (Some i) (Wal.segment_index name);
      Alcotest.(check bool) "bounded segments" true
        (Option.value ~default:0 (Device.size dev ~name) <= 256 + 512))
    segs;
  (* a new writer starts a fresh segment after the existing ones *)
  let wal2 = Wal.create ~ctx dev in
  Wal.append wal2 (Wal_record.Txn_begin { txn_id = 99 });
  Wal.force wal2;
  let last = List.fold_left (fun acc (i, _) -> max acc i) 0 (Wal.segment_files dev) in
  let before = List.fold_left (fun acc (i, _) -> max acc i) 0 segs in
  Alcotest.(check bool) "fresh segment" true (last > before)

(* ------------------------------------------------------------------ *)
(* Checkpoint images                                                   *)
(* ------------------------------------------------------------------ *)

let sample_image id =
  let t1 = mk_tuple [ Value.Int 10; Value.Float 0.25 ] in
  let t2 = mk_tuple [ Value.Int 11; Value.Str "v" ] in
  {
    Checkpoint.ck_id = id;
    ck_op_index = 17;
    ck_next_txn_id = 5;
    ck_strategy = "deferred";
    ck_base = [ t1; t2 ];
    ck_view = [ (t2, 2) ];
    ck_a_net = [ (t1, true) ];
    ck_d_net = [ (t2, false) ];
    ck_adaptive = [ ("kind", "immediate") ];
  }

let test_checkpoint_roundtrip () =
  let im = sample_image 4 in
  match Checkpoint.of_bytes (Checkpoint.to_bytes im) with
  | Error e -> Alcotest.fail e
  | Ok (Checkpoint.Delta _) -> Alcotest.fail "full image read back as a delta"
  | Ok (Checkpoint.Full im') ->
      Alcotest.(check int) "id" im.Checkpoint.ck_id im'.Checkpoint.ck_id;
      Alcotest.(check int) "op" im.Checkpoint.ck_op_index im'.Checkpoint.ck_op_index;
      Alcotest.(check int) "txn" im.Checkpoint.ck_next_txn_id im'.Checkpoint.ck_next_txn_id;
      Alcotest.(check string) "strategy" "deferred" im'.Checkpoint.ck_strategy;
      Alcotest.(check int) "base" 2 (List.length im'.Checkpoint.ck_base);
      Alcotest.(check (list (pair string string)))
        "adaptive" im.Checkpoint.ck_adaptive im'.Checkpoint.ck_adaptive

let golden_image () =
  let t1 = Tuple.make ~tid:3 [| Value.Int 10; Value.Float 0.25 |] in
  let t2 = Tuple.make ~tid:4 [| Value.Int 11; Value.Str "v" |] in
  {
    Checkpoint.ck_id = 2;
    ck_op_index = 17;
    ck_next_txn_id = 5;
    ck_strategy = "deferred";
    ck_base = [ t1; t2 ];
    ck_view = [ (t2, 2) ];
    ck_a_net = [ (t1, true) ];
    ck_d_net = [ (t2, false) ];
    ck_adaptive = [ ("kind", "immediate") ];
  }

let test_checkpoint_golden_bytes () =
  (* magic, frame header (length, CRC) and payload of a small image *)
  Alcotest.(check string)
    "image bytes"
    ("564d4154434b5032e4000000f2dd3dd40200000000000000110000000000000005000000"
   ^ "0000000008000000646566657272656402000000030000000000000002000000020a00"
   ^ "00000000000003000000000000d03f040000000000000002000000020b000000000000"
   ^ "0004010000007601000000040000000000000002000000020b00000000000000040100"
   ^ "000076020000000000000001000000030000000000000002000000020a000000000000"
   ^ "0003000000000000d03f0101000000040000000000000002000000020b000000000000"
   ^ "000401000000760001000000040000006b696e6409000000696d6d656469617465")
    (hex (Checkpoint.to_bytes (golden_image ())))

(* The same image in the older format (magic VMATCKP1), which also carried
   four bytes of Bloom filter bits and an insertion count. *)
let v1_golden_image =
  unhex
    ("564d4154434b5031f40000005b25f9d20200000000000000110000000000000005000000"
   ^ "0000000008000000646566657272656402000000030000000000000002000000020a00"
   ^ "00000000000003000000000000d03f040000000000000002000000020b000000000000"
   ^ "0004010000007601000000040000000000000002000000020b00000000000000040100"
   ^ "000076020000000000000001000000030000000000000002000000020a000000000000"
   ^ "0003000000000000d03f0101000000040000000000000002000000020b000000000000"
   ^ "00040100000076000400000001020304090000000000000001000000040000006b696e"
   ^ "6409000000696d6d656469617465")

let write_full dev im = Checkpoint.write dev ~id:im.Checkpoint.ck_id (Checkpoint.to_bytes im)
let write_delta dev d = Checkpoint.write dev ~id:d.Checkpoint.cd_id (Checkpoint.delta_to_bytes d)

let corrupt_image dev id =
  let name = Checkpoint.file_name id in
  let bytes = Option.get (Device.read dev ~name) in
  Device.write_atomic dev ~name (flip bytes (String.length bytes - 5))

let test_checkpoint_latest_skips_corrupt () =
  let dev = Device.memory () in
  let written1 = write_full dev (sample_image 1) in
  let written2 = write_full dev (sample_image 2) in
  (* write and latest report the file's size, which recovery charges *)
  Alcotest.(check (option int)) "write returns the bytes written"
    (Device.size dev ~name:(Checkpoint.file_name 1)) (Some written1);
  (match Checkpoint.latest dev with
  | Some ch ->
      Alcotest.(check int) "newest wins" 2 ch.Checkpoint.ch_full_id;
      Alcotest.(check (list int)) "latest returns the bytes read" [ written2 ]
        ch.Checkpoint.ch_image_bytes
  | None -> Alcotest.fail "no image found");
  (* corrupt the newest image: recovery falls back to the older one *)
  corrupt_image dev 2;
  (match Checkpoint.latest dev with
  | Some ch ->
      Alcotest.(check int) "corrupt skipped" 1 ch.Checkpoint.ch_full_id;
      Alcotest.(check (list int)) "bytes of the image used" [ written1 ]
        ch.Checkpoint.ch_image_bytes
  | None -> Alcotest.fail "older image not found");
  (match Checkpoint.read dev ~id:2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt image validated");
  (* an older-format image is refused by its magic: recovery falls back past
     it, to the older image here and to the log when it is the only one *)
  (match Checkpoint.of_bytes v1_golden_image with
  | Error e -> Alcotest.(check string) "older format refused" "bad magic" e
  | Ok _ -> Alcotest.fail "older-format image validated");
  Device.write_atomic dev ~name:(Checkpoint.file_name 3) v1_golden_image;
  (match Checkpoint.latest dev with
  | Some ch -> Alcotest.(check int) "older format skipped" 1 ch.Checkpoint.ch_full_id
  | None -> Alcotest.fail "older image not found");
  let only_v1 = Device.memory () in
  Device.write_atomic only_v1 ~name:(Checkpoint.file_name 1) v1_golden_image;
  Alcotest.(check bool) "older format alone: the log covers everything" true
    (Option.is_none (Checkpoint.latest only_v1));
  Alcotest.(check (option int)) "file name round-trip" (Some 7)
    (Checkpoint.file_id (Checkpoint.file_name 7))

(* ------------------------------------------------------------------ *)
(* Delta images and chains                                             *)
(* ------------------------------------------------------------------ *)

let golden_delta () =
  {
    Checkpoint.cd_id = 3;
    cd_parent = 2;
    cd_op_index = 21;
    cd_next_txn_id = 7;
    cd_strategy = "deferred";
    cd_adaptive = [ ("kind", "immediate") ];
    cd_removed = [ 3 ];
    cd_added = [ Tuple.make ~tid:5 [| Value.Int 12; Value.Str "w" |] ];
  }

let test_delta_roundtrip () =
  let d = golden_delta () in
  match Checkpoint.of_bytes (Checkpoint.delta_to_bytes d) with
  | Error e -> Alcotest.fail e
  | Ok (Checkpoint.Full _) -> Alcotest.fail "delta read back as a full image"
  | Ok (Checkpoint.Delta d') ->
      Alcotest.(check (list int))
        "ids, op and txn"
        [ 3; 2; 21; 7 ]
        [
          d'.Checkpoint.cd_id;
          d'.Checkpoint.cd_parent;
          d'.Checkpoint.cd_op_index;
          d'.Checkpoint.cd_next_txn_id;
        ];
      Alcotest.(check string) "strategy" "deferred" d'.Checkpoint.cd_strategy;
      Alcotest.(check (list (pair string string)))
        "adaptive" d.Checkpoint.cd_adaptive d'.Checkpoint.cd_adaptive;
      Alcotest.(check (list int)) "removed" [ 3 ] d'.Checkpoint.cd_removed;
      Alcotest.(check (list string))
        "added"
        (List.map Tuple.value_key d.Checkpoint.cd_added)
        (List.map Tuple.value_key d'.Checkpoint.cd_added)

let test_delta_golden_bytes () =
  (* magic VMATCKD1, frame header, then id 3, parent 2, op 21, next txn 7,
     the strategy, one adaptive pair, removed tids [3] and added tuples
     [tid 5] *)
  Alcotest.(check string)
    "delta bytes"
    ("564d4154434b4431700000003e2dd11503000000000000000200000000000000150000"
   ^ "0000000000070000000000000008000000646566657272656401000000040000006b69"
   ^ "6e6409000000696d6d6564696174650100000003000000000000000100000005000000"
   ^ "0000000002000000020c00000000000000040100000077")
    (hex (Checkpoint.delta_to_bytes (golden_delta ())))

let test_delta_rejects_malformed () =
  let t5 = Tuple.make ~tid:5 [| Value.Int 12 |] in
  let check_rejected what d =
    match Checkpoint.of_bytes (Checkpoint.delta_to_bytes d) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ " accepted")
  in
  let d = golden_delta () in
  check_rejected "unordered removed tids" { d with Checkpoint.cd_removed = [ 4; 3 ] };
  check_rejected "unordered added tids"
    { d with Checkpoint.cd_added = [ t5; Tuple.make ~tid:4 [| Value.Int 1 |] ] };
  check_rejected "tid both removed and added"
    { d with Checkpoint.cd_removed = [ 5 ]; cd_added = [ t5 ] };
  check_rejected "parent not older" { d with Checkpoint.cd_parent = 3 }

let tid_lines tuples =
  List.map (fun t -> Printf.sprintf "%d %s" (Tuple.tid t) (Tuple.value_key t)) tuples

(* A full image and two deltas on it: the fold removes, adds and replaces
   rows by tid, the newest delta winning. *)
let small_chain dev =
  let row tid v = Tuple.make ~tid [| Value.Int v |] in
  let full =
    { (sample_image 1) with Checkpoint.ck_base = [ row 1 10; row 2 20; row 3 30; row 4 40 ] }
  in
  let delta id parent removed added =
    {
      Checkpoint.cd_id = id;
      cd_parent = parent;
      cd_op_index = 17 + id;
      cd_next_txn_id = 5 + id;
      cd_strategy = "deferred";
      cd_adaptive = [ ("kind", Printf.sprintf "k%d" id) ];
      cd_removed = removed;
      cd_added = added;
    }
  in
  let b1 = write_full dev full in
  (* delta 2: drop tid 2, replace tid 3, add tid 6 *)
  let b2 = write_delta dev (delta 2 1 [ 2 ] [ row 3 31; row 6 60 ]) in
  (* delta 3: drop tid 1 and the tid 6 delta 2 added, add tid 5, replace tid 3 again *)
  let b3 = write_delta dev (delta 3 2 [ 1; 6 ] [ row 3 32; row 5 50 ]) in
  [ b1; b2; b3 ]

let test_chain_fold () =
  let dev = Device.memory () in
  let bytes = small_chain dev in
  let row tid v = Tuple.make ~tid [| Value.Int v |] in
  match Checkpoint.latest dev with
  | None -> Alcotest.fail "no chain resolved"
  | Some ch ->
      Alcotest.(check int) "full image" 1 ch.Checkpoint.ch_full_id;
      Alcotest.(check (list int)) "deltas, oldest first" [ 2; 3 ] ch.Checkpoint.ch_delta_ids;
      Alcotest.(check (list int)) "bytes per image" bytes ch.Checkpoint.ch_image_bytes;
      Alcotest.(check int) "newest op index" 20 ch.Checkpoint.ch_op_index;
      Alcotest.(check int) "newest next txn id" 8 ch.Checkpoint.ch_next_txn_id;
      Alcotest.(check (list (pair string string))) "newest adaptive pairs" [ ("kind", "k3") ]
        ch.Checkpoint.ch_adaptive;
      Alcotest.(check (list string))
        "folded base"
        (tid_lines [ row 3 32; row 4 40; row 5 50 ])
        (tid_lines ch.Checkpoint.ch_base)

let test_chain_falls_back () =
  (* a corrupt delta in mid-chain: the newest intact prefix wins *)
  let dev = Device.memory () in
  ignore (small_chain dev);
  corrupt_image dev 2;
  (match Checkpoint.latest dev with
  | Some ch ->
      Alcotest.(check int) "prefix ends at the full image" 1 ch.Checkpoint.ch_full_id;
      Alcotest.(check (list int)) "no deltas survive" [] ch.Checkpoint.ch_delta_ids
  | None -> Alcotest.fail "intact prefix not found");
  let dev = Device.memory () in
  ignore (small_chain dev);
  corrupt_image dev 3;
  (match Checkpoint.latest dev with
  | Some ch -> Alcotest.(check (list int)) "prefix keeps delta 2" [ 2 ] ch.Checkpoint.ch_delta_ids
  | None -> Alcotest.fail "intact prefix not found");
  (* a corrupt full image: the chain on it is lost, an older chain wins *)
  let dev = Device.memory () in
  ignore (write_full dev (sample_image 1));
  let d = golden_delta () in
  ignore (write_full dev (sample_image 2));
  ignore (write_delta dev d);
  corrupt_image dev 2;
  (match Checkpoint.latest dev with
  | Some ch ->
      Alcotest.(check int) "older chain" 1 ch.Checkpoint.ch_full_id;
      Alcotest.(check (list int)) "older chain has no deltas" [] ch.Checkpoint.ch_delta_ids
  | None -> Alcotest.fail "older chain not found");
  (* a delta whose file id disagrees with its payload never splices *)
  let dev = Device.memory () in
  ignore (write_full dev (sample_image 2));
  ignore (Checkpoint.write dev ~id:4 (Checkpoint.delta_to_bytes d));
  match Checkpoint.latest dev with
  | Some ch -> Alcotest.(check (list int)) "misnamed delta skipped" [] ch.Checkpoint.ch_delta_ids
  | None -> Alcotest.fail "full image not found"

(* ------------------------------------------------------------------ *)
(* Fuzzed decoders: log and image bytes never raise                    *)
(* ------------------------------------------------------------------ *)

(* A mutant of one valid encoding: a few bytes overwritten, then maybe cut
   short.  Re-framed with a correct CRC, it gets past the checksum and
   reaches the decoder. *)
let mutant_arb seeds =
  QCheck.make ~print:hex
    QCheck.Gen.(
      oneofl seeds >>= fun s ->
      let n = String.length s in
      list_size (int_range 0 4) (pair (int_bound (n - 1)) (int_bound 255)) >>= fun edits ->
      oneof [ return n; int_bound n ] >|= fun keep ->
      let b = Bytes.of_string s in
      List.iter (fun (i, v) -> Bytes.set b i (Char.chr v)) edits;
      Bytes.sub_string b 0 keep)

let test_fuzz_record_scan () =
  let seeds = List.map Wal_record.encode (golden_change :: sample_records ()) in
  let prefix = Wal_record.to_frame (Wal_record.Txn_begin { txn_id = 1 }) in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"scan_bytes classifies every re-framed record mutant"
       ~count:3000 (mutant_arb seeds) (fun payload ->
         let log = prefix ^ Codec.frame payload in
         let s = Wal_record.scan_bytes log in
         let kept = List.length s.Wal_record.records in
         match s.Wal_record.tail with
         | Wal_record.Clean -> kept = 2 && s.Wal_record.valid_bytes = String.length log
         | Wal_record.Bad_crc -> kept = 1 && s.Wal_record.valid_bytes = String.length prefix
         | Wal_record.Torn -> false))

let test_fuzz_image_decode () =
  let seeds = [ Checkpoint.encode (golden_image ()); Checkpoint.encode (sample_image 1) ] in
  let magic = String.sub (Checkpoint.to_bytes (golden_image ())) 0 8 in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"of_bytes answers Ok or Error for every re-framed image mutant"
       ~count:3000 (mutant_arb seeds) (fun payload ->
         match Checkpoint.of_bytes (magic ^ Codec.frame payload) with
         | Ok _ | Error _ -> true))

let test_fuzz_delta_decode () =
  let d = golden_delta () in
  let seeds =
    [
      Checkpoint.encode_delta d;
      Checkpoint.encode_delta
        {
          d with
          Checkpoint.cd_removed = [ 1; 2; 9 ];
          cd_added = [ mk_tuple [ Value.Float 0.5; Value.Null ]; mk_tuple [ Value.Bool true ] ];
        };
    ]
  in
  let magic = String.sub (Checkpoint.delta_to_bytes d) 0 8 in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"of_bytes answers Ok or Error for every re-framed delta mutant"
       ~count:3000 (mutant_arb seeds) (fun payload ->
         match Checkpoint.of_bytes (magic ^ Codec.frame payload) with
         | Ok _ | Error _ -> true))

(* ------------------------------------------------------------------ *)
(* Durable wrapper: same answers, costs isolated to the Wal category   *)
(* ------------------------------------------------------------------ *)

let run_tiny ~durability seed =
  let p = tiny in
  let setup = Experiment.model1_setup ~seed p in
  let ctx = Experiment.fresh_ctx p ~first_tid:setup.Experiment.ms_first_tid in
  let env =
    {
      Strategy_sp.ctx;
      view = setup.Experiment.ms_dataset.Dataset.m1_view;
      initial = setup.Experiment.ms_dataset.Dataset.m1_tuples;
      ad_buckets = Experiment.ad_buckets_for p;
    }
  in
  let inner = Strategy_sp.immediate env in
  let strategy, durable =
    if durability then begin
      let d =
        Durable.wrap
          ~config:(Wal.config ~group_commit:2 ~checkpoint_every:3 ())
          ~ctx ~dev:(Device.memory ())
          ~initial:setup.Experiment.ms_dataset.Dataset.m1_tuples inner
      in
      (Durable.strategy d, Some d)
    end
    else (inner, None)
  in
  let answers = ref [] in
  List.iter
    (function
      | Stream.Txn changes -> strategy.Strategy.handle_transaction changes
      | Stream.Query q ->
          let rows = strategy.Strategy.answer_query q in
          answers :=
            String.concat ";"
              (List.map
                 (fun (t, c) -> Printf.sprintf "%s*%d" (Tuple.value_key t) c)
                 rows)
            :: !answers)
    setup.Experiment.ms_ops;
  Option.iter Durable.flush durable;
  (List.rev !answers, ctx, durable)

let test_durable_transparent () =
  let plain, plain_ctx, _ = run_tiny ~durability:false 13 in
  let logged, logged_ctx, durable = run_tiny ~durability:true 13 in
  Alcotest.(check (list string)) "answers identical under WAL" plain logged;
  let d = Option.get durable in
  Alcotest.(check bool) "checkpoints happened" true (Durable.checkpoints_taken d > 0);
  (* the wrapper charges the Wal category and nothing else *)
  let pm = Ctx.meter plain_ctx and lm = Ctx.meter logged_ctx in
  List.iter
    (fun cat ->
      if Cost_meter.category_index cat <> Cost_meter.category_index Cost_meter.Wal then begin
        Alcotest.(check int)
          (Printf.sprintf "%s reads unchanged" (Cost_meter.category_name cat))
          (Cost_meter.reads pm cat) (Cost_meter.reads lm cat);
        Alcotest.(check int)
          (Printf.sprintf "%s writes unchanged" (Cost_meter.category_name cat))
          (Cost_meter.writes pm cat) (Cost_meter.writes lm cat)
      end)
    Cost_meter.all_categories;
  Alcotest.(check int) "plain run never touches Wal" 0
    (Cost_meter.writes pm Cost_meter.Wal);
  Alcotest.(check bool) "durable run pays Wal writes" true
    (Cost_meter.writes lm Cost_meter.Wal > 0)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let test_clean_restart () =
  let p = tiny in
  let config = Wal.config ~group_commit:1 ~checkpoint_every:4 () in
  let setup = Experiment.model1_setup ~seed:17 p in
  let initial = setup.Experiment.ms_dataset.Dataset.m1_tuples in
  let dev = Device.memory () in
  let mk_env ctx base =
    {
      Strategy_sp.ctx;
      view = setup.Experiment.ms_dataset.Dataset.m1_view;
      initial = base;
      ad_buckets = Experiment.ad_buckets_for p;
    }
  in
  let ctx = Experiment.fresh_ctx p ~first_tid:setup.Experiment.ms_first_tid in
  let d = Durable.wrap ~config ~ctx ~dev ~initial (Strategy_sp.immediate (mk_env ctx initial)) in
  let s = Durable.strategy d in
  List.iter
    (function
      | Stream.Txn changes -> s.Strategy.handle_transaction changes
      | Stream.Query q -> ignore (s.Strategy.answer_query q))
    setup.Experiment.ms_ops;
  Durable.flush d;
  let want_base =
    List.map (fun t -> Printf.sprintf "%d %s" (Tuple.tid t) (Tuple.value_key t))
      (Durable.base_contents d)
  in
  (* restart: recover over the surviving device *)
  let ctx2 = Experiment.fresh_ctx p ~first_tid:setup.Experiment.ms_first_tid in
  let build ~image:_ base = (Strategy_sp.immediate (mk_env ctx2 base), Durable.null_probe) in
  let d2, scan = Recovery.recover ~config ~ctx:ctx2 ~dev ~initial ~build () in
  Alcotest.(check string) "clean tail" "clean"
    (Wal_record.tail_name scan.Recovery.sc_tail);
  (* queries are not durable events: the resume point is the last committed
     transaction's op index; the driver re-issues (re-answers) anything
     after it *)
  let last_txn_op =
    snd
      (List.fold_left
         (fun (i, acc) op ->
           (i + 1, match op with Stream.Txn _ -> i + 1 | Stream.Query _ -> acc))
         (0, 0) setup.Experiment.ms_ops)
  in
  Alcotest.(check int) "resume = last committed txn" last_txn_op scan.Recovery.sc_resume;
  Alcotest.(check bool) "resume within the stream" true
    (scan.Recovery.sc_resume <= List.length setup.Experiment.ms_ops);
  Alcotest.(check bool) "an image was used" true
    (Option.is_some scan.Recovery.sc_image);
  Alcotest.(check (list string)) "base contents identical" want_base
    (List.map
       (fun t -> Printf.sprintf "%d %s" (Tuple.tid t) (Tuple.value_key t))
       (Durable.base_contents d2));
  Alcotest.(check int) "txn ids continue" (Wal.next_txn_id (Durable.wal d))
    (Wal.next_txn_id (Durable.wal d2))

let test_recovery_truncates_torn_tail () =
  let ctx = Ctx.create () in
  let dev = Device.memory () in
  let wal = Wal.create ~ctx dev in
  let log_txn txn_id =
    let t = mk_tuple [ Value.Int txn_id ] in
    Wal.append wal (Wal_record.Txn_begin { txn_id });
    Wal.append wal (Wal_record.Change { txn_id; before = None; after = Some t });
    Wal.append wal (Wal_record.Commit { txn_id; op_index = txn_id });
    Wal.force wal
  in
  log_txn 1;
  log_txn 2;
  (* the crash tore the final force: cut the last commit frame short *)
  let _, seg = List.hd (List.rev (Wal.segment_files dev)) in
  let size = Option.get (Device.size dev ~name:seg) in
  Device.truncate dev ~name:seg (size - 4);
  let s = Recovery.scan dev in
  Alcotest.(check string) "torn" "torn" (Wal_record.tail_name s.Recovery.sc_tail);
  Alcotest.(check int) "stops at last valid commit" 1 (List.length s.Recovery.sc_txns);
  Alcotest.(check int) "resume" 1 s.Recovery.sc_resume;
  Alcotest.(check bool) "repair target identified" true
    (Option.is_some s.Recovery.sc_invalid);
  Recovery.repair dev s;
  let s2 = Recovery.scan dev in
  Alcotest.(check string) "clean after repair" "clean"
    (Wal_record.tail_name s2.Recovery.sc_tail);
  Alcotest.(check int) "same committed prefix" 1 (List.length s2.Recovery.sc_txns);
  (* txn 2's commit was lost, but its begin survived in the valid prefix:
     the id stays reserved so the continuing engine never reuses it *)
  Alcotest.(check int) "next txn id" 3 s2.Recovery.sc_next_txn_id

let test_recovery_stops_at_bit_rot () =
  let ctx = Ctx.create () in
  let dev = Device.memory () in
  let wal = Wal.create ~ctx dev in
  let log_txn txn_id =
    Wal.append wal (Wal_record.Txn_begin { txn_id });
    Wal.append wal (Wal_record.Commit { txn_id; op_index = txn_id });
    Wal.force wal
  in
  log_txn 1;
  log_txn 2;
  log_txn 3;
  let _, seg = List.hd (Wal.segment_files dev) in
  let bytes = Option.get (Device.read dev ~name:seg) in
  (* flip one bit inside txn 2's begin record; txn 1 must survive, txns 2
     and 3 must not (nothing after the first invalid frame is trusted) *)
  let txn1_bytes =
    String.length (Wal_record.to_frame (Wal_record.Txn_begin { txn_id = 1 }))
    + String.length (Wal_record.to_frame (Wal_record.Commit { txn_id = 1; op_index = 1 }))
  in
  Device.write_atomic dev ~name:seg (flip bytes (txn1_bytes + 10));
  let s = Recovery.scan dev in
  Alcotest.(check string) "bad-crc" "bad-crc" (Wal_record.tail_name s.Recovery.sc_tail);
  Alcotest.(check int) "only txn 1 committed" 1 (List.length s.Recovery.sc_txns);
  Alcotest.(check int) "valid prefix" txn1_bytes
    (match s.Recovery.sc_invalid with
    | Some (_, keep) -> keep
    | None -> -1)

(* ------------------------------------------------------------------ *)
(* Image chains written by a real run                                  *)
(* ------------------------------------------------------------------ *)

(* Checkpointing after every transaction compacts at this scale: the
   chain's deltas outgrow the full image's pages within the run, so the
   matrix crashes mid-chain and mid-compaction too. *)
let compacting = Wal.config ~group_commit:2 ~checkpoint_every:1 ()

let image_kinds dev =
  List.map
    (fun (id, _) ->
      match Checkpoint.read dev ~id with
      | Ok (Checkpoint.Full _, _) -> "full"
      | Ok (Checkpoint.Delta _, _) -> "delta"
      | Error e -> e)
    (Checkpoint.image_files dev)

(* One uncrashed run of the compacting configuration on [dev]. *)
let compacting_run dev =
  let spec =
    Crash_harness.spec ~seed:42 ~config:compacting ~params:tiny
      (Crash_harness.Static Migrate.Deferred)
  in
  match Crash_harness.crash_into spec ~dev ~crash_at:max_int with
  | Ok outcome -> (spec, outcome)
  | Error (label, _) -> Alcotest.fail ("uncrashed run crashed at " ^ label)

let test_run_chain_compacts () =
  let dev = Device.memory () in
  let _, outcome = compacting_run dev in
  Alcotest.(check (list string)) "image kinds, oldest first"
    [ "full"; "delta"; "delta"; "full"; "delta"; "delta" ]
    (image_kinds dev);
  (* a delta carries only the changes since its parent: here one
     transaction's two modifications *)
  List.iter
    (fun (id, _) ->
      match Checkpoint.read dev ~id with
      | Ok (Checkpoint.Delta d, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "delta %d holds one transaction" id)
            true
            (List.length d.Checkpoint.cd_removed <= 2 && List.length d.Checkpoint.cd_added <= 2)
      | Ok (Checkpoint.Full _, _) | Error _ -> ())
    (Checkpoint.image_files dev);
  match Checkpoint.latest dev with
  | None -> Alcotest.fail "no chain resolved"
  | Some ch ->
      Alcotest.(check int) "newest chain starts at the compaction" 4 ch.Checkpoint.ch_full_id;
      Alcotest.(check (list int)) "and carries its deltas" [ 5; 6 ] ch.Checkpoint.ch_delta_ids;
      (* the last transaction checkpointed, so the chain covers the run *)
      Alcotest.(check (list string)) "folded base = Durable.base_contents"
        outcome.Crash_harness.oc_base (tid_lines ch.Checkpoint.ch_base)

let test_delta_orders_chained_updates () =
  (* one row updated twice inside one delta's window: the fold must apply
     the transactions in commit order *)
  let setup = Experiment.model1_setup ~seed:17 tiny in
  let initial = setup.Experiment.ms_dataset.Dataset.m1_tuples in
  let ctx = Experiment.fresh_ctx tiny ~first_tid:setup.Experiment.ms_first_tid in
  let env =
    {
      Strategy_sp.ctx;
      view = setup.Experiment.ms_dataset.Dataset.m1_view;
      initial;
      ad_buckets = Experiment.ad_buckets_for tiny;
    }
  in
  let dev = Device.memory () in
  let d =
    Durable.wrap ~config:(Wal.config ~checkpoint_every:2 ()) ~ctx ~dev ~initial
      (Strategy_sp.immediate env)
  in
  let s = Durable.strategy d in
  let fresh = Tuple.source ~first:900_000 () in
  let update old_tuple =
    let new_tuple = Tuple.with_tid old_tuple (Tuple.next fresh) in
    s.Strategy.handle_transaction [ Strategy.modify ~old_tuple ~new_tuple ];
    new_tuple
  in
  (* transactions 1-2 end in the full image, 3-4 in a delta *)
  ignore (update (update (List.nth initial 0)));
  ignore (update (update (List.nth initial 1)));
  Alcotest.(check (list string)) "image kinds" [ "full"; "delta" ] (image_kinds dev);
  match Checkpoint.latest dev with
  | None -> Alcotest.fail "no chain resolved"
  | Some ch ->
      Alcotest.(check (list string)) "folded base = Durable.base_contents"
        (tid_lines (Durable.base_contents d)) (tid_lines ch.Checkpoint.ch_base)

let test_recover_past_corrupt_links () =
  (* The run leaves chains 1 <- 2 <- 3 and 4 <- 5 <- 6.  Whichever image is
     corrupt, recovery resolves the newest intact chain and the longer log
     tail brings the state back to the uncrashed run's. *)
  List.iter
    (fun (corrupt, want_full, want_deltas) ->
      let dev = Device.memory () in
      let spec, reference = compacting_run dev in
      corrupt_image dev corrupt;
      let outcome, scan = Crash_harness.recover_on spec ~dev in
      (match scan.Recovery.sc_image with
      | Some ch ->
          Alcotest.(check (pair int (list int)))
            (Printf.sprintf "chain with image %d corrupt" corrupt)
            (want_full, want_deltas)
            (ch.Checkpoint.ch_full_id, ch.Checkpoint.ch_delta_ids)
      | None -> Alcotest.fail "no chain resolved");
      Alcotest.(check (list string))
        (Printf.sprintf "state with image %d corrupt = uncrashed state" corrupt)
        (Crash_harness.state_lines reference) (Crash_harness.state_lines outcome))
    [
      (1, 4, [ 5; 6 ]);
      (2, 4, [ 5; 6 ]);
      (3, 4, [ 5; 6 ]);
      (* the compacting full image: back to the older chain *)
      (4, 1, [ 2; 3 ]);
      (* a delta in mid-chain: the intact prefix *)
      (5, 4, []);
      (6, 4, [ 5 ]);
    ]

(* ------------------------------------------------------------------ *)
(* Crash equivalence: the headline property                            *)
(* ------------------------------------------------------------------ *)

let check_matrix spec =
  let m = Crash_harness.crash_matrix spec in
  Alcotest.(check bool) "workload passes crash points" true (m.Crash_harness.mx_points > 0);
  Alcotest.(check (list int))
    (Printf.sprintf "all %d crash points recover identically (%s)"
       m.Crash_harness.mx_points
       (Crash_harness.kind_name spec.Crash_harness.hp_kind))
    [] m.Crash_harness.mx_mismatches;
  m

let test_crash_matrix_all_strategies () =
  List.iter
    (fun kind ->
      ignore (check_matrix (Crash_harness.spec ~seed:42 ~config:compacting ~params:tiny kind)))
    Crash_harness.all_kinds

let test_crash_matrix_labels () =
  let spec =
    Crash_harness.spec ~seed:42
      ~config:(Wal.config ~group_commit:1 ~checkpoint_every:2 ())
      ~params:tiny (Crash_harness.Static Migrate.Immediate)
  in
  let m = check_matrix spec in
  let labels =
    List.sort_uniq String.compare (List.map snd m.Crash_harness.mx_labels)
  in
  (* the whole crash-point catalog is exercised *)
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " exercised") true
        (List.exists (String.equal expected) labels))
    [
      "wal.append"; "wal.force.torn"; "wal.force.done"; "ckpt.begin";
      "ckpt.written"; "ckpt.done";
    ];
  (* and some crashes genuinely tore the log *)
  Alcotest.(check bool) "torn tails seen" true
    (List.exists
       (fun r ->
         match r.Crash_harness.cr_tail with
         | Wal_record.Torn | Wal_record.Bad_crc -> true
         | Wal_record.Clean -> false)
       m.Crash_harness.mx_reports)

let test_crash_equivalence_property () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"crash at k ≡ no crash (random seed/config/kind)"
       ~count:6
       QCheck.(
         quad (int_range 1 1000) (int_range 1 3) (int_range 1 4) (int_range 0 2))
       (fun (seed, group_commit, checkpoint_every, which) ->
         let kind =
           match which with
           | 0 -> Crash_harness.Static Migrate.Immediate
           | 1 -> Crash_harness.Static Migrate.Deferred
           | _ -> Crash_harness.Adaptive_k
         in
         let spec =
           Crash_harness.spec ~seed
             ~config:(Wal.config ~group_commit ~checkpoint_every ())
             ~params:tiny kind
         in
         let m = Crash_harness.crash_matrix spec in
         m.Crash_harness.mx_points > 0 && List.is_empty m.Crash_harness.mx_mismatches))

let suites =
  [
    ( "wal-codec",
      [
        Alcotest.test_case "crc32 known vector" `Quick test_crc32_vector;
        Alcotest.test_case "crc32 matches bitwise (qcheck)" `Quick test_crc32_matches_bitwise;
        Alcotest.test_case "primitive round-trip" `Quick test_primitive_roundtrip;
        Alcotest.test_case "value round-trip (qcheck)" `Quick test_value_roundtrip;
        Alcotest.test_case "tuple round-trip (qcheck)" `Quick test_tuple_roundtrip;
        Alcotest.test_case "schema round-trip" `Quick test_schema_roundtrip;
        Alcotest.test_case "frame detects corruption" `Quick test_frame_detects_corruption;
      ] );
    ( "wal-fault",
      [
        Alcotest.test_case "counting injector" `Quick test_fault_counting;
        Alcotest.test_case "crash at k" `Quick test_fault_crash_at;
      ] );
    ( "wal-log",
      [
        Alcotest.test_case "memory device" `Quick test_device_memory;
        Alcotest.test_case "directory device" `Quick test_device_dir;
        Alcotest.test_case "record round-trip" `Quick test_record_roundtrip;
        Alcotest.test_case "record golden bytes" `Quick test_record_golden_bytes;
        Alcotest.test_case "frame golden bytes" `Quick test_frame_golden_bytes;
        Alcotest.test_case "scan classifies tails" `Quick test_scan_tails;
        Alcotest.test_case "group commit" `Quick test_group_commit;
        Alcotest.test_case "segment rotation" `Quick test_segment_rotation;
      ] );
    ( "wal-checkpoint",
      [
        Alcotest.test_case "image round-trip" `Quick test_checkpoint_roundtrip;
        Alcotest.test_case "image golden bytes" `Quick test_checkpoint_golden_bytes;
        Alcotest.test_case "latest skips corrupt" `Quick test_checkpoint_latest_skips_corrupt;
        Alcotest.test_case "delta round-trip" `Quick test_delta_roundtrip;
        Alcotest.test_case "delta golden bytes" `Quick test_delta_golden_bytes;
        Alcotest.test_case "delta rejects malformed lists" `Quick test_delta_rejects_malformed;
        Alcotest.test_case "chain fold" `Quick test_chain_fold;
        Alcotest.test_case "chain falls back past corrupt links" `Quick test_chain_falls_back;
      ] );
    ( "wal-fuzz",
      [
        Alcotest.test_case "record scan never raises (qcheck)" `Quick test_fuzz_record_scan;
        Alcotest.test_case "image decode never raises (qcheck)" `Quick test_fuzz_image_decode;
        Alcotest.test_case "delta decode never raises (qcheck)" `Quick test_fuzz_delta_decode;
      ] );
    ( "wal-recovery",
      [
        Alcotest.test_case "durable wrapper transparent" `Quick test_durable_transparent;
        Alcotest.test_case "clean restart" `Quick test_clean_restart;
        Alcotest.test_case "torn tail truncated" `Quick test_recovery_truncates_torn_tail;
        Alcotest.test_case "bit rot stops replay" `Quick test_recovery_stops_at_bit_rot;
        Alcotest.test_case "run writes a compacting chain" `Quick test_run_chain_compacts;
        Alcotest.test_case "delta orders chained updates" `Quick test_delta_orders_chained_updates;
        Alcotest.test_case "recovery past corrupt chain links" `Quick
          test_recover_past_corrupt_links;
      ] );
    ( "wal-crash-equivalence",
      [
        Alcotest.test_case "matrix: every strategy" `Slow test_crash_matrix_all_strategies;
        Alcotest.test_case "matrix: crash-point catalog" `Quick test_crash_matrix_labels;
        Alcotest.test_case "qcheck: random seed/config/kind" `Slow
          test_crash_equivalence_property;
      ] );
  ]
