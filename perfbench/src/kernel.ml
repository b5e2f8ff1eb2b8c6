(* The frozen reference kernel.  Wall metrics are divided by how slow this
   loop ran next to them, which cancels the machine-wide slow phases
   (memory contention from other tenants) that a longer run cannot average
   away.

   FROZEN: every calibrated number in a baseline was divided by this exact
   loop, [nominal_ns] and [exponent].  Changing any of them (sizes,
   operations, constants) makes a new baseline; never change it in a
   change that claims a gain.

   What it does, per round: writes a 64-cell linked list into a 512 KiB
   ring, the way OCaml's allocator streams through the minor heap, walks
   it back, and does 8 [Hashtbl] string lookups, stepping a pointer chase
   for the list values.  Everything stays in L2.  Variants that streamed
   through an 8 MiB ring were noisier than the workloads they calibrated.

   What it must not do, and why:
   - allocate on the OCaml heap: an allocating kernel pays the program's
     pending minor/major GC work, so a program that allocated more would
     slow the kernel and flatter its own calibrated numbers (measured: a
     sample right after stream generation ran 2-3x slower than its
     neighbours).  The ring is a Bigarray, outside the OCaml heap and
     outside [peak_heap_mb];
   - depend on what the program left in the caches: an untimed sweep of
     the ring precedes each timed call (dirtying 64 MiB between calls
     moved the median by 0.7-2.2%). *)

let ring_words = 1 lsl 16 (* 512 KiB *)
let cell_words = 4 (* header, value, link, pad *)
let chase_len = 8192
let table_keys = 1024
let list_len = 64
let lookups = 8
let rounds = 3000

(* Typical timed [run] on the reference machine (2-vCPU x86-64 Xeon VM,
   2 MiB L2 per core, OCaml 5.1.1) in a quiet phase.  The machine factor
   is measured / nominal. *)
let nominal_ns = 2_500_000.

(* Calibrated time = raw / factor ** exponent.  The workloads slow down
   more than the kernel in a slow phase: over 6 seeds per workload, the
   seed-to-seed spread (interquartile range / median) of throughput and
   median latencies was smallest near 1.25 (mean 4.7% against 5.8% at 1.0;
   2.0 overcorrected). *)
let exponent = 1.25

type ring = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type t = { ring : ring; next : int array; keys : string array; table : (string, int) Hashtbl.t }

(* A fixed-multiplier LCG keeps the data identical across machines and
   OCaml versions (no dependence on [Random]). *)
let lcg x = ((x * 1103515245) + 12345) land 0x3fffffff

let create () =
  (* Sattolo's shuffle: one cycle through every chase slot. *)
  let next = Array.init chase_len (fun i -> i) in
  let state = ref 7 in
  for i = chase_len - 1 downto 1 do
    state := lcg !state;
    let j = !state mod i in
    let tmp = next.(i) in
    next.(i) <- next.(j);
    next.(j) <- tmp
  done;
  let keys = Array.init table_keys (fun i -> Printf.sprintf "k%06d" (lcg (i + 1) mod 1_000_000)) in
  let table = Hashtbl.create (2 * table_keys) in
  Array.iteri (fun i k -> Hashtbl.replace table k i) keys;
  let ring = Bigarray.Array1.create Bigarray.int Bigarray.c_layout ring_words in
  Bigarray.Array1.fill ring 0;
  { ring; next; keys; table }

let mask = ring_words - 1

(* Untimed: bring the ring back into the caches. *)
let warm t =
  let s = ref 0 and i = ref 0 in
  while !i < ring_words do
    s := !s + Bigarray.Array1.unsafe_get t.ring !i;
    i := !i + 8
  done;
  !s

(* One timed kernel call; the result only defeats dead-code elimination. *)
let run t =
  let acc = ref 0 and p = ref 0 and off = ref 0 in
  let ring = t.ring in
  for _ = 1 to rounds do
    for i = 1 to list_len do
      p := Array.unsafe_get t.next !p;
      let o = !off in
      Bigarray.Array1.unsafe_set ring o list_len;
      Bigarray.Array1.unsafe_set ring (o + 1) (!p + i);
      Bigarray.Array1.unsafe_set ring (o + 2) ((o - cell_words) land mask);
      off := (o + cell_words) land mask
    done;
    let cell = ref ((!off - cell_words) land mask) in
    for _ = 1 to list_len do
      acc := !acc + Bigarray.Array1.unsafe_get ring (!cell + 1);
      cell := Bigarray.Array1.unsafe_get ring (!cell + 2)
    done;
    for j = 0 to lookups - 1 do
      let key = Array.unsafe_get t.keys ((!p + j) land (table_keys - 1)) in
      acc := !acc + Hashtbl.find t.table key
    done
  done;
  !acc
