(* One round's measurement context: times every call into the program (a
   "unit": an operation or a set-up/restart step), interleaves the frozen
   kernel on an operation-count schedule, and tallies the GC counters
   inside the operation brackets only — the kernel and the oracle run
   outside them, so counts repeat bit for bit.

   Calibration: unit [u] ran between kernel samples [kbefore u] and
   [kbefore u + 1]; its local machine factor is their mean over
   {!Kernel.nominal_ns}, and its calibrated time is
   raw / factor ** {!Kernel.exponent}. *)

type kind = Txn | Query | Setup | Restart

type t = {
  kernel : Kernel.t;
  kernel_every : int;
  spans : Spans.t option;
  mutable since_kernel : int;
  mutable just_sampled : bool;
  mutable ksamples : float array;
  mutable nk : int;
  mutable kernel_ns : int;
  mutable raw : int array;
  mutable kbefore : int array;
  mutable kinds : kind array;
  mutable tags : int array;
  mutable nu : int;
  mutable alloc_words : float;
  mutable promoted_words : float;
  mutable minor_colls : int;
  mutable major_colls : int;
  mutable attempted : int;
  mutable failed : int;
  mutable sink : int;
}

let create ~kernel ~kernel_every ~traced =
  let cap = 4096 in
  {
    kernel;
    kernel_every;
    spans = (if traced then Some (Spans.create ()) else None);
    since_kernel = 0;
    just_sampled = false;
    ksamples = Array.make 256 0.;
    nk = 0;
    kernel_ns = 0;
    raw = Array.make cap 0;
    kbefore = Array.make cap 0;
    kinds = Array.make cap Txn;
    tags = Array.make cap 0;
    nu = 0;
    alloc_words = 0.;
    promoted_words = 0.;
    minor_colls = 0;
    major_colls = 0;
    attempted = 0;
    failed = 0;
    sink = 0;
  }

let spans m = m.spans

let sample m =
  if m.nk = Array.length m.ksamples then
    m.ksamples <- Array.init (2 * m.nk) (fun i -> if i < m.nk then m.ksamples.(i) else 0.);
  let w0 = Clock.now () in
  m.sink <- m.sink lxor Kernel.warm m.kernel;
  let t0 = Clock.now () in
  m.sink <- m.sink lxor Kernel.run m.kernel;
  let t1 = Clock.now () in
  m.ksamples.(m.nk) <- float_of_int (t1 - t0);
  m.nk <- m.nk + 1;
  m.kernel_ns <- m.kernel_ns + (t1 - w0);
  m.since_kernel <- 0;
  m.just_sampled <- true

let new_unit m kind =
  if m.nu = Array.length m.raw then begin
    let n = 2 * m.nu in
    let extend a fill = Array.init n (fun i -> if i < m.nu then a.(i) else fill) in
    m.raw <- extend m.raw 0;
    m.kbefore <- extend m.kbefore 0;
    m.kinds <- extend m.kinds Txn;
    m.tags <- extend m.tags 0
  end;
  let u = m.nu in
  m.nu <- u + 1;
  m.kinds.(u) <- kind;
  m.kbefore.(u) <- m.nk - 1;
  m.just_sampled <- false;
  Option.iter (fun sp -> Spans.set_unit sp u) m.spans;
  u

let failed m = m.failed <- m.failed + 1
let attempt m = m.attempted <- m.attempted + 1
let tag m u v = m.tags.(u) <- v

(* Words allocated directly in the major heap (not promoted) so far.
   [Gc.quick_stat]'s major words lag until the next major slice, so this
   reads [Gc.counters], and uses its floats at once: OCaml 5.1's stub can
   return boxes that a minor collection inside the call already freed
   (their words stay intact until the minor heap refills).  Kept live
   across an operation, such a box aborts a later minor collection
   ("allocation failure during minor GC").  [Gc.allocated_bytes] is no
   substitute: the same stub undercounts the minor heap's fill. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* One operation: returns its unit id and the call's result (an exception
   counts as a failed operation). *)
let op m kind f =
  if m.since_kernel >= m.kernel_every || m.nk = 0 then sample m;
  m.since_kernel <- m.since_kernel + 1;
  let u = new_unit m kind in
  attempt m;
  let name = match kind with Query -> "bench.query" | _ -> "bench.txn" in
  let s0 = Gc.quick_stat () in
  let d0 = direct_major_words () in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now () in
  let r = match Spans.span m.spans name f with v -> Ok v | exception e -> Error e in
  let t1 = Clock.now () in
  let w1 = Gc.minor_words () in
  let d1 = direct_major_words () in
  let s1 = Gc.quick_stat () in
  m.raw.(u) <- t1 - t0;
  m.alloc_words <- m.alloc_words +. (w1 -. w0) +. (d1 -. d0);
  m.promoted_words <- m.promoted_words +. (s1.Gc.promoted_words -. s0.Gc.promoted_words);
  m.minor_colls <- m.minor_colls + s1.Gc.minor_collections - s0.Gc.minor_collections;
  m.major_colls <- m.major_colls + s1.Gc.major_collections - s0.Gc.major_collections;
  if Result.is_error r then failed m;
  (u, r)

(* One set-up or restart step, bracketed by kernel samples; [tag] numbers
   the repeat of a repeated restart. *)
let step ?(tag = 0) m kind name f =
  if not m.just_sampled then sample m;
  let u = new_unit m kind in
  m.tags.(u) <- tag;
  let t0 = Clock.now () in
  let v = Spans.span m.spans name f in
  m.raw.(u) <- Clock.now () - t0;
  sample m;
  v

(* Close the round: the last units need a kernel sample after them. *)
let finish m = if not m.just_sampled then sample m

let factor m u =
  let kb = m.kbefore.(u) in
  (m.ksamples.(kb) +. m.ksamples.(kb + 1)) /. 2. /. Kernel.nominal_ns

let divisor m u = factor m u ** Kernel.exponent
let calibrated m u = float_of_int m.raw.(u) /. divisor m u

let machine_factor m =
  let s = ref 0. in
  for i = 0 to m.nk - 1 do
    s := !s +. m.ksamples.(i)
  done;
  !s /. float_of_int m.nk /. Kernel.nominal_ns
