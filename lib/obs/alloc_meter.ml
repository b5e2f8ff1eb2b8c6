(* Minor words come from [Gc.minor_words], which is exact and allocates
   nothing.  Direct major words come from [Gc.counters]: [Gc.quick_stat]'s
   major words lag until the next major slice.  On OCaml 5.1 that stub can
   return boxes a minor collection inside the call already freed (their
   words stay intact until the minor heap refills), so its floats are
   combined the moment it returns and no box from it outlives the call. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let words () =
  let minor = Gc.minor_words () in
  minor +. direct_major_words ()

let bytes () = words () *. float_of_int (Sys.word_size / 8)
