(* Monotonic nanoseconds (CLOCK_MONOTONIC through bechamel's noalloc stub).
   Unix-epoch float seconds would quantize a 3 us latency to 2^-22 s steps. *)

let now () = Int64.to_int (Monotonic_clock.now ())
