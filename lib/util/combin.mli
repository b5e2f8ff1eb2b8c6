(** Combinatorial helpers used by the Yao function. *)

val lgamma : float -> float
(** [lgamma x] is the natural log of the gamma function for [x > 0]
    (Lanczos approximation, accurate to ~1e-13). *)

val log_factorial : int -> float
(** [log_factorial n] is [log n!]; [n >= 0]. Cached for small [n]. *)

val log_choose : float -> float -> float
(** [log_choose n k] is [log (n choose k)] for real-valued [n] and
    [0 <= k < n + 1], using the gamma-function extension of the binomial
    coefficient; [neg_infinity] outside that range. *)

val choose : int -> int -> float
(** [choose n k] is the binomial coefficient as a float ([0.] when [k < 0]
    or [k > n]). *)
