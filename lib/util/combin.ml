(* Lanczos approximation with g = 7, n = 9 coefficients. *)
let lanczos_coefficients =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec lgamma x =
  if x < 0.5 then
    (* Reflection formula: Γ(x)Γ(1-x) = π / sin(πx). *)
    log (Float.pi /. Float.abs (sin (Float.pi *. x))) -. lgamma (1. -. x)
  else
    let x = x -. 1. in
    let a = ref lanczos_coefficients.(0) in
    let t = x +. 7.5 in
    for i = 1 to 8 do
      a := !a +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    (0.5 *. log (2. *. Float.pi))
    +. ((x +. 0.5) *. log t)
    -. t
    +. log !a

let log_factorial_cache_size = 1024

let log_factorial_cache =
  lazy
    (let cache = Array.make log_factorial_cache_size 0. in
     for i = 2 to log_factorial_cache_size - 1 do
       cache.(i) <- cache.(i - 1) +. log (float_of_int i)
     done;
     cache)

let log_factorial n =
  if n < 0 then invalid_arg "Combin.log_factorial: negative argument";
  if n < log_factorial_cache_size then (Lazy.force log_factorial_cache).(n)
  else lgamma (float_of_int n +. 1.)

(* The gamma form is positive and finite for every 0 <= k < n + 1, so a
   non-integer n keeps finite values for n < k < n + 1 (Yao's function with
   a non-integer blocking factor reaches them). *)
let log_choose n k =
  if k < 0. || k >= n +. 1. then neg_infinity
  else if k = 0. || k = n then 0.
  else lgamma (n +. 1.) -. lgamma (k +. 1.) -. lgamma (n -. k +. 1.)

let choose n k =
  if k < 0 || k > n then 0.
  else exp (log_factorial n -. log_factorial k -. log_factorial (n - k))
