(* Sample summaries. *)

let now = Unix.gettimeofday

(* A growable float buffer. *)
type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 256 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n
let to_array s = Array.sub s.a 0 s.n

(* Nearest-rank quantile of an unsorted slice; 0 when empty. *)
let quantile_of (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let xs = Array.copy xs in
    Array.sort compare xs;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    xs.(max 0 (min (n - 1) k))
  end

let quantile s q = quantile_of (to_array s) q
let median s = quantile s 0.5

(* The p99 is reported only from at least [min_tail] samples. *)
let min_tail = 1000
let p99 s = if s.n >= min_tail then quantile s 0.99 else 0.0

(* Median of the last tenth of the samples over that of the first
   tenth, in arrival order. *)
let late_early_ratio s =
  let k = max 1 (s.n / 10) in
  if s.n < 2 then 1.0
  else
    let first = quantile_of (Array.sub s.a 0 k) 0.5 in
    let last = quantile_of (Array.sub s.a (s.n - k) k) 0.5 in
    if first > 0.0 then last /. first else 1.0

let median_list (xs : float list) = quantile_of (Array.of_list xs) 0.5
