(* Summary statistics for the benchmark's reports.

   Latency tails follow one rule: a percentile is reported only when at
   least [min_beyond] samples lie strictly beyond its nearest rank, so a
   "p99" always rests on ten or more slower requests and never on the
   single worst one. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* nearest rank: the smallest k with k >= p * n (1-based) *)
let rank ~p n = max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

let percentile ~p xs =
  if p <= 0. || p > 1. then invalid_arg "Stats.percentile: p must be in (0, 1]";
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Error "no samples"
  else
    let r = rank ~p n in
    if n - r < min_beyond then
      Error
        (Printf.sprintf "p%g needs %d samples beyond its rank, %d samples give %d"
           (p *. 100.) min_beyond n (n - r))
    else Ok a.(r - 1)

(* the middle value (lower middle for even counts) — for the handful of
   repeated set-ups a run makes, where no tail rule applies *)
let median xs =
  match sorted xs with
  | [||] -> Float.nan
  | a -> a.((Array.length a - 1) / 2)

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
