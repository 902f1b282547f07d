(* Order statistics. *)

(* [quantile ~n ~i xs] is the [i]-th of the [n - 1] cut points of Python's
   [statistics.quantiles(xs, n=n)] (its default "exclusive" method), so
   run-to-run spreads computed here match a comparison script's; 0 for an
   empty sample, the value itself for a single one. *)
let quantile ~n ~i xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let len = Array.length a in
  if len = 0 then 0.
  else if len = 1 then a.(0)
  else
    let m = len + 1 in
    let j = max 1 (min (len - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. Float.of_int (n - delta)) +. (a.(j) *. Float.of_int delta))
    /. Float.of_int n

let median xs = quantile ~n:2 ~i:1 xs

(* Latency percentile [p] in [0, 1] by linear interpolation between order
   statistics; unlike [quantile] it never reads past the largest sample,
   which matters for the small per-item samples of the batch workloads. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let len = Array.length a in
  if len = 0 then 0.
  else
    let pos = p *. Float.of_int (len - 1) in
    let lo = Float.to_int pos in
    if lo + 1 >= len then a.(len - 1)
    else a.(lo) +. ((pos -. Float.of_int lo) *. (a.(lo + 1) -. a.(lo)))
