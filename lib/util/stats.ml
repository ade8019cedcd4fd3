let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n

let stddev a =
  let n = Array.length a in
  if n < 2 then 0.
  else begin
    let m = mean a in
    let acc = ref 0. in
    Array.iter (fun x -> acc := !acc +. ((x -. m) *. (x -. m))) a;
    sqrt (!acc /. float_of_int n)
  end

let max a =
  if Array.length a = 0 then invalid_arg "Stats.max: empty";
  Array.fold_left Stdlib.max a.(0) a

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let b = sorted_copy a in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then b.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (b.(lo) *. (1. -. frac)) +. (b.(hi) *. frac)
  end

let improvement_pct ~baseline ~value =
  if baseline = 0. then 0. else (baseline -. value) /. baseline *. 100.
