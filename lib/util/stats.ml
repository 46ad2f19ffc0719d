let sum a = Kahan.sum_array a

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else sum a /. float_of_int n

let variance a =
  let n = Array.length a in
  if n < 2 then 0.0
  else
    let m = mean a in
    let acc = Kahan.sum_init n (fun i -> (a.(i) -. m) *. (a.(i) -. m)) in
    acc /. float_of_int n


let min_max a =
  if Array.length a = 0 then invalid_arg "Stats.min_max: empty array";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (a.(0), a.(0)) a

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  let b = sorted_copy a in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = min (lo + 1) (n - 1) in
  let frac = rank -. float_of_int lo in
  (b.(lo) *. (1.0 -. frac)) +. (b.(hi) *. frac)

let median a = percentile a 50.0

let geometric_mean a =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let acc = Array.fold_left (fun acc x -> acc +. log x) 0.0 a in
    exp (acc /. float_of_int n)
