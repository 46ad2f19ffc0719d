type t = { n : int; bits : int array }

let bits_per_word = 62 (* stay clear of the tag bit and sign *)

let words_for n = (n + bits_per_word - 1) / bits_per_word

let universe_size s = s.n

let empty n =
  if n < 0 then invalid_arg "Module_set.empty: negative universe";
  { n; bits = Array.make (words_for n) 0 }

let check_member name n m =
  if m < 0 || m >= n then
    invalid_arg (Printf.sprintf "Module_set.%s: module %d outside [0,%d)" name m n)

let set_bit bits m =
  bits.(m / bits_per_word) <- bits.(m / bits_per_word) lor (1 lsl (m mod bits_per_word))

let add s m =
  check_member "add" s.n m;
  let bits = Array.copy s.bits in
  set_bit bits m;
  { s with bits }

let singleton n m =
  check_member "singleton" n m;
  let s = empty n in
  set_bit s.bits m;
  s

(* One word array for the whole list, not a copy per member. *)
let of_list n ms =
  let s = empty n in
  List.iter (fun m -> check_member "of_list" n m; set_bit s.bits m) ms;
  s

let mem s m =
  check_member "mem" s.n m;
  let w = m / bits_per_word and b = m mod bits_per_word in
  s.bits.(w) land (1 lsl b) <> 0

let full n =
  let s = empty n in
  for m = 0 to n - 1 do
    set_bit s.bits m
  done;
  s

let check_universe name a b =
  if a.n <> b.n then
    invalid_arg (Printf.sprintf "Module_set.%s: universe mismatch (%d vs %d)" name a.n b.n)

(* Plain word loops over a copy of [a]: no closure call per word. *)
let union a b =
  check_universe "union" a b;
  let bits = Array.copy a.bits in
  for i = 0 to Array.length bits - 1 do
    bits.(i) <- bits.(i) lor b.bits.(i)
  done;
  { n = a.n; bits }

let inter a b =
  check_universe "inter" a b;
  let bits = Array.copy a.bits in
  for i = 0 to Array.length bits - 1 do
    bits.(i) <- bits.(i) land b.bits.(i)
  done;
  { n = a.n; bits }

let diff a b =
  check_universe "diff" a b;
  let bits = Array.copy a.bits in
  for i = 0 to Array.length bits - 1 do
    bits.(i) <- bits.(i) land lnot b.bits.(i)
  done;
  { n = a.n; bits }

let is_empty s = Array.for_all (fun w -> w = 0) s.bits

(* A loop, not a local recursive function: that would allocate its
   closure on every call, and this runs once per instruction for every
   signature built. *)
let intersects a b =
  check_universe "intersects" a b;
  let n = Array.length a.bits and i = ref 0 in
  while !i < n && a.bits.(!i) land b.bits.(!i) = 0 do
    incr i
  done;
  !i < n

let subset a b =
  check_universe "subset" a b;
  let rec scan i =
    i >= Array.length a.bits || (a.bits.(i) land lnot b.bits.(i) = 0 && scan (i + 1))
  in
  scan 0

let cardinal s =
  Array.fold_left (fun acc w -> acc + Util.Popcnt.count w) 0 s.bits

let equal a b = a.n = b.n && Array.for_all2 ( = ) a.bits b.bits

(* Members come from the set bits themselves, word by word and lowest
   bit first (so in ascending order): zero words cost one test, and no
   universe member is probed with [mem]. *)
let iter f s =
  for w = 0 to Array.length s.bits - 1 do
    let x = ref s.bits.(w) in
    while !x <> 0 do
      let low = !x land - !x in
      f ((w * bits_per_word) + Util.Popcnt.count (low - 1));
      x := !x lxor low
    done
  done

let fold f s init =
  let acc = ref init in
  iter (fun m -> acc := f m !acc) s;
  !acc

let to_list s = List.rev (fold (fun m acc -> m :: acc) s [])

let pp ppf s =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int (to_list s)))
