type t = { rtl : Rtl.t; counts : int array; total : int }

let of_counts rtl counts =
  if Array.length counts <> Rtl.n_instructions rtl then
    invalid_arg "Ift.of_counts: counts length mismatch";
  if Array.exists (fun c -> c < 0) counts then
    invalid_arg "Ift.of_counts: negative count";
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then invalid_arg "Ift.of_counts: empty table";
  { rtl; counts = Array.copy counts; total }

let build stream = of_counts (Instr_stream.rtl stream) (Instr_stream.counts stream)

let rtl t = t.rtl

let total_cycles t = t.total

let count t i =
  if i < 0 || i >= Array.length t.counts then
    invalid_arg (Printf.sprintf "Ift.count: instruction %d out of range" i);
  t.counts.(i)

let prob t i = float_of_int (count t i) /. float_of_int t.total

let p_any t set =
  if Module_set.universe_size set <> Rtl.n_modules t.rtl then
    invalid_arg "Ift.p_any: universe mismatch";
  let hits = ref 0 in
  for i = 0 to Array.length t.counts - 1 do
    if Module_set.intersects (Rtl.uses t.rtl i) set then hits := !hits + t.counts.(i)
  done;
  float_of_int !hits /. float_of_int t.total

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i c ->
      Format.fprintf ppf "%s: %.4f (%d/%d)@ " (Rtl.instr_name t.rtl i) (prob t i) c t.total)
    t.counts;
  Format.fprintf ppf "@]"
