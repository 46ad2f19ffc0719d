type row = { first : int; second : int; count : int }

type t = { rtl : Rtl.t; rows : row array; total_pairs : int }

let build stream =
  let b = Instr_stream.length stream in
  if b < 2 then invalid_arg "Imatt.build: stream shorter than two cycles";
  let rtl = Instr_stream.rtl stream in
  let k = Rtl.n_instructions rtl in
  (* Pair counts accumulate in a hashtable keyed by the packed index
     [first * k + second]: at most min(B - 1, k^2) distinct pairs occur,
     so memory tracks the observed pairs instead of a dense k*k array
     (quadratic in the instruction-alphabet size). *)
  let counts : (int, int ref) Hashtbl.t = Hashtbl.create (min (b - 1) 1024) in
  for t = 0 to b - 2 do
    let idx = (Instr_stream.get stream t * k) + Instr_stream.get stream (t + 1) in
    match Hashtbl.find_opt counts idx with
    | Some c -> incr c
    | None -> Hashtbl.add counts idx (ref 1)
  done;
  let rows =
    Hashtbl.fold
      (fun idx c acc -> { first = idx / k; second = idx mod k; count = !c } :: acc)
      counts []
  in
  let rows = Array.of_list rows in
  (* Same ascending packed-index order the dense scan emitted, so
     [pair_count]'s binary search is unchanged. *)
  Array.sort (fun a b -> Int.compare ((a.first * k) + a.second) ((b.first * k) + b.second)) rows;
  { rtl; rows; total_pairs = b - 1 }

(* Same representation [build] emits — rows sorted ascending by the packed
   index [first * k + second] — so a table accumulated incrementally from
   chunk ingestion (Stream_update) is bit-for-bit the table a from-scratch
   [build] over the concatenated stream would produce: the pair multiset
   determines the counts, and the sort order determines everything else. *)
let of_pair_counts rtl pairs =
  let k = Rtl.n_instructions rtl in
  let rows =
    Array.map
      (fun (first, second, count) ->
        if first < 0 || first >= k || second < 0 || second >= k then
          invalid_arg
            (Printf.sprintf "Imatt.of_pair_counts: pair (%d, %d) out of range"
               first second);
        if count <= 0 then
          invalid_arg "Imatt.of_pair_counts: non-positive pair count";
        { first; second; count })
      pairs
  in
  Array.sort
    (fun a b ->
      Int.compare ((a.first * k) + a.second) ((b.first * k) + b.second))
    rows;
  Array.iteri
    (fun i r ->
      if i > 0 && rows.(i - 1).first = r.first && rows.(i - 1).second = r.second
      then
        invalid_arg
          (Printf.sprintf "Imatt.of_pair_counts: duplicate pair (%d, %d)"
             r.first r.second))
    rows;
  let total = Array.fold_left (fun acc r -> acc + r.count) 0 rows in
  if total = 0 then invalid_arg "Imatt.of_pair_counts: empty table";
  { rtl; rows; total_pairs = total }

let rtl t = t.rtl

let total_pairs t = t.total_pairs

let rows t = Array.copy t.rows

(* Rows are built in ascending packed-index order (first * k + second), so
   the pair lookup is a binary search on that lexicographic key. *)
let pair_count t ~first ~second =
  let rec go lo hi =
    if lo >= hi then 0
    else
      let mid = (lo + hi) / 2 in
      let r = t.rows.(mid) in
      let c =
        match Int.compare r.first first with
        | 0 -> Int.compare r.second second
        | c -> c
      in
      if c = 0 then r.count else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t.rows)

let toggles rtl ~first ~second set =
  let now = Module_set.intersects (Rtl.uses rtl first) set in
  let next = Module_set.intersects (Rtl.uses rtl second) set in
  now <> next

let activation_tag rtl ~first ~second m =
  let bit instr = if Module_set.mem (Rtl.uses rtl instr) m then '1' else '0' in
  Printf.sprintf "%c%c" (bit first) (bit second)

let ptr t set =
  if Module_set.universe_size set <> Rtl.n_modules t.rtl then
    invalid_arg "Imatt.ptr: universe mismatch";
  let hits = ref 0 in
  Array.iter
    (fun r -> if toggles t.rtl ~first:r.first ~second:r.second set then hits := !hits + r.count)
    t.rows;
  float_of_int !hits /. float_of_int t.total_pairs

let pp ppf t =
  let n = Rtl.n_modules t.rtl in
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun r ->
      Format.fprintf ppf "%.4f %s->%s "
        (float_of_int r.count /. float_of_int t.total_pairs)
        (Rtl.instr_name t.rtl r.first)
        (Rtl.instr_name t.rtl r.second);
      for m = 0 to n - 1 do
        Format.fprintf ppf "%s " (activation_tag t.rtl ~first:r.first ~second:r.second m)
      done;
      Format.fprintf ppf "@ ")
    t.rows;
  Format.fprintf ppf "@]"
