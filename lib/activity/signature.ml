(* Bit layout mirrors Module_set: 62 bits per word, clear of the tag bit
   and sign. Weighted popcounts are word-parallel over bit-sliced weight
   planes: plane [b] of word [w] holds exactly the bits whose integer
   count has bit [b] set, so the count-weighted popcount of a query word
   [x] is [Σ_b 2^b · popcnt (x land plane_b)] — a few hardware popcounts
   per word instead of the per-byte count-sum tables (8 table adds) this
   replaces. Planes encode only the low [np] bits of each count; the few
   bits with larger counts are flagged in a per-word [heavy] mask and top
   the sum up via a CTZ walk over the full [weights] (see build_arena for
   how [np] is chosen). Each section (instruction counts; IMATT row
   counts) lives in one flat int Bigarray

     [ planes : nwords * np | masks : nwords | heavy : nwords
     | totals : nwords | weights : nwords * 62 ]

   word-major ([w * np + b]; weight of bit [b] of word [w] at
   [nwords * (np + 3) + w * 62 + b]), shared verbatim with
   signature_stubs.c, whose C kernels walk the raw intnat data and answer
   every query. [masks] (the
   weighted bits of each word), [totals] (their weight sum) and the
   per-bit [weights] feed density shortcuts — a zero query word
   contributes nothing, a saturated one ([x land mask = mask])
   contributes [totals.(w)] outright, and when the set (or missing) bits
   number fewer than [np] a count-trailing-zeros walk over them against
   [weights] beats the plane loop. Every path computes the same exact
   integer sum; the final division is the same [hits / total] the table
   scans perform, so results are bit-for-bit identical to Ift.p_any /
   Imatt.ptr — which [check] confirms on every kernel handed out. *)

let bits_per_word = 62

let words_for n = max 1 ((n + bits_per_word - 1) / bits_per_word)

type planes = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Field order is ABI: signature_stubs.c reads hits/now/next/tog as
   Field 0/1/2/3 of this record. [tog] caches [now lxor next] — the Ptr
   query word — and is maintained by every constructor, so the ptr
   kernels load one array per signature instead of two plus an xor. *)
type t = { hits : int array; now : int array; next : int array; tog : int array }

type kernel = {
  rtl : Rtl.t;
  k : int; (* instructions *)
  n_rows : int; (* IMATT rows with positive count *)
  hwords : int;
  rwords : int;
  (* The transposed tables {!of_set} ORs together; both depend only on
     the RTL and the row set, so patch_kernel keeps them. The row masks
     are also the kernel's record of the row set. *)
  mod_cols : int array; (* n_modules * hwords: column m is H({m}) *)
  first_masks : int array; (* k * rwords: rows whose first instruction is i *)
  second_masks : int array; (* k * rwords: rows whose second instruction is i *)
  total : int; (* IFT cycles *)
  total_pairs : int; (* IMATT pairs *)
  p_np : int; (* low-weight planes for instruction counts *)
  p_arena : planes; (* hwords * (p_np + 3 + 62); see build_arena *)
  r_np : int; (* low-weight planes for row counts *)
  r_arena : planes; (* rwords * (r_np + 3 + 62); see build_arena *)
  probes : Module_set.t array; (* the check's probe sets... *)
  probe_sigs : t array; (* ...their signatures, then hit patterns *)
}

(* ------------------------------------------------------------------ *)
(* C kernels (see signature_stubs.c for the layout contract).         *)
(* ------------------------------------------------------------------ *)

external c_p :
  planes -> (int[@untagged]) -> (int[@untagged]) -> t -> (int[@untagged])
  -> (float[@unboxed]) = "gcr_sig_p_byte" "gcr_sig_p"
[@@noalloc]

external c_ptr :
  planes -> (int[@untagged]) -> (int[@untagged]) -> t -> (int[@untagged])
  -> (float[@unboxed]) = "gcr_sig_ptr_byte" "gcr_sig_ptr"
[@@noalloc]

external c_p_union :
  planes -> (int[@untagged]) -> (int[@untagged]) -> t -> t -> (int[@untagged])
  -> (float[@unboxed]) = "gcr_sig_p_union_byte" "gcr_sig_p_union"
[@@noalloc]

external c_ptr_union :
  planes -> (int[@untagged]) -> (int[@untagged]) -> t -> t -> (int[@untagged])
  -> (float[@unboxed]) = "gcr_sig_ptr_union_byte" "gcr_sig_ptr_union"
[@@noalloc]

external c_subset :
  t -> t -> (int[@untagged]) -> (int[@untagged])
  = "gcr_sig_subset_byte" "gcr_sig_subset"
[@@noalloc]

external c_symm_diff :
  t -> t -> (int[@untagged]) -> (int[@untagged])
  = "gcr_sig_symm_diff_byte" "gcr_sig_symm_diff"
[@@noalloc]

(* The batch stubs validate each signature's geometry in their own loop
   (a header-word read) and return the first mismatching index, -1 when
   the whole batch was computed. *)
external c_p_batch :
  planes -> (int[@untagged]) -> (int[@untagged]) -> t array -> float array
  -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "gcr_sig_p_batch_byte" "gcr_sig_p_batch"
[@@noalloc]

external c_ptr_batch :
  planes -> (int[@untagged]) -> (int[@untagged]) -> t array -> float array
  -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "gcr_sig_ptr_batch_byte" "gcr_sig_ptr_batch"
[@@noalloc]

external c_p_union_batch :
  planes -> (int[@untagged]) -> (int[@untagged]) -> t -> t array -> float array
  -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "gcr_sig_p_union_batch_byte" "gcr_sig_p_union_batch"
[@@noalloc]

external c_subset_batch :
  t -> t array -> bool array -> (int[@untagged]) -> (int[@untagged])
  -> (int[@untagged]) = "gcr_sig_subset_batch_byte" "gcr_sig_subset_batch"
[@@noalloc]

external c_symm_diff_batch :
  t -> t array -> int array -> (int[@untagged]) -> (int[@untagged])
  -> (int[@untagged]) = "gcr_sig_symm_diff_batch_byte" "gcr_sig_symm_diff_batch"
[@@noalloc]

(* ------------------------------------------------------------------ *)
(* Kernel construction.                                               *)
(* ------------------------------------------------------------------ *)

let same_rtl a b =
  a == b
  || Rtl.n_modules a = Rtl.n_modules b
     && Rtl.n_instructions a = Rtl.n_instructions b
     && (let rec eq i =
           i >= Rtl.n_instructions a
           || (Module_set.equal (Rtl.uses a i) (Rtl.uses b i) && eq (i + 1))
         in
         eq 0)

let bits_needed m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + 1) in
  max 1 (go m 0)

(* Pack per-bit integer weights straight into a section arena — one pass
   over the weights, no 256-entry byte-table sweeps. Layout (word-major,
   shared with signature_stubs.c):
   [ planes : nwords*np | masks : nwords | heavy : nwords
   | totals : nwords | weights : nwords*62 ].

   The planes encode only the low [np] bits of each weight; bits needing
   more are flagged in [heavy] and top the plane walk up through a CTZ
   walk over the full [weights]. [np] is chosen per section so a handful
   of outlier counts (one hot instruction or IMATT row) stops costing
   every word an extra popcount plane: with [rho] the caller's estimate
   of query-word density, a plane costs one popcount per word while a
   heavy bit costs ~[rho] CTZ steps, so we minimize
   [t + rho * max_heavy_bits_per_word t]. *)
let build_arena ~rho nwords n weight_of =
  let maxw = ref 0 in
  for i = 0 to n - 1 do
    let c = weight_of i in
    if c > !maxw then maxw := c
  done;
  let np_full = bits_needed !maxw in
  let heavy_cnt = Array.make_matrix (np_full + 1) nwords 0 in
  for i = 0 to n - 1 do
    let c = weight_of i in
    if c <> 0 then begin
      let w = i / bits_per_word and need = bits_needed c in
      for t = 1 to need - 1 do
        heavy_cnt.(t).(w) <- heavy_cnt.(t).(w) + 1
      done
    end
  done;
  let hmax t = Array.fold_left max 0 heavy_cnt.(t) in
  let cost t =
    let h = hmax t in
    float_of_int t +. (rho *. float_of_int h)
    +. (if h > 0 then 0.5 else 0.0)
  in
  let np = ref np_full in
  for t = np_full - 1 downto 1 do
    if cost t < cost !np then np := t
  done;
  let np = !np in
  let arena =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout
      (nwords * (np + 3 + bits_per_word))
  in
  Bigarray.Array1.fill arena 0;
  let masks_off = nwords * np in
  let heavy_off = masks_off + nwords in
  let totals_off = heavy_off + nwords in
  let weights_off = totals_off + nwords in
  for i = 0 to n - 1 do
    let c = weight_of i in
    if c <> 0 then begin
      let w = i / bits_per_word and b = i mod bits_per_word in
      let bit = 1 lsl b in
      arena.{masks_off + w} <- arena.{masks_off + w} lor bit;
      if c lsr np <> 0 then
        arena.{heavy_off + w} <- arena.{heavy_off + w} lor bit;
      arena.{totals_off + w} <- arena.{totals_off + w} + c;
      arena.{weights_off + (w * bits_per_word) + b} <- c;
      for pb = 0 to np - 1 do
        if c land (1 lsl pb) <> 0 then
          arena.{(w * np) + pb} <- arena.{(w * np) + pb} lor bit
      done
    end
  done;
  (np, arena)

(* Column [m] (words [m * hwords ..]) is H({m}): bit [i] set iff module
   [m] is in uses(I_i). One pass over the use sets' members. *)
let module_columns rtl k hwords =
  let cols = Array.make (Rtl.n_modules rtl * hwords) 0 in
  for i = 0 to k - 1 do
    let w = i / bits_per_word and bit = 1 lsl (i mod bits_per_word) in
    Module_set.iter
      (fun m ->
        let j = (m * hwords) + w in
        cols.(j) <- cols.(j) lor bit)
      (Rtl.uses rtl i)
  done;
  cols

(* Mask [i] (words [i * rwords ..]) holds the rows [r] with
   [instr_of_row rows.(r) = i]. One pass over the rows. *)
let row_masks k rwords rows instr_of_row =
  let masks = Array.make (k * rwords) 0 in
  Array.iteri
    (fun r row ->
      let j = (instr_of_row row * rwords) + (r / bits_per_word) in
      masks.(j) <- masks.(j) lor (1 lsl (r mod bits_per_word)))
    rows;
  masks

let row_bit masks rwords i r =
  masks.((i * rwords) + (r / bits_per_word)) land (1 lsl (r mod bits_per_word))
  <> 0

(* ------------------------------------------------------------------ *)
(* Signatures.                                                        *)
(* ------------------------------------------------------------------ *)

let queries_counter = Util.Obs.counter "signature.queries"

let sets_counter = Util.Obs.counter "signature.sets"

let batch_calls_counter = Util.Obs.counter "sig.batch_calls"

let batch_size_counter = Util.Obs.counter "sig.batch_size"

let check_failed_counter = Util.Obs.counter "signature.check_failed"

let create kern =
  {
    hits = Array.make kern.hwords 0;
    now = Array.make kern.rwords 0;
    next = Array.make kern.rwords 0;
    tog = Array.make kern.rwords 0;
  }

(* H(S) is the OR of S's module columns; NOW/NEXT are the ORs of the
   row masks of H(S)'s set bits — the same words as testing every use
   set against S and reading every row's two instructions, at a cost of
   |S| column ORs plus one mask OR per hit instruction. Uncounted: the
   kernel check builds its probe signatures here too. *)
let signature_words kern set =
  let s = create kern in
  let hits = s.hits and hwords = kern.hwords and cols = kern.mod_cols in
  Module_set.iter
    (fun m ->
      let base = m * hwords in
      for w = 0 to hwords - 1 do
        hits.(w) <- hits.(w) lor cols.(base + w)
      done)
    set;
  let now = s.now and next = s.next and rwords = kern.rwords in
  for w = 0 to hwords - 1 do
    let x = ref hits.(w) in
    while !x <> 0 do
      let low = !x land - !x in
      let base = ((w * bits_per_word) + Util.Popcnt.count (low - 1)) * rwords in
      for r = 0 to rwords - 1 do
        now.(r) <- now.(r) lor kern.first_masks.(base + r);
        next.(r) <- next.(r) lor kern.second_masks.(base + r)
      done;
      x := !x lxor low
    done
  done;
  for w = 0 to rwords - 1 do
    s.tog.(w) <- now.(w) lxor next.(w)
  done;
  s

let of_set kern set =
  if Module_set.universe_size set <> Rtl.n_modules kern.rtl then
    invalid_arg "Signature.of_set: universe mismatch";
  Util.Obs.incr sets_counter;
  signature_words kern set

let or_words x y =
  let z = Array.copy x in
  for w = 0 to Array.length z - 1 do
    z.(w) <- z.(w) lor y.(w)
  done;
  z

(* [tog] of a union is NOT tog_a lor tog_b — it must be recomputed from
   the unioned now/next words (a row toggles iff the union's bits
   differ). *)
let union a b =
  let now = or_words a.now b.now and next = or_words a.next b.next in
  let tog = Array.copy now in
  for w = 0 to Array.length tog - 1 do
    tog.(w) <- tog.(w) lxor next.(w)
  done;
  { hits = or_words a.hits b.hits; now; next; tog }

(* ------------------------------------------------------------------ *)
(* The check: a kernel's answers against the tables.                  *)
(* ------------------------------------------------------------------ *)

(* The check's probes, built once per kernel: module sets full, even and
   odd, then hit patterns zero (the empty set, whose scans cost most to
   confirm a 0), random, sparse (AND of three) and dense (OR of three), so
   every per-word path of the stubs meets a word even where every set
   hits every instruction. *)
let probe_sets n =
  let even = Module_set.of_list n (List.init ((n + 1) / 2) (fun j -> 2 * j)) in
  [| Module_set.full n; even; Module_set.diff (Module_set.full n) even |]

let probe_sigs kern =
  let g = Util.Prng.create 1 in
  let words f n =
    let rnd () = Int64.to_int (Util.Prng.bits64 g) land ((1 lsl bits_per_word) - 1) in
    Array.init n (fun _ -> f (rnd ()) (rnd ()) (rnd ()))
  in
  let pattern f =
    let now = words f kern.rwords and next = words f kern.rwords in
    { hits = words f kern.hwords; now; next; tog = Array.map2 ( lxor ) now next }
  in
  Array.append
    (Array.map (signature_words kern) kern.probes)
    (Array.map pattern
       [| (fun _ _ _ -> 0); (fun a _ _ -> a); (fun a b c -> a land b land c);
          (fun a b c -> a lor b lor c) |])

(* The probe sets' words must answer like Ift.p_any/Imatt.ptr; then every
   stub, on every probe and union of two, like the tables' own sums over
   its words (counts of the hit instructions, of the toggling rows), and
   subset/symm_diff like their word-level definitions. The stubs are
   called directly, so the check moves no query counter. *)
let check kern ift imatt =
  let rows = Imatt.rows imatt in
  same_rtl kern.rtl (Ift.rtl ift)
  && same_rtl kern.rtl (Imatt.rtl imatt)
  && Array.length rows = kern.n_rows
  &&
  (* Sum of [weight i] over the set bits [i < n] of words [word 0 ..]. *)
  let sum n word weight =
    let acc = ref 0 in
    for w = 0 to words_for n - 1 do
      let x = ref (word w) in
      while !x <> 0 do
        let low = !x land - !x in
        let i = (w * bits_per_word) + Util.Popcnt.count (low - 1) in
        if i < n then acc := !acc + weight i;
        x := !x lxor low
      done
    done;
    float_of_int !acc
  in
  let p_ref word = sum kern.k word (Ift.count ift) /. float_of_int (Ift.total_cycles ift)
  and ptr_ref word =
    sum kern.n_rows word (fun r -> rows.(r).Imatt.count) /. float_of_int (Imatt.total_pairs imatt)
  in
  let { probe_sigs = sigs; p_arena = pa; p_np = pnp; hwords = hw; r_arena = ra; r_np = rnp;
        rwords = rw; total; total_pairs = pairs; _ } = kern in
  let m = Array.length sigs in
  let ok = ref true in
  let need b = if not b then ok := false in
  let expect got want = need (Float.equal got want) in
  Array.iteri
    (fun i set ->
      expect (p_ref (Array.get sigs.(i).hits)) (Ift.p_any ift set);
      expect (ptr_ref (Array.get sigs.(i).tog)) (Imatt.ptr imatt set))
    kern.probes;
  let out = Array.make m nan and sub = Array.make m false
  and diff = Array.make m (-1) in
  need (c_p_batch pa pnp hw sigs out m total < 0);
  Array.iteri (fun i got -> expect got (p_ref (Array.get sigs.(i).hits))) out;
  need (c_ptr_batch ra rnp rw sigs out m pairs < 0);
  Array.iteri (fun i got -> expect got (ptr_ref (Array.get sigs.(i).tog))) out;
  Array.iteri
    (fun i a ->
      expect (c_p pa pnp hw a total) (p_ref (Array.get a.hits));
      expect (c_ptr ra rnp rw a pairs) (ptr_ref (Array.get a.tog));
      need
        (c_p_union_batch pa pnp hw a sigs out m total < 0
        && c_subset_batch a sigs sub m hw < 0
        && c_symm_diff_batch a sigs diff m hw < 0);
      Array.iteri
        (fun j b ->
          let pu = p_ref (fun w -> a.hits.(w) lor b.hits.(w)) in
          expect (c_p_union pa pnp hw a b total) pu;
          expect out.(j) pu;
          if j >= i then
            expect (c_ptr_union ra rnp rw a b pairs)
              (ptr_ref (fun w ->
                   (a.now.(w) lor b.now.(w)) lxor (a.next.(w) lor b.next.(w))));
          (* the word-level definitions of subset and symm_diff *)
          let s = Array.for_all2 (fun x y -> x land lnot y = 0) a.hits b.hits
          and d =
            Array.fold_left ( + ) 0
              (Array.map2 (fun x y -> Util.Popcnt.count (x lxor y)) a.hits b.hits)
          in
          need ((c_subset a b hw <> 0) = s && sub.(j) = s);
          need (c_symm_diff a b hw = d && diff.(j) = d))
        sigs)
    sigs;
  !ok

let checked kern ift imatt =
  if Util.Obs.span ~name:"sig.kernel_check" (fun () -> check kern ift imatt)
  then Some kern
  else (Util.Obs.incr check_failed_counter; None)

(* ------------------------------------------------------------------ *)
(* Kernel construction and in-place patching.                         *)
(* ------------------------------------------------------------------ *)

let kernel ift imatt =
  Util.Obs.span ~name:"sig.kernel_build" (fun () ->
      let rtl = Ift.rtl ift in
      if not (same_rtl rtl (Imatt.rtl imatt)) then
        invalid_arg "Signature.kernel: IFT and IMATT built from different RTLs";
      let k = Rtl.n_instructions rtl in
      let rows = Imatt.rows imatt in
      let n_rows = Array.length rows in
      let hwords = words_for k and rwords = words_for n_rows in
      (* Density estimates for the plane-count choice: P queries are hit
         unions of whole subtrees (dense), Ptr queries are NOW lxor NEXT
         toggle words (sparse — most rows keep the same enable across
         the pair). *)
      let p_np, p_arena = build_arena ~rho:0.6 hwords k (Ift.count ift) in
      let r_np, r_arena =
        build_arena ~rho:0.2 rwords n_rows (fun r -> rows.(r).Imatt.count)
      in
      let kern =
        {
          rtl;
          k;
          n_rows;
          hwords;
          rwords;
          mod_cols = module_columns rtl k hwords;
          first_masks = row_masks k rwords rows (fun r -> r.Imatt.first);
          second_masks = row_masks k rwords rows (fun r -> r.Imatt.second);
          total = Ift.total_cycles ift;
          total_pairs = Imatt.total_pairs imatt;
          p_np;
          p_arena;
          r_np;
          r_arena;
          probes = probe_sets (Rtl.n_modules rtl);
          probe_sigs = [||];
        }
      in
      checked { kern with probe_sigs = probe_sigs kern } ift imatt)

(* In-place arena patch for a weight update that keeps the bit geometry:
   the [weights] segment already stores every bit's old count, so one
   sweep comparing old vs new repairs exactly the touched slots — plane
   bits, mask, heavy flag, running total. The plane count [np] stays as
   built; counts that outgrow the low planes are absorbed by the heavy
   path (correct for any [np >= 1], possibly a popcount slower per word
   than a re-chosen split — a rebuild reclaims that when it matters. *)
let patch_arena ~np nwords n arena weight_of =
  let masks_off = nwords * np in
  let heavy_off = masks_off + nwords in
  let totals_off = heavy_off + nwords in
  let weights_off = totals_off + nwords in
  for i = 0 to n - 1 do
    let c = weight_of i in
    let w = i / bits_per_word and b = i mod bits_per_word in
    let old = arena.{weights_off + (w * bits_per_word) + b} in
    if c <> old then begin
      let bit = 1 lsl b in
      let put off cond =
        arena.{off + w} <-
          (if cond then arena.{off + w} lor bit
           else arena.{off + w} land lnot bit)
      in
      put masks_off (c <> 0);
      put heavy_off (c lsr np <> 0);
      arena.{totals_off + w} <- arena.{totals_off + w} + c - old;
      arena.{weights_off + (w * bits_per_word) + b} <- c;
      for pb = 0 to np - 1 do
        let slot = (w * np) + pb in
        arena.{slot} <-
          (if c land (1 lsl pb) <> 0 then arena.{slot} lor bit
           else arena.{slot} land lnot bit)
      done
    end
  done

(* Each kernel row sits in exactly one first and one second mask, so a
   row of the new table matches iff its bit is set in the masks of its
   own two instructions. *)
let same_row_set kern rows =
  Array.length rows = kern.n_rows
  && (let rec eq r =
        r >= kern.n_rows
        || (row_bit kern.first_masks kern.rwords rows.(r).Imatt.first r
            && row_bit kern.second_masks kern.rwords rows.(r).Imatt.second r
            && eq (r + 1))
      in
      eq 0)

let patch_kernel kern ift imatt =
  if
    not (same_rtl kern.rtl (Ift.rtl ift))
    || not (same_rtl kern.rtl (Imatt.rtl imatt))
  then None
  else
    let rows = Imatt.rows imatt in
    if not (same_row_set kern rows) then None
    else
      Util.Obs.span ~name:"sig.kernel_patch" (fun () ->
          patch_arena ~np:kern.p_np kern.hwords kern.k kern.p_arena
            (Ift.count ift);
          patch_arena ~np:kern.r_np kern.rwords kern.n_rows kern.r_arena
            (fun r -> rows.(r).Imatt.count);
          checked
            {
              kern with
              total = Ift.total_cycles ift;
              total_pairs = Imatt.total_pairs imatt;
            }
            ift imatt)

(* The C kernels read signature word arrays unchecked, so every array an
   operation hands to C must be proven to match the kernel's geometry
   first. P queries touch [hits] only, Ptr queries [tog] only, Ptr-union
   queries [now]/[next] only; checking just what each path reads keeps
   the scalar paths lean. *)
let[@inline] check_hits name kern s =
  if Array.length s.hits <> kern.hwords then
    invalid_arg ("Signature." ^ name ^ ": signature/kernel mismatch")

let[@inline] check_tog name kern s =
  if Array.length s.tog <> kern.rwords then
    invalid_arg ("Signature." ^ name ^ ": signature/kernel mismatch")

let[@inline] check_rows name kern s =
  if Array.length s.now <> kern.rwords || Array.length s.next <> kern.rwords
  then invalid_arg ("Signature." ^ name ^ ": signature/kernel mismatch")

(* ------------------------------------------------------------------ *)
(* Scalar queries.                                                    *)
(* ------------------------------------------------------------------ *)

let p kern s =
  Util.Obs.incr queries_counter;
  check_hits "p" kern s;
  c_p kern.p_arena kern.p_np kern.hwords s kern.total

let p_union kern a b =
  Util.Obs.incr queries_counter;
  check_hits "p_union" kern a;
  check_hits "p_union" kern b;
  c_p_union kern.p_arena kern.p_np kern.hwords a b kern.total

let ptr kern s =
  Util.Obs.incr queries_counter;
  check_tog "ptr" kern s;
  c_ptr kern.r_arena kern.r_np kern.rwords s kern.total_pairs

let ptr_union kern a b =
  Util.Obs.incr queries_counter;
  check_rows "ptr_union" kern a;
  check_rows "ptr_union" kern b;
  c_ptr_union kern.r_arena kern.r_np kern.rwords a b kern.total_pairs

let subset kern a b =
  Util.Obs.incr queries_counter;
  check_hits "subset" kern a;
  check_hits "subset" kern b;
  c_subset a b kern.hwords <> 0

let symm_diff_count kern a b =
  Util.Obs.incr queries_counter;
  check_hits "symm_diff_count" kern a;
  check_hits "symm_diff_count" kern b;
  c_symm_diff a b kern.hwords

(* ------------------------------------------------------------------ *)
(* Batched queries: one bounds-checked C call per candidate frontier.  *)
(* ------------------------------------------------------------------ *)

let batch_n name sigs n out =
  let n = match n with Some n -> n | None -> Array.length sigs in
  if n < 0 || n > Array.length sigs then
    invalid_arg ("Signature." ^ name ^ ": batch count out of range");
  if n > Array.length out then
    invalid_arg ("Signature." ^ name ^ ": output array too short");
  n

let[@inline] batch_obs n =
  Util.Obs.incr batch_calls_counter;
  Util.Obs.add batch_size_counter n;
  Util.Obs.add queries_counter n

(* Geometry validation happens inside the C loops (they return the first
   bad index), so a raise can leave [out] partially written — documented
   in the mli. *)
let[@inline never] bad_batch name =
  invalid_arg ("Signature." ^ name ^ ": signature/kernel mismatch")

let p_batch kern ?n sigs out =
  let n = batch_n "p_batch" sigs n out in
  batch_obs n;
  if c_p_batch kern.p_arena kern.p_np kern.hwords sigs out n kern.total >= 0
  then bad_batch "p_batch"

let ptr_batch kern ?n sigs out =
  let n = batch_n "ptr_batch" sigs n out in
  batch_obs n;
  if
    c_ptr_batch kern.r_arena kern.r_np kern.rwords sigs out n kern.total_pairs
    >= 0
  then bad_batch "ptr_batch"

let p_union_batch kern a ?n sigs out =
  let n = batch_n "p_union_batch" sigs n out in
  check_hits "p_union_batch" kern a;
  batch_obs n;
  if c_p_union_batch kern.p_arena kern.p_np kern.hwords a sigs out n kern.total >= 0
  then bad_batch "p_union_batch"

let subset_batch kern a ?n sigs out =
  let n = batch_n "subset_batch" sigs n out in
  check_hits "subset_batch" kern a;
  batch_obs n;
  if c_subset_batch a sigs out n kern.hwords >= 0 then bad_batch "subset_batch"

let symm_diff_batch kern a ?n sigs out =
  let n = batch_n "symm_diff_batch" sigs n out in
  check_hits "symm_diff_batch" kern a;
  batch_obs n;
  if c_symm_diff_batch a sigs out n kern.hwords >= 0 then
    bad_batch "symm_diff_batch"
