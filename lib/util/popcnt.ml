(* Hardware population count with a portable OCaml fallback.

   The C stub counts bits of the (Sys.int_size)-bit representation — it
   masks off intnat's duplicated sign bit — and the fallback runs 32-bit
   SWAR on the two halves, so both sides agree on every int, negative
   inputs included. Which side answers is decided once at module init:
   the stub is self-tested against the fallback and used when it agrees
   (it always should; the check guards against a miscompiled stub rather
   than a real choice). *)

external stub_count : (int[@untagged]) -> (int[@untagged])
  = "gcr_popcnt_word_byte" "gcr_popcnt_word"
[@@noalloc]

(* 32-bit SWAR per half: the 64-bit variant's masks don't fit in a 63-bit
   int literal, and two half-counts are still branch- and loop-free. *)
let[@inline] count32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  (* OCaml multiplies in full int width (no mod-2^32 truncation), so the
     product's bits above 31 survive the shift; keep only the byte that
     holds the sum (≤ 32, carry-free). *)
  ((x * 0x01010101) lsr 24) land 0xff

let count_ocaml x = count32 (x land 0xffffffff) + count32 (x lsr 32)

let self_test () =
  let probes =
    [ 0; 1; 2; 3; max_int; min_int; -1; 0x55555555; 1 lsl 61; (1 lsl 62) - 1;
      min_int + 1; 0x123456789abcdef ]
  in
  List.for_all (fun x -> stub_count x = count_ocaml x) probes

let use_stub = self_test ()

let count x = if use_stub then stub_count x else count_ocaml x
