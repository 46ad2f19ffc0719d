/* Hardware popcount for Util.Popcnt.

   OCaml has no popcount primitive; Module_set runs a Kernighan loop and
   the signature kernel used per-byte count-sum tables to avoid one. This
   stub exposes the hardware instruction (via the compiler builtin, which
   lowers to POPCNT on x86-64 and CNT on aarch64) as an [@untagged]
   [@@noalloc] external, so one word costs one call with no boxing. The
   pure-OCaml SWAR fallback lives in popcnt.ml; Util.Popcnt self-checks
   the stub against it at init, and an equality property in the test
   suite pins the two implementations together. */

#include <caml/mlvalues.h>

#if defined(__GNUC__) || defined(__clang__)
#define GCR_POPCOUNT64(x) ((intnat)__builtin_popcountll((unsigned long long)(x)))
#else
/* Portable SWAR fallback (Hacker's Delight 5-1), for compilers without
   the builtin; the OCaml-side fallback exists independently of this. */
static intnat gcr_popcnt64_swar(unsigned long long x)
{
  x = x - ((x >> 1) & 0x5555555555555555ULL);
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return (intnat)((x * 0x0101010101010101ULL) >> 56);
}
#define GCR_POPCOUNT64(x) gcr_popcnt64_swar((unsigned long long)(x))
#endif

CAMLprim intnat gcr_popcnt_word(intnat x)
{
  /* An OCaml int is one bit narrower than intnat; [@untagged] hands us
     the sign-extended value, whose duplicated top bit would be counted
     twice for negative inputs. Mask to the OCaml int's own width so the
     result is the popcount of the (Sys.int_size)-bit representation,
     matching Popcnt.count_ocaml on every input. */
  return GCR_POPCOUNT64((uintnat)x & (((uintnat)-1) >> 1));
}

CAMLprim value gcr_popcnt_word_byte(value x)
{
  return Val_long(gcr_popcnt_word(Long_val(x)));
}
