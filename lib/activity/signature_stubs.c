/* Word-parallel weighted-popcount kernels for Activity.Signature.

   A kernel section (instruction counts, or IMATT row counts) lives in one
   flat Bigarray of native ints laid out as

     [ planes : nwords * np | masks : nwords | heavy : nwords
     | totals : nwords | weights : nwords * 62 ]

   word-major: plane b of word w sits at [w * np + b], the per-bit weight
   of bit b of word w at [nwords * (np + 3) + w * 62 + b]. The planes
   encode only the LOW np bits of each weight; the few bits whose weight
   needs more (marked in heavy[w] — build_arena picks np so outlier
   counts stop taxing every word with extra planes) top the sum up
   through a CTZ walk over the full weights section:

     sum_b 2^b * popcnt(x & plane[w*np + b])
       + sum_{i in x & heavy[w]} (weights[i] >> np) << np

   Density shortcuts pick a cheaper exact path per word: x == 0
   contributes nothing, (x & mask_w) == mask_w (every weighted bit set)
   contributes the precomputed totals[w] outright, and when the set bits
   (or the missing bits) number fewer than np, a count-trailing-zeros
   loop over them against the full weights beats the plane walk. The two
   density tests run in query-biased order: P queries see dense hit
   unions (missing-bits test first), Ptr queries see sparse NOW^NEXT
   toggle words (set-bits test first). Every path computes the same
   exact integer sum.

   Sums stay integers; the final (double)acc / (double)total is the same
   IEEE operation as OCaml's float_of_int acc /. float_of_int total, so
   results are bit-for-bit identical to the Ift.p_any / Imatt.ptr table
   scans. These stubs answer every query; Signature.check compares them
   with those scans on every kernel signature.ml builds or patches.

   Layout contracts with signature.ml (checked there, relied on here):
   - Signature.t is { hits; now; next; tog } in that order — Field
     0/1/2/3. tog caches now ^ next (the Ptr query word), maintained by
     every OCaml-side constructor, so the ptr kernels read one array per
     signature instead of two plus an xor. ptr_union still derives its
     words from now/next — a union's toggle is not tog_a | tog_b.
   - Every array a scalar stub reads has exactly hwords (hits) or rwords
     (now/next/tog) ints, validated OCaml-side before the call; C reads
     are unchecked. The batch stubs validate the geometry themselves —
     see the batch section below.
   All stubs are [@@noalloc]: they allocate nothing and never trigger the
   GC (Store_double_field into a preallocated float array included). */

#include <caml/bigarray.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

#if defined(__GNUC__) || defined(__clang__)
#define GCR_POP(x) ((intnat)__builtin_popcountll((unsigned long long)(x)))
#else
static intnat gcr_sig_pop_swar(unsigned long long x)
{
  x = x - ((x >> 1) & 0x5555555555555555ULL);
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return (intnat)((x * 0x0101010101010101ULL) >> 56);
}
#define GCR_POP(x) gcr_sig_pop_swar((unsigned long long)(x))
#endif

static inline intnat gcr_word_wsum(const intnat *planes, intnat np, uintnat x)
{
  /* Two independent accumulators so consecutive popcounts don't chain
     through one add; the compiler keeps both in registers. */
  intnat acc0 = 0, acc1 = 0;
  intnat b = 0;
  for (; b + 2 <= np; b += 2) {
    acc0 += GCR_POP(x & (uintnat)planes[b]) << b;
    acc1 += GCR_POP(x & (uintnat)planes[b + 1]) << (b + 1);
  }
  if (b < np)
    acc0 += GCR_POP(x & (uintnat)planes[b]) << b;
  return acc0 + acc1;
}

#if defined(__GNUC__) || defined(__clang__)
#define GCR_CTZ(x) ((intnat)__builtin_ctzll((unsigned long long)(x)))
#else
static intnat gcr_sig_ctz(unsigned long long x)
{
  return GCR_POP((x & -x) - 1);
}
#define GCR_CTZ(x) gcr_sig_ctz((unsigned long long)(x))
#endif

static inline intnat gcr_bits_wsum(const intnat *weights, uintnat y)
{
  intnat acc = 0;
  while (y != 0) {
    acc += weights[GCR_CTZ(y)];
    y &= y - 1;
  }
  return acc;
}

/* Top-up walk for the plane path: the part of each heavy bit's weight
   the np planes could not encode. */
static inline intnat gcr_bits_wsum_hi(const intnat *weights, intnat np,
                                      uintnat y)
{
  intnat hi_mask = ~(((intnat)1 << np) - 1);
  intnat acc = 0;
  while (y != 0) {
    acc += weights[GCR_CTZ(y)] & hi_mask;
    y &= y - 1;
  }
  return acc;
}

/* Weighted sum of one query word against word w's section data: pick the
   cheapest exact path by density. set_first is a compile-time constant
   at every call site (the branch folds away): Ptr queries test the
   set-bits side before the missing-bits side, P queries the reverse. */
static inline intnat gcr_word_weight(const intnat *planes,
                                      const intnat *weights, intnat np,
                                      uintnat mask, uintnat heavy,
                                      intnat total, uintnat x, int set_first)
{
  uintnat y = x & mask;
  uintnat miss = y ^ mask;
  if (miss == 0)
    return total; /* saturated (covers y == mask == 0 too) */
  if (set_first) {
    /* Toggle words are sparse and their complement is never sparse, so
       skip the missing-bits test and let the CTZ walk soak up slightly
       denser words than the plane walk's np would suggest (the walk's
       loop-carried dependency is one clear-lowest-bit per step, cheaper
       than a popcount plane). */
    if (GCR_POP(y) < np + 2)
      return gcr_bits_wsum(weights, y);
  } else {
    if (GCR_POP(miss) < np)
      return total - gcr_bits_wsum(weights, miss);
    if (GCR_POP(y) < np)
      return gcr_bits_wsum(weights, y);
  }
  intnat acc = gcr_word_wsum(planes, np, y);
  uintnat yh = y & heavy;
  if (yh != 0)
    acc += gcr_bits_wsum_hi(weights, np, yh);
  return acc;
}

/* Sum one section. GET_X is an expression in w producing the query word;
   SET_FIRST is the literal dispatch-order flag for gcr_word_weight. */
#define GCR_SECTION_SUM(acc, arena, np, nwords, SET_FIRST, GET_X)             \
  do {                                                                        \
    const intnat *ar_ = (const intnat *)Caml_ba_data_val(arena);              \
    const intnat *masks_ = ar_ + (nwords) * (np);                             \
    const intnat *heavy_ = masks_ + (nwords);                                 \
    const intnat *totals_ = heavy_ + (nwords);                                \
    const intnat *weights_ = totals_ + (nwords);                              \
    for (intnat w = 0; w < (nwords); w++) {                                   \
      uintnat x_ = (uintnat)(GET_X);                                          \
      if (x_ != 0)                                                            \
        (acc) += gcr_word_weight(ar_ + w * (np), weights_ + w * 62, (np),    \
                                  (uintnat)masks_[w], (uintnat)heavy_[w],     \
                                  totals_[w], x_, (SET_FIRST));               \
    }                                                                         \
  } while (0)

#define SIG_HITS(s) Field((s), 0)
#define SIG_NOW(s) Field((s), 1)
#define SIG_NEXT(s) Field((s), 2)
#define SIG_TOG(s) Field((s), 3)
#define WORD(arr, w) Long_val(Field((arr), (w)))

/* ---- scalar queries (unboxed double returns) ---- */

CAMLprim double gcr_sig_p(value arena, intnat np, intnat nwords, value sig,
                          intnat total)
{
  value hits = SIG_HITS(sig);
  intnat acc = 0;
  GCR_SECTION_SUM(acc, arena, np, nwords, 0, WORD(hits, w));
  return (double)acc / (double)total;
}

CAMLprim value gcr_sig_p_byte(value arena, value np, value nwords, value sig,
                              value total)
{
  return caml_copy_double(
      gcr_sig_p(arena, Long_val(np), Long_val(nwords), sig, Long_val(total)));
}

CAMLprim double gcr_sig_ptr(value arena, intnat np, intnat nwords, value sig,
                            intnat total_pairs)
{
  value tog = SIG_TOG(sig);
  intnat acc = 0;
  GCR_SECTION_SUM(acc, arena, np, nwords, 1, WORD(tog, w));
  return (double)acc / (double)total_pairs;
}

CAMLprim value gcr_sig_ptr_byte(value arena, value np, value nwords, value sig,
                                value total_pairs)
{
  return caml_copy_double(gcr_sig_ptr(arena, Long_val(np), Long_val(nwords),
                                      sig, Long_val(total_pairs)));
}

CAMLprim double gcr_sig_p_union(value arena, intnat np, intnat nwords, value a,
                                value b, intnat total)
{
  value ah = SIG_HITS(a), bh = SIG_HITS(b);
  intnat acc = 0;
  GCR_SECTION_SUM(acc, arena, np, nwords, 0, WORD(ah, w) | WORD(bh, w));
  return (double)acc / (double)total;
}

CAMLprim value gcr_sig_p_union_byte(value *argv, int argn)
{
  (void)argn;
  return caml_copy_double(gcr_sig_p_union(argv[0], Long_val(argv[1]),
                                          Long_val(argv[2]), argv[3], argv[4],
                                          Long_val(argv[5])));
}

CAMLprim double gcr_sig_ptr_union(value arena, intnat np, intnat nwords,
                                  value a, value b, intnat total_pairs)
{
  value an = SIG_NOW(a), ax = SIG_NEXT(a);
  value bn = SIG_NOW(b), bx = SIG_NEXT(b);
  intnat acc = 0;
  GCR_SECTION_SUM(acc, arena, np, nwords, 1,
                  (WORD(an, w) | WORD(bn, w)) ^ (WORD(ax, w) | WORD(bx, w)));
  return (double)acc / (double)total_pairs;
}

CAMLprim value gcr_sig_ptr_union_byte(value *argv, int argn)
{
  (void)argn;
  return caml_copy_double(gcr_sig_ptr_union(argv[0], Long_val(argv[1]),
                                            Long_val(argv[2]), argv[3],
                                            argv[4], Long_val(argv[5])));
}

/* ---- set algebra over the instruction-hit words ----

   Subset and symmetric-difference popcount over H(S): no arena, pure
   word ops. hits words keep bits 62..63 clear on both sides, so
   a & ~b never picks up tag-bit garbage. */

CAMLprim intnat gcr_sig_subset(value a, value b, intnat nwords)
{
  value ah = SIG_HITS(a), bh = SIG_HITS(b);
  for (intnat w = 0; w < nwords; w++)
    if ((uintnat)WORD(ah, w) & ~(uintnat)WORD(bh, w))
      return 0;
  return 1;
}

CAMLprim value gcr_sig_subset_byte(value a, value b, value nwords)
{
  return Val_long(gcr_sig_subset(a, b, Long_val(nwords)));
}

CAMLprim intnat gcr_sig_symm_diff(value a, value b, intnat nwords)
{
  value ah = SIG_HITS(a), bh = SIG_HITS(b);
  intnat acc = 0;
  for (intnat w = 0; w < nwords; w++)
    acc += GCR_POP(WORD(ah, w) ^ WORD(bh, w));
  return acc;
}

CAMLprim value gcr_sig_symm_diff_byte(value a, value b, value nwords)
{
  return Val_long(gcr_sig_symm_diff(a, b, Long_val(nwords)));
}

/* ---- batched queries: one C call per candidate frontier ----

   Each batch kernel validates every signature's geometry itself (one
   header-word read per array, already being loaded) and returns the
   index of the first mismatching element, or -1 when the whole batch
   was computed — the OCaml wrapper raises on >= 0. Folding the check
   into the kernel loop spares the wrapper a separate validation pass
   over the batch. On a mismatch [out] is left partially written. */

/* Final pass of every batch kernel: the integer sums were stored into
   [out] as doubles; divide them all by the (positive, exact-in-double)
   total in one sweep. A plain loop so the compiler turns it into packed
   divides (vdivpd under -march=native) — packed IEEE division is
   bit-identical per lane to the scalar divsd the one-off queries use,
   and the divider, not the popcounts, is the batch throughput floor. */
static void gcr_div_all(value out, intnat cnt, double tot)
{
  double *dst = (double *)out;
  for (intnat i = 0; i < cnt; i++)
    dst[i] = dst[i] / tot;
}

CAMLprim intnat gcr_sig_p_batch(value arena, intnat np, intnat nwords,
                                value sigs, value out, intnat cnt, intnat total)
{
  for (intnat i = 0; i < cnt; i++) {
    value hits = SIG_HITS(Field(sigs, i));
    if (Wosize_val(hits) != (uintnat)nwords)
      return i;
    intnat acc = 0;
    GCR_SECTION_SUM(acc, arena, np, nwords, 0, WORD(hits, w));
    Store_double_field(out, i, (double)acc);
  }
  gcr_div_all(out, cnt, (double)total);
  return -1;
}

CAMLprim value gcr_sig_p_batch_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(gcr_sig_p_batch(argv[0], Long_val(argv[1]),
                                  Long_val(argv[2]), argv[3], argv[4],
                                  Long_val(argv[5]), Long_val(argv[6])));
}

/* The r-section's plane count is small (the heavy split pushes outlier
   row counts out of the planes), so clone the batch loop for the common
   constants: with np known at compile time the plane walk unrolls and
   the density thresholds fold. */
static inline intnat gcr_sig_ptr_batch_loop(value arena, intnat np,
                                            intnat nwords, value sigs,
                                            value out, intnat cnt)
{
  for (intnat i = 0; i < cnt; i++) {
    value tog = SIG_TOG(Field(sigs, i));
    if (Wosize_val(tog) != (uintnat)nwords)
      return i;
    intnat acc = 0;
    GCR_SECTION_SUM(acc, arena, np, nwords, 1, WORD(tog, w));
    Store_double_field(out, i, (double)acc);
  }
  return -1;
}

CAMLprim intnat gcr_sig_ptr_batch(value arena, intnat np, intnat nwords,
                                  value sigs, value out, intnat cnt,
                                  intnat total_pairs)
{
  intnat r;
  switch (np) {
  case 1:
    r = gcr_sig_ptr_batch_loop(arena, 1, nwords, sigs, out, cnt);
    break;
  case 2:
    r = gcr_sig_ptr_batch_loop(arena, 2, nwords, sigs, out, cnt);
    break;
  case 3:
    r = gcr_sig_ptr_batch_loop(arena, 3, nwords, sigs, out, cnt);
    break;
  case 4:
    r = gcr_sig_ptr_batch_loop(arena, 4, nwords, sigs, out, cnt);
    break;
  default:
    r = gcr_sig_ptr_batch_loop(arena, np, nwords, sigs, out, cnt);
    break;
  }
  if (r < 0)
    gcr_div_all(out, cnt, (double)total_pairs);
  return r;
}

CAMLprim value gcr_sig_ptr_batch_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(gcr_sig_ptr_batch(argv[0], Long_val(argv[1]),
                                    Long_val(argv[2]), argv[3], argv[4],
                                    Long_val(argv[5]), Long_val(argv[6])));
}

CAMLprim intnat gcr_sig_p_union_batch(value arena, intnat np, intnat nwords,
                                      value a, value sigs, value out,
                                      intnat cnt, intnat total)
{
  value ah = SIG_HITS(a);
  double tot = (double)total;
  if (Wosize_val(ah) != (uintnat)nwords)
    return cnt; /* distinguished: the accumulator itself mismatched */
  for (intnat i = 0; i < cnt; i++) {
    value bh = SIG_HITS(Field(sigs, i));
    if (Wosize_val(bh) != (uintnat)nwords)
      return i;
    intnat acc = 0;
    GCR_SECTION_SUM(acc, arena, np, nwords, 0, WORD(ah, w) | WORD(bh, w));
    Store_double_field(out, i, (double)acc);
  }
  gcr_div_all(out, cnt, tot);
  return -1;
}

CAMLprim value gcr_sig_p_union_batch_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(gcr_sig_p_union_batch(
      argv[0], Long_val(argv[1]), Long_val(argv[2]), argv[3], argv[4],
      argv[5], Long_val(argv[6]), Long_val(argv[7])));
}

/* Batched set algebra against one anchor signature. Results are
   immediates (Val_bool / Val_long), written without the barrier —
   still noalloc. Same first-bad-index contract as the float batches;
   the anchor mismatching returns cnt, as in gcr_sig_p_union_batch. */

CAMLprim intnat gcr_sig_subset_batch(value a, value sigs, value out, intnat cnt,
                                     intnat nwords)
{
  value ah = SIG_HITS(a);
  if (Wosize_val(ah) != (uintnat)nwords)
    return cnt;
  for (intnat i = 0; i < cnt; i++) {
    value bh = SIG_HITS(Field(sigs, i));
    if (Wosize_val(bh) != (uintnat)nwords)
      return i;
    intnat sub = 1;
    for (intnat w = 0; w < nwords; w++)
      if ((uintnat)WORD(ah, w) & ~(uintnat)WORD(bh, w)) {
        sub = 0;
        break;
      }
    Field(out, i) = Val_bool(sub);
  }
  return -1;
}

CAMLprim value gcr_sig_subset_batch_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(gcr_sig_subset_batch(argv[0], argv[1], argv[2],
                                       Long_val(argv[3]), Long_val(argv[4])));
}

CAMLprim intnat gcr_sig_symm_diff_batch(value a, value sigs, value out,
                                        intnat cnt, intnat nwords)
{
  value ah = SIG_HITS(a);
  if (Wosize_val(ah) != (uintnat)nwords)
    return cnt;
  for (intnat i = 0; i < cnt; i++) {
    value bh = SIG_HITS(Field(sigs, i));
    if (Wosize_val(bh) != (uintnat)nwords)
      return i;
    intnat acc = 0;
    for (intnat w = 0; w < nwords; w++)
      acc += GCR_POP(WORD(ah, w) ^ WORD(bh, w));
    Field(out, i) = Val_long(acc);
  }
  return -1;
}

CAMLprim value gcr_sig_symm_diff_batch_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(gcr_sig_symm_diff_batch(
      argv[0], argv[1], argv[2], Long_val(argv[3]), Long_val(argv[4])));
}
