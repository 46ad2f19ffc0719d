(** Instruction-hit signature kernels: word-parallel [P]/[Ptr] queries.

    {!Ift.p_any} answers [P(EN_S)] by testing every instruction's
    used-module set against [S] — O(K · words(modules)) per query — and
    {!Imatt.ptr} rescans every IMATT row the same way. During greedy
    merging both are asked about {e unions} of sets whose answers are
    already known, so the module sets are redundant: all that matters is
    {e which instructions hit} the set.

    A signature caches exactly that, as bitsets:

    - [H(S)] over instructions: bit [i] set iff [uses(I_i) ∩ S ≠ ∅].
      [P(EN_S)] is then the count-weighted popcount of [H(S)].
    - [NOW(S)]/[NEXT(S)] over IMATT rows: row [r]'s bits are
      [H(S).(first_r)] and [H(S).(second_r)]. The enable toggles across
      row [r] iff the bits differ, so [Ptr(EN_S)] is the count-weighted
      popcount of [NOW(S) lxor NEXT(S)].

    All three bitsets are unioned by word-wise OR — [H(S ∪ T) = H(S) lor
    H(T)], and since [now(S ∪ T) = now(S) ∨ now(T)], the union's toggle
    bits are exactly [(NOW_S lor NOW_T) lxor (NEXT_S lor NEXT_T)] — so a
    candidate merge's exact [P]/[Ptr] needs no module sets, no RTL walk
    and no allocation.

    Weighted popcounts are answered from bit-sliced weight planes: plane
    [b] holds the bits whose count has bit [b] set, so one query word
    costs [⌈log₂ max_count⌉] hardware popcounts —
    [Σ_b 2^b · popcnt (x land plane_b)] — evaluated by noalloc C stubs.
    Hit sums are integers, so {!p} and {!ptr} agree {e bit-for-bit} with
    {!Ift.p_any} and {!Imatt.ptr}; {!check} holds every kernel to that
    before handing it out. The batched entry points
    ({!p_batch}, {!ptr_batch}, {!p_union_batch}) evaluate a whole
    candidate frontier in one C call, amortizing bounds checks and
    call overhead. *)

type kernel
(** The weight-plane arenas: per-instruction and per-IMATT-row, shared by
    every signature derived from one profile, plus the transposed
    module-column and row-mask tables {!of_set} reads (O(n_modules ·
    words(K) + K · words(rows)) words, immutable). *)

type t = { hits : int array; now : int array; next : int array; tog : int array }
(** The signature of one module set. [tog] caches [now lxor next] — the
    [Ptr] query word — and is kept consistent by every constructor here;
    build [t] values only through {!of_set}, {!create} and {!union}.
    No operation here writes into a signature once it is built, so one
    signature may be shared freely (a router shares each module's among
    all its sinks). (Field order is ABI with the C stubs — do not
    reorder.) *)

val kernel : Ift.t -> Imatt.t -> kernel option
(** Build the kernel for one profile's table pair and {!check} it
    against them: [None] (counted in Obs [signature.check_failed]) when
    the check fails, and the caller answers from the table scans. Raises
    [Invalid_argument] when the two tables disagree on their RTL. *)

val patch_kernel : kernel -> Ift.t -> Imatt.t -> kernel option
(** Patch the kernel's weight planes {e in place} for updated tables over
    the same RTL — the streaming-ingestion fast path. Applies exactly
    when the IMATT {e row set} (the ordered pairs with positive count) is
    unchanged, so the bit geometry is intact and only counts moved: one
    sweep repairs the touched plane bits, masks, heavy flags and totals
    (reading each bit's previous count out of the arena's weights
    segment), and the result answers every query bit-for-bit like a
    fresh {!kernel} over the new tables. Returns [None] — caller must
    rebuild — when the RTL differs or new pairs appeared (arenas
    untouched), or when the patched kernel fails {!check} (input dead).

    The returned kernel {e shares the mutated arenas} with its input:
    after [Some k'], the old kernel must not be queried again, and no
    other domain may hold it (single-owner update flows only — the serve
    cache rebuilds instead, so in-flight readers of the old kernel stay
    consistent). Existing signatures remain valid: row bits depend only
    on the row set, which is unchanged. *)

val check : kernel -> Ift.t -> Imatt.t -> bool
(** Whether the kernel answers like the tables [ift]/[imatt]: probe
    module sets (full, even, odd) against {!Ift.p_any}/{!Imatt.ptr}, and
    every query, scalar, union and batch, on those and on synthetic hit
    patterns against the tables' sums (or, for {!subset} and
    {!symm_diff_count}, the word-level definitions). Catches a bad stub,
    arena build, {!of_set} table or in-place patch, or a kernel built
    from other tables; [false] on an RTL mismatch. *)

val of_set : kernel -> Module_set.t -> t
(** Signature of a module set, from two tables the kernel transposes
    once: [H(S)] is the OR of the per-module columns [H({m})] over
    [S]'s members, and [NOW]/[NEXT] are the ORs of the per-instruction
    row masks (the rows whose first, resp. second, instruction is [i])
    over [H(S)]'s set bits. Cost O(|S| · words(K) + hits · words(rows));
    the words equal a scan of every used-module set against [S] and of
    every IMATT row. Raises [Invalid_argument] on a universe mismatch. *)

val create : kernel -> t
(** An all-zero signature (the empty set). *)

val union : t -> t -> t
(** Fresh word-wise OR of two signatures. *)

val p : kernel -> t -> float
(** [P(EN)] of the signature's set; equals {!Ift.p_any} exactly. *)

val ptr : kernel -> t -> float
(** [Ptr(EN)] of the signature's set; equals {!Imatt.ptr} exactly. *)

val p_union : kernel -> t -> t -> float
(** [P(EN)] of the union of two signatures' sets, without materializing
    the union — the greedy candidate evaluation. Equals
    [p k (union a b)] exactly. *)

val ptr_union : kernel -> t -> t -> float
(** [Ptr(EN)] of the union, likewise. *)

(** {1 Set algebra over instruction-hit bitsets}

    These compare signatures at the {e waveform} level: [H(S)] determines
    the enable's value on every cycle of the profiled stream (the gate is
    open on cycle [c] iff bit [instr_c] of [H(S)] is set), so
    [H(A) ⊆ H(B)] means gate [B] is open whenever gate [A] is, and
    [|H(A) Δ H(B)|] counts the instructions on which the two enables
    disagree — 0 iff the waveforms are cycle-for-cycle identical. This is
    the gate-sharing criterion: it is coarser than module-set equality
    (distinct module sets with the same hit pattern share safely). *)

val subset : kernel -> t -> t -> bool
(** [subset k a b] is [true] iff every instruction hitting [a]'s set also
    hits [b]'s — i.e. [H(a) ⊆ H(b)]. *)

val symm_diff_count : kernel -> t -> t -> int
(** Number of instructions in the symmetric difference [H(a) Δ H(b)]
    (unweighted popcount; [0] iff the enable waveforms coincide). *)

(** {1 Batched evaluation}

    Each call writes results for the first [n] signatures (default: the
    whole array) into [out.(0 .. n-1)], bit-for-bit equal to the scalar
    query on each element. One C call per batch; each signature's
    geometry is validated inside the kernel loop as it is reached.
    Raises [Invalid_argument] if [n] exceeds either array, or on a
    signature/kernel mismatch — in the latter case [out] may already be
    partially written. *)

val p_batch : kernel -> ?n:int -> t array -> float array -> unit
(** [p_batch k sigs out]: [out.(i) = p k sigs.(i)]. *)

val ptr_batch : kernel -> ?n:int -> t array -> float array -> unit
(** [ptr_batch k sigs out]: [out.(i) = ptr k sigs.(i)]. *)

val p_union_batch : kernel -> t -> ?n:int -> t array -> float array -> unit
(** [p_union_batch k a sigs out]: [out.(i) = p_union k a sigs.(i)] — the
    fused merge-candidate evaluation. *)

val subset_batch : kernel -> t -> ?n:int -> t array -> bool array -> unit
(** [subset_batch k a sigs out]: [out.(i) = subset k a sigs.(i)] — is the
    anchor's hit set contained in each candidate's. *)

val symm_diff_batch : kernel -> t -> ?n:int -> t array -> int array -> unit
(** [symm_diff_batch k a sigs out]:
    [out.(i) = symm_diff_count k a sigs.(i)] — the gate-sharing
    near-subsumption sweep against one anchor. *)
