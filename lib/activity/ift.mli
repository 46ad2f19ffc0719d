(** Instruction Frequency Table (the paper's Table 2).

    Built in one scan of an instruction stream; afterwards any enable-signal
    probability [P(EN) = P(M_a or M_b or ...)] is answered in O(K) bitset
    intersection tests without rescanning the stream — the paper's
    table-driven computation with complexity O(KL). Counts are kept as
    integers so queries agree bit-for-bit with a brute-force stream scan. *)

type t

val build : Instr_stream.t -> t
(** Single scan of the stream. *)

val of_counts : Rtl.t -> int array -> t
(** Build directly from per-instruction occurrence counts (length [K],
    non-negative, positive total). Raises [Invalid_argument] otherwise. *)

val rtl : t -> Rtl.t

val total_cycles : t -> int
(** The stream length [B] the table was built from. *)

val count : t -> int -> int
(** Occurrences of instruction [i]. *)

val prob : t -> int -> float
(** [P(I_i)] — the table entry. *)

val p_any : t -> Module_set.t -> float
(** [p_any t s] is the probability that at least one module of [s] is
    active: the signal probability [P(EN)] of a gate whose subtree spans
    [s]. Raises [Invalid_argument] on a universe mismatch. *)

val pp : Format.formatter -> t -> unit
