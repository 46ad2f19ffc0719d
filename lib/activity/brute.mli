(** Brute-force probability computation straight from the instruction
    stream — the "expensive RTL-simulation" path of the paper.

    Rescans the stream for every query (O(B) per query, versus O(K) after a
    one-time table build). Used as the oracle that validates {!Ift} and
    {!Imatt} in tests, and for cost comparisons in the benches. *)

val p_any : Instr_stream.t -> Module_set.t -> float
(** Fraction of cycles in which at least one module of the set is active. *)

val ptr : Instr_stream.t -> Module_set.t -> float
(** Fraction of the [B - 1] cycle boundaries at which the enable of the set
    toggles. Raises [Invalid_argument] on a single-cycle stream. *)

val transition_count : Instr_stream.t -> Module_set.t -> int
(** Absolute number of enable toggles over the stream. *)
