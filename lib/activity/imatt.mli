(** Instruction Transition - Module Activation Table (the paper's Table 3).

    One scan of the stream records, for every ordered pair of consecutive
    instructions, how often the pair occurs. Together with the RTL
    used-module sets this is enough to answer any enable-signal transition
    probability [Ptr(EN)]: the enable of a subtree spanning module set [S]
    toggles across a pair (Ia -> Ib) exactly when [S] intersects the used
    set of one instruction but not the other (the OR over the paper's
    two-bit activation tags is then 01 or 10). *)

type row = {
  first : int;  (** instruction executed in the earlier cycle *)
  second : int; (** instruction executed in the later cycle *)
  count : int;  (** occurrences of this ordered pair in the stream *)
}

type t

val build : Instr_stream.t -> t
(** Single scan over the [B - 1] consecutive pairs. Raises
    [Invalid_argument] on a single-cycle stream. *)

val of_pair_counts : Rtl.t -> (int * int * int) array -> t
(** Rebuild a table from externally accumulated [(first, second, count)]
    pair counts — the streaming-ingestion constructor behind
    {!Stream_update}. The result is bit-for-bit the table {!build} would
    produce on any stream realizing the same pair multiset ([total_pairs]
    is the count sum). Raises [Invalid_argument] on out-of-range
    instructions, non-positive counts, duplicate pairs, or an empty
    table. *)

val rtl : t -> Rtl.t

val total_pairs : t -> int
(** [B - 1]. *)

val rows : t -> row array
(** Observed pairs with positive count, ordered by (first, second). *)

val pair_count : t -> first:int -> second:int -> int

val toggles : Rtl.t -> first:int -> second:int -> Module_set.t -> bool
(** Does the enable of module set [S] change value across this instruction
    pair? *)

val activation_tag : Rtl.t -> first:int -> second:int -> int -> string
(** The paper's two-bit tag AT(M) for one module: ["00"], ["01"], ["10"] or
    ["11"] (earlier cycle bit first). *)

val ptr : t -> Module_set.t -> float
(** Transition probability [Ptr(EN)] of the enable for module set [S]:
    probability per cycle boundary that the signal toggles. *)

val pp : Format.formatter -> t -> unit
