(** Compensated (Neumaier–Kahan) floating-point accumulation.

    Long cost and wirelength accumulations drift: summing [n] terms
    naively loses up to [n·ε·max|term|] of precision, which the
    conformance oracles' tight relative tolerances then read as engine
    disagreement. The accumulator keeps a running compensation term so
    the result is exact to one rounding of the true sum, at two extra
    flops per term — used by {!Gcr.Cost}, {!Clocktree.Elmore} and
    {!Stats}. *)

type t

val create : unit -> t

val reset : t -> unit

val add : t -> float -> unit

val total : t -> float
(** The compensated sum of everything {!add}ed so far. *)

val step : sum:float -> comp:float -> float -> float * float
(** One two-sum step on caller-owned state: [step ~sum ~comp x] returns
    the new [(sum, comp)] pair. For accumulations whose state lives in
    per-node arrays (root-to-sink path delays) rather than in a single
    accumulator. *)

val sum_array : float array -> float

val sum_init : int -> (int -> float) -> float
(** [sum_init n f] = compensated [f 0 + … + f (n-1)]. *)
