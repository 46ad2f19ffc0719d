(** Activity profile: the bundled statistics object the clock router
    consumes.

    Two backends answer the same queries:

    - {b Sampled} — the paper's pipeline: an instruction stream scanned
      once into the {!Ift} and {!Imatt} tables. What the evaluation uses;
      what the cycle-accurate simulator can verify exactly.
    - {b Analytic} — closed-form probabilities straight from a
      {!Cpu_model} (see {!Markov}), with no stream at all. Useful early in
      a design, when only the model exists; sampled profiles converge to
      it as streams grow. *)

type t

val of_stream : Instr_stream.t -> t
(** Scan the stream once and build both tables. Raises [Invalid_argument]
    on a stream shorter than two cycles. *)

val of_tables :
  ?kernel:Signature.kernel -> Instr_stream.t -> Ift.t -> Imatt.t -> t
(** Sampled profile over prebuilt tables — the streaming-update
    constructor ({!Stream_update.profile}): no rescan of the stream, and
    an optional already-built (or in-place patched) signature kernel to
    seed the cache slot. The caller asserts the tables describe the
    stream; dimensions against the stream's RTL are checked
    ([Invalid_argument] on mismatch). *)

val of_model : Cpu_model.t -> t
(** Analytic profile: exact Markov probabilities, no sampling. *)

val generate : Cpu_model.t -> seed:int -> length:int -> t
(** Draw a stream from the CPU model (deterministically from [seed]) and
    profile it. *)

val rtl : t -> Rtl.t

val is_analytic : t -> bool

val stream : t -> Instr_stream.t
(** The backing stream. Raises [Invalid_argument] on an analytic profile
    (there is none). *)

val ift : t -> Ift.t
(** Raises [Invalid_argument] on an analytic profile. *)

val imatt : t -> Imatt.t
(** Raises [Invalid_argument] on an analytic profile. *)

val n_modules : t -> int

val p : t -> Module_set.t -> float
(** Signal probability [P(EN)] of the enable covering the given module
    set. *)

val ptr : t -> Module_set.t -> float
(** Transition probability [Ptr(EN)] of that enable. *)

val p_module : t -> int -> float

val signature_kernel : t -> Signature.kernel option
(** The {!Signature} kernel over this profile's tables — the fast path
    for repeated [P]/[Ptr] queries over unions of known sets. Built on
    first demand and cached; [None] for analytic profiles, whose
    closed-form queries have no tables to index, for {!tables_only}
    profiles and after a failed {!Signature.check}. *)

val tables_only : t -> t
(** The same profile with its signature kernel off: every [P]/[Ptr]
    query goes through a direct IFT/IMATT table scan, as after a failed
    {!Signature.check}. Shares the underlying stream and tables.
    Identity on analytic profiles. *)

val avg_activity : t -> float
(** Average module activity (the x-axis of the paper's Figure 4); the
    expectation under the model for analytic profiles. *)

val paper_example : t
(** Profile of {!Instr_stream.paper_example}. *)
