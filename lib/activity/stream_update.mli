(** Streaming IFT/IMATT construction: ingest an instruction trace in
    chunks and materialize profile tables at any point, {e bit-for-bit}
    equal to a from-scratch build over the concatenation of everything
    ingested so far.

    Both tables are additive over concatenation — the IFT is a count
    vector, the IMATT a pair-count multiset — so a chunk contributes its
    own hit counts and consecutive pairs plus the single boundary pair
    joining it to the previous chunk (a NOW/NEXT pair split across a
    chunk boundary is counted exactly once, like any other cycle
    boundary). {!profile} additionally keeps a signature kernel warm
    across updates: when only counts moved it is patched in place
    ({!Signature.patch_kernel}); when new instruction pairs appeared, or
    the patch failed {!Signature.check}, it is rebuilt (and checked).

    The accumulator is single-owner mutable state: ingest and
    materialize from one domain. Profiles returned by
    {!profile} share the accumulator's kernel — after a further
    [ingest]+[profile ~patch:true] cycle, earlier returned profiles must
    not be queried (their kernel's arenas were patched). Pass
    [~patch:false] to get a profile with an independent lazily-built
    kernel instead (what the serve cache does, so in-flight readers of
    the previous epoch stay consistent). *)

type t

val create : Rtl.t -> t
(** An empty accumulator: no cycles ingested yet. *)

val of_stream : Instr_stream.t -> t
(** Accumulator pre-loaded with one stream (equivalent to {!create} +
    {!ingest_stream}). *)

val ingest : t -> int array -> unit
(** Append a chunk of instruction indices to the trace. An empty chunk
    is a no-op; a single-instruction chunk contributes one hit count and
    one boundary pair. Raises [Invalid_argument] on an out-of-range
    instruction index (the accumulator is unchanged — validation happens
    before any mutation). *)

val ingest_stream : t -> Instr_stream.t -> unit
(** {!ingest} the stream's instruction sequence. Raises
    [Invalid_argument] when the stream's RTL dimensions differ from the
    accumulator's. *)

val total_cycles : t -> int
(** Cycles ingested so far (sum of chunk lengths). *)

val distinct_pairs : t -> int
(** Number of distinct consecutive-instruction pairs observed — the
    IMATT row count. *)

val stream : t -> Instr_stream.t
(** The concatenation of everything ingested. Raises [Invalid_argument]
    when nothing has been ingested. *)

val ift : t -> Ift.t
(** Equals [Ift.build (stream t)] bit-for-bit. Raises
    [Invalid_argument] when nothing has been ingested. *)

val imatt : t -> Imatt.t
(** Equals [Imatt.build (stream t)] bit-for-bit. Raises
    [Invalid_argument] on fewer than two ingested cycles. *)

val profile : ?patch:bool -> t -> Profile.t
(** The sampled profile over the current tables. With [patch] (default
    [true]) the accumulator's cached signature kernel is updated in
    place when possible and shared with the returned profile — the
    incremental fast path; see the ownership caveat above. If the kernel
    fails its check, the profile answers from the table scans. With
    [~patch:false] the profile is independent of the accumulator (kernel
    built lazily on first demand). Raises [Invalid_argument] on fewer
    than two ingested cycles. *)
