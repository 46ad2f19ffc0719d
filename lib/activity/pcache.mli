(** Memoized signal-probability queries.

    [Profile.p] scans the whole IFT (every instruction's used-module set)
    per call; the activity-aware greedy merge asks for the probability of
    the same candidate unions over and over while a pair sits in the
    frontier. This cache keys probabilities by module set in a hash table
    and evaluates candidate unions in a reusable scratch buffer, so a
    repeated query costs one O(words) union + lookup and allocates
    nothing.

    The table is bounded (capped bucket count, short per-bucket chains
    that stop admitting entries when full), so on adversarial workloads
    where every queried set is distinct the cache degrades to an
    allocation-free direct computation with a small constant probe
    overhead, instead of retaining an unbounded set of frozen keys.

    {b Concurrency contract.} Queries ({!p}, {!p_union},
    {!p_union_batch}) are single-writer: the scratch buffer, the memo
    table and the bypass decision belong to exactly one domain — the
    first domain to query after {!create}. The contract is enforced: a
    query from any other domain raises a typed {!Util.Gcr_error.Internal}
    instead of silently corrupting scratch state. The accounting side is
    lock-free and cross-domain safe: {!stats} and {!flush_obs} may run
    from any domain while the owner is mid-query, and concurrent
    {!flush_obs} calls publish each delta exactly once. *)

type t

val create : Profile.t -> t
(** Fresh, empty cache over the profile's module universe. *)

val p : t -> Module_set.t -> float
(** Memoized {!Profile.p}. *)

val p_union : t -> Module_set.t -> Module_set.t -> float
(** [p_union c a b] = [Profile.p profile (union a b)] without allocating
    the union (except on the first query for that set). Raises
    [Invalid_argument] on a universe mismatch. *)

val p_union_batch : t -> Module_set.t -> ?n:int -> Module_set.t array -> float array -> unit
(** [p_union_batch c a bs out] fills [out.(i)] with [p_union c a bs.(i)]
    for [i < n] (default: all of [bs]) — the batched call shape
    {!Clocktree.Greedy}'s [cost_many] wants. Element-wise identical to
    the scalar calls: each element counts exactly one hit or one miss in
    {!stats} and populates the memo table the same way. Raises
    [Invalid_argument] when [n] exceeds either array. *)

val stats : t -> int * int
(** [(hits, misses)] since creation. Safe from any domain; reads are
    atomic per counter (the pair is not a consistent snapshot while the
    owner is querying, but each component is never torn). *)

val flush_obs : t -> unit
(** Publish the hit/miss counts accumulated since the last flush to the
    process-wide [pcache.hits]/[pcache.misses] {!Util.Obs} counters.
    Safe from any domain and idempotent per delta: each increment is
    published exactly once even under concurrent flushes (the flushed
    watermark advances by compare-and-set), so a monitoring domain can
    flush a worker's cache mid-run without loss or double-counting. *)
