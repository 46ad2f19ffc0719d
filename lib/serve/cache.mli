(** Cross-request workload registry: the daemon's process-wide cache.

    Traffic against a routing service is dominated by {e repeated
    workloads under perturbed placements} — the same RTL and instruction
    stream, different sink layouts — so the expensive per-request work
    that depends only on (rtl, stream) is shared across requests keyed by
    a 64-bit workload hash of exactly those two sections: the
    {!Activity.Profile} (IFT/IMATT tables {e and} the signature kernel,
    forced eagerly at insertion so the published value is deeply
    immutable — the kernel field is lazily filled and mutable, and must
    never be raced), shared read-only by every domain.

    {b Epochs.} A workload's profile is not immutable for the life of the
    entry: {!update} ingests a trace chunk through
    {!Activity.Stream_update} and swaps in the drifted profile. Each swap
    advances the entry's {e epoch}; profile and epoch move in one
    critical section. Routes identify the profile they used by
    [(key, epoch)], and the server compares that against {!epoch} after
    routing: when an update advanced the epoch mid-request, it re-routes
    against the fresh profile instead of answering from tables that are
    no longer the workload's truth.

    The registry itself is a small mutex-guarded table with LRU eviction
    (an evicted entry is merely unlinked; in-flight requests holding its
    profile keep it alive and consistent).

    {!audit} is the daemon's safety net: after routing, the worker
    re-derives every node's enable probability by an IFT table scan of
    the profile the tree was routed with and demands exact equality
    with the tree — any disagreement (a torn profile, a corrupted
    kernel) is a typed [Engine_mismatch] reject instead of a silently
    wrong answer. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 32) bounds resident workloads. Raises
    [Invalid_argument] when it is non-positive. *)

val workload_key : Conformance.Scenario.t -> int64
(** FNV-1a over the rendered [rtl] and [stream] sections — the exact
    inputs the profile is a function of. *)

val profile :
  t -> Conformance.Scenario.t -> int64 * Activity.Profile.t * int * bool
(** [(key, profile, epoch, warm)]: the shared profile for the scenario's
    workload at its current epoch (0 until the first {!update}), built
    (kernel forced) and inserted on first sight. [warm] is whether the
    workload was already resident when this request looked it up.
    Concurrent first sights build independently and adopt one winner;
    losers' work is discarded, never torn. *)

val update :
  t -> Conformance.Scenario.t -> chunk:int array -> int * Activity.Profile.t
(** Ingest [chunk] (instruction indices over the scenario's RTL) into
    the workload's streaming accumulator — seeded with the scenario's
    own trace on the first update — and publish the drifted profile,
    returning [(epoch, profile)] for the new epoch. The swap is
    epoch-atomic: profile and epoch bump happen in one critical section.
    Updates to the same workload serialize; the table construction and
    kernel forcing run outside the registry lock. Raises
    [Invalid_argument] on an out-of-range instruction index (the
    accumulator is unchanged). *)

val epoch : t -> key:int64 -> int option
(** Current epoch of the workload with this {!workload_key}, [None] when
    not resident. *)

val audit : Activity.Pcache.t -> Gcr.Gated_tree.t -> int * int
(** Recompute every node's enable signal probability with
    {!Activity.Pcache.p} — a direct table scan, never the signature
    kernel the route costed with, so the check stays independent of the
    route — and compare exactly against the tree's own values. Returns
    [(0, nodes audited)]: the pair keeps the shape of the answer's
    [audit_hits]/[audit_misses] fields, and nothing is memoized. Raises
    {!Util.Gcr_error.Error} with [Engine_mismatch] (stage
    ["serve:audit"]) on any disagreement. The handle must be over the
    profile the tree was routed with. *)

val resident : t -> int
(** Number of workloads currently resident. *)
