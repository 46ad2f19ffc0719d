(** Generic greedy pair-merging engine.

    Repeatedly merges the pair of active elements with the smallest cost
    until a single element remains — the shared skeleton of the
    nearest-neighbor heuristic (cost = merging-sector distance, Edahiro
    style) and of the paper's min-switched-capacitance ordering (cost =
    Eq. (3)).

    The engine keeps one heap entry per active root — (root, its current
    best partner) — and lazily revalidates an entry when its partner has
    been consumed. Candidate generation is pluggable: the default
    {!scan} source recomputes a root's best partner by scanning the
    active set (O(n) per query, O(n^2) total cost evaluations but O(n)
    heap memory); {!bound_scan} walks the active set in order of a
    per-root lower bound; a spatial source answers the query from the
    grid index's one query, {!Spatial.cheapest} (for the geometric cost
    of {!Nn} and for the paper's Eq. (3) in [Gcr.Router]), bringing
    topology construction to ~O(n log n). The scan and the spatial
    source both keep the first minimum in active order, so they merge
    identically, ties included. The original all-pairs seeding survives
    as {!merge_all_dense}, the reference oracle the accelerated paths
    are validated against.

    Obs counters: [greedy.queries] (best-partner queries: seedings,
    one per merge, one per stale revalidation), [greedy.cost_evals]
    (every cost evaluation, scalar or batched), [greedy.heap_pops],
    [greedy.merge_steps], [greedy.stale_discards]. *)

type view = {
  n : int;  (** initial element count; merged ids are [n], [n+1], ... *)
  cost : int -> int -> float;
      (** the engine's cost function; sources call [cost v u] with the
          querying root [v] first, as {!scan} does, since a cost may be
          symmetric only up to rounding *)
  cost_many : int -> int array -> int -> float array -> unit;
      (** [cost_many v us cnt out] fills [out.(i)] with [cost v us.(i)]
          for [i < cnt] — the batched form sources should prefer when
          costing several candidates of one root, so a vectorized cost
          (e.g. {!Activity.Signature.p_union_batch}) is one kernel call
          per chunk instead of [cnt] scalar calls. Always agrees with
          [cost] bit-for-bit. *)
  iter_active : (int -> unit) -> unit;
      (** visit every active root, in active order *)
  rank : int -> int;
      (** an active root's current position in active order (what
          [iter_active] visits first has rank 0). A source that must
          return the first minimum a scan would keep breaks exact cost
          ties to the smaller rank. *)
}
(** What the engine exposes to a candidate source. *)

type candidates = {
  best : int -> (int * float) option;
      (** [best v] = a minimum-cost partner of active root [v], with its
          exact cost. The source may restrict its search to active
          partners with ids [< v] (every unordered pair is then owned by
          its larger id — the {!scan} source does this); it must never
          return a dead partner, an inexact cost, or a non-minimal
          candidate over the set it owns. [None] iff that set is empty. *)
  merged : a:int -> b:int -> k:int -> unit;
      (** Notification that [a] and [b] were consumed into the fresh
          root [k] (already active when called). *)
}

type source = view -> candidates
(** A candidate source, instantiated once per [merge_all] run. *)

val scan : source
(** Exhaustive per-query scan of the active set: exact for any cost
    function, O(n) memory. The default. Candidates are costed through
    [view.cost_many] in fixed-size chunks (identical results — every
    candidate is costed either way, in the same order). *)

val bound_scan : lower:(int -> float) -> source
(** Best-first scan under an admissible per-root lower bound: [lower v]
    must satisfy [cost u v >= max (lower u) (lower v)] for every active
    pair, and must be stable while [v] is active (it is read once, when
    [v] activates). The source keeps the active set sorted ascending by
    bound and walks a query in that order, stopping at the first
    candidate whose bound cannot beat the best cost found — exact
    results, most candidates never costed. The activity merge uses
    [lower v = P(EN_v)]: probabilities only grow under union, so a
    candidate whose own probability exceeds the best cost so far can be
    dismissed without evaluating the union. Candidates are costed
    through [view.cost_many] in fixed-size chunks; the chunked walk may
    cost a few candidates past the scalar stopping point, but returns
    the identical (partner, cost), ties included (see the proof sketch
    in the implementation). *)

val merge_all_with :
  ?par_seed:bool ->
  ?cost_many:(int -> int array -> int -> float array -> unit) ->
  source ->
  n:int ->
  cost:(int -> int -> float) ->
  merge:(int -> int -> int) ->
  int
(** [merge_all_with src ~n ~cost ~merge] starts from active elements
    [0..n-1]. [merge a b] must consume both arguments and return a fresh
    id, denser ids first: the engine requires ids to be allocated
    consecutively ([n], [n+1], ...). Returns the final surviving id.
    [cost] must be symmetric up to rounding and stable (two fixed ids
    in a fixed order always cost the same). Merge decisions are identical to {!merge_all_dense} up to
    ties. Raises [Invalid_argument] when [n <= 0] or exceeds the 2^20 id
    budget.

    With [par_seed] (default false), the n initial best-partner queries
    are evaluated across domains ({!Util.Parallel}) and pushed in id
    order, so results are identical to the sequential seeding whatever
    the domain count. Only pass it when [cost] and the source's [best]
    are safe to call concurrently against the initial (pre-merge)
    state — pure reads of the problem data, as {!bound_scan} and
    {!scan} are.

    [cost_many v us cnt out] must fill [out.(i)] with a value equal to
    [cost v us.(i)] for [i < cnt] (bit-for-bit: the engine mixes both
    paths freely). When omitted it is derived from [cost]; pass it when
    a batched evaluation (one kernel call per chunk) beats [cnt] scalar
    calls. Under [par_seed] it must be concurrency-safe like [cost]. *)

val merge_all :
  n:int ->
  cost:(int -> int -> float) ->
  merge:(int -> int -> int) ->
  int
(** [merge_all_with scan]. Batched costing goes through
    [merge_all_with ~cost_many scan]. *)

val merge_all_dense :
  n:int ->
  cost:(int -> int -> float) ->
  merge:(int -> int -> int) ->
  int
(** Reference oracle: the original engine seeding a lazy-deletion heap
    with all n(n-1)/2 candidate pairs — O(n^2 log n) time, O(n^2) heap
    memory, [cost] consulted once per unordered candidate pair. Use only
    for validation and baseline benchmarking. *)
