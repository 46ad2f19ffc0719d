(** PROCEDURE GatedClockRouting — the paper's Section 4 algorithm.

    Greedy bottom-up merging where the next pair is the one with the
    smallest merge switched capacitance (Equation (3)), evaluated with a
    tentative zero-skew split of the merging-sector distance and the
    controller star estimated from the sector midpoints; followed by
    top-down DME placement. Every edge receives a masking gate during
    construction (gate reduction is a separate pass, {!Gate_reduction}).

    Complexity: O(B) to scan the stream once (done by the caller when
    building the {!Activity.Profile}), then the merge loop, which the
    paper bounds by O(B + K^2 N^2): an exhaustive scan per query costs
    O(N) partners. Here each query is answered by
    {!Clocktree.Spatial.cheapest} under the cost-distance bound
    [K(q) + K(u) + c min(P_q, P_u) d(q,u)] ({!Cost.merge_sc_fixed}) and
    costs few partners (r1: 7-10 per query up to 4000 sinks, 21 at
    10^4), so the loop is ~O(N log N) cost evaluations and pyramid steps
    on realistic placements. An evaluation reads per-root float columns
    and allocates only its boxed result and distance. A merge ORs the
    two roots' instruction-hit signatures, O(W) in their word count, and
    the sinks' signatures cost one {!Activity.Signature.of_set} per
    distinct module.
    The answer is the exhaustive scan's, ties included, so the trees are
    too. *)

val route :
  ?skew_budget:float ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  Gated_tree.t
(** Build the fully gated zero-skew tree (or bounded-skew, with a positive
    [skew_budget] in ohm x fF). Raises [Invalid_argument] on an empty or
    mis-indexed sink array, or when a sink's module id falls outside the
    profile's universe. *)

val route_topology_only :
  Config.t -> Activity.Profile.t -> Clocktree.Sink.t array -> Clocktree.Topo.t
(** Just the min-switched-capacitance topology (used by ablations that
    re-cost the same topology under different embeddings). *)

(** {1 The merge core}

    The greedy loop factored out as an explicit forest, so the sharded
    router ({!Shard_router}) can drive the same cost/merge machinery
    per region and again over the region roots during stitching. *)

type forest
(** A growing forest of zero-skew subtrees with the paper's Eq. (3)
    enable bookkeeping alongside ({!Clocktree.Grow} + per-root
    {!Enable}, plus each root's [P], enable star term and signature in
    flat columns, set when the root becomes active). *)

val forest :
  Config.t -> Activity.Profile.t -> Clocktree.Sink.t array -> forest
(** Fresh forest, every sink its own root. Sinks of one module share one
    enable and signature ({!Enable.grow_sinks}). Raises
    [Invalid_argument] on a mis-indexed sink array. *)

val bare :
  Config.t -> Activity.Profile.t -> Clocktree.Sink.t array -> forest
(** A forest whose roots carry no enable yet — no sink enable is
    computed. Replay merges through [Clocktree.Grow.merge (grow f)],
    then give every surviving root its enable with {!adopt_enable}
    before {!cost} or {!merge} reads it (the sharded stitch adopts the
    region roots' enables this way). Raises [Invalid_argument] on a
    mis-indexed sink array. *)

val grow : forest -> Clocktree.Grow.t
(** The underlying merge state (active roots, regions, merge list). *)

val enable : forest -> int -> Enable.t
(** An active root's enable. Only active roots keep theirs: raises
    [Invalid_argument] on a root consumed by a merge, and on a {!bare}
    forest's node that was never adopted or merged. *)

val grown : forest -> int -> Enable.grown
(** An active root's enable with its signature. Raises as {!enable}. *)

val adopt_enable : forest -> int -> Enable.grown -> unit
(** Set a node's enable and signature: the value {!merge} would have
    computed for it in a forest that built the same subtree. With the
    signature, later merges of the node OR it instead of rescanning the
    instructions. *)

val cost : forest -> int -> int -> float
(** Eq. (3) merge switched capacitance of tentatively merging two active
    roots: clock-tree term from a tentative zero-skew split plus the
    controller star term from the sector midpoints. Bit for bit
    {!Cost.merge_sc} over {!Clocktree.Grow.peek_split}, the midpoints and
    the enables, but computed from float columns
    ({!Clocktree.Grow.peek_lengths}, {!Cost.merge_sc_columns}) without
    building a split, a point or an enable. Raises [Invalid_argument]
    if either id is not an active root or has no enable. *)

val p_union : forest -> int -> int -> float
(** [P(EN_a ∪ EN_b)], {!Activity_router}'s cost: the OR of the two
    signatures when both carry one, else {!Activity.Profile.p} of the
    union (bit for bit equal). A pure read, safe across domains. *)

val p_union_batch : forest -> int -> int array -> int -> float array -> unit
(** [p_union_batch f v us cnt out] sets [out.(i)] to [p_union f v us.(i)]
    for [i < cnt], in one batched kernel call when all carry one. *)

val merge : forest -> int -> int -> int
(** Commit a merge (Grow + enable union); returns the new root id. *)

val run : forest -> unit
(** Greedy-merge the forest down to a single root with the NN-heap
    engine, each best-partner query answered by the spatial
    cost-distance index. Must be called on a fresh {!forest} — the
    engine starts from the sink roots. *)
