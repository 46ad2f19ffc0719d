(** PROCEDURE GatedClockRouting — the paper's Section 4 algorithm.

    Greedy bottom-up merging where the next pair is the one with the
    smallest merge switched capacitance (Equation (3)), evaluated with a
    tentative zero-skew split of the merging-sector distance and the
    controller star estimated from the sector midpoints; followed by
    top-down DME placement. Every edge receives a masking gate during
    construction (gate reduction is a separate pass, {!Gate_reduction}).

    Complexity: O(B) to scan the stream once (done by the caller when
    building the {!Activity.Profile}), O(K N^2 (log N + W)) for the merge
    loop where W is the bitset word count — the practical counterpart of
    the paper's O(B + K^2 N^2) bound. *)

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
    {!Enable}). *)

val forest :
  Config.t -> Activity.Profile.t -> Clocktree.Sink.t array -> forest
(** Fresh forest, every sink its own root. Raises [Invalid_argument] on a
    mis-indexed sink array. *)

val grow : forest -> Clocktree.Grow.t
(** The underlying merge state (active roots, regions, merge list). *)

val cost : forest -> int -> int -> float
(** Eq. (3) merge switched capacitance of tentatively merging two active
    roots: clock-tree term from a tentative zero-skew split plus the
    controller star term from the sector midpoints. *)

val merge : forest -> int -> int -> int
(** Commit a merge (Grow + enable union); returns the new root id. *)

val run : forest -> unit
(** Greedy-merge the forest down to a single root with the NN-heap scan
    engine. Must be called on a fresh forest — the engine starts from
    the sink roots. *)
