(** Reference gate reducers: {!Gcr.Gate_reduction}'s greedy and rule
    passes in their direct, whole-tree form, kept as the oracle the fast
    passes must match {e kind for kind}.

    The greedy reference recomputes the governing gates, every domain's
    capacitance and every gain over the whole tree for each removal and
    removes the first minimum-gain gate in ascending node id — O(n) per
    removal, O(n{^2}) per pass, so seconds at a few thousand sinks. The
    rule reference calls {!Gcr.Cost.subtree_switched_cap} once per gate
    (O(n * depth)). Each returns the final kinds array on the input
    tree's embedding, without re-embedding. *)

val greedy_kinds : Gcr.Gated_tree.t -> Gcr.Gated_tree.edge_kind array
(** The kinds {!Gcr.Gate_reduction.reduce_greedy} must produce. *)

val count_kinds : Gcr.Gated_tree.t -> remove:int -> Gcr.Gated_tree.edge_kind array
(** The kinds {!Gcr.Gate_reduction.reduce_count} must produce. *)

val rules_kinds :
  ?thresholds:Gcr.Gate_reduction.thresholds ->
  Gcr.Gated_tree.t ->
  Gcr.Gated_tree.edge_kind array
(** The kinds {!Gcr.Gate_reduction.reduce_rules} must produce. *)
