(** Gate reduction (Section 4.3 of the paper).

    Inserting a masking gate on every edge maximizes masking but blows up
    the controller star and its switched capacitance; the paper removes
    gates that barely help, using three rules, plus a forced-insertion rule
    that bounds how much capacitance may accumulate without a gate (so the
    phase delay does not grow unchecked):

    + the node's activity is close to 1 — there is nothing to mask;
    + the node's subtree switched capacitance is very small — the gate can
      only save a sliver;
    + the parent's activity is almost the same as the node's — the parent
      gate already masks nearly as well.

    Removing a gate ties its enable high: the cell degenerates to an
    always-on clock buffer (the paper notes the gates "also serve as
    buffers"), its control star wire disappears and the edges it governed
    fall back to the enclosing gate's enable. Modelling removal as a
    buffer demotion (rather than deleting the cell) keeps sibling branch
    delays matched, so the re-embedding does not need pathological snaking
    wire to restore zero skew.

    Besides the rule-based pass this module provides an exact greedy
    variant built on {!removal_gain} (remove gates while removal lowers the
    total switched capacitance) and a fraction-targeted variant used to
    sweep the paper's Figure 5 x-axis. All variants re-run the DME
    embedding for the final gate assignment, so zero skew is preserved. *)

type thresholds = {
  activity_high : float;  (** rule 1: remove when [P(EN) >= activity_high] *)
  min_switched_cap : float;
      (** rule 2: remove when the subtree switched capacitance (fF/cycle)
          is at most this *)
  parent_delta : float;
      (** rule 3: remove when [P(EN_parent) - P(EN) <= parent_delta] *)
  force_cap_multiple : float;
      (** re-insert a gate once the capacitance accumulated since the last
          gate reaches this multiple of the gate input capacitance *)
}

val default_thresholds : thresholds
(** [activity_high = 0.95], [min_switched_cap = 2 x 20 fF],
    [parent_delta = 0.02], [force_cap_multiple = 10]. *)

val removal_gain : Gated_tree.t -> int -> float
(** [removal_gain t v] is the change in total switched capacitance [W] if
    the gate on the edge above [v] were removed (negative = removal saves
    power): the edges it governs fall back to the enclosing gate's higher
    probability, while its control star wire and its input capacitance
    disappear. Computed on the current embedding (wire lengths are not
    re-balanced for the estimate). Raises [Invalid_argument] when the edge
    is not gated. *)

val reduce_rules : ?thresholds:thresholds -> Gated_tree.t -> Gated_tree.t
(** The paper's pass: apply the three removal rules on the fully gated
    tree, then the forced-insertion sweep, then re-embed. Rule 2 reads
    every subtree's switched capacitance from one bottom-up sweep that
    adds [edge + (left + right)] exactly as {!Cost.subtree_switched_cap}'s
    recursion does, so the pass is O(n) and its sums are bit-identical
    to the per-node recursion. *)

(** {2 Greedy removal}

    {!reduce_greedy} and {!reduce_count} share one pass. It builds its
    work state once: per gate, the nodes it governs in ascending id and
    their summed edge capacitance, and every gate's {!removal_gain} in an
    ordered set keyed [(gain, id)]. The next removal is the set's
    minimum, so among bit-equal gains the lower node id goes first (a
    scan in ascending id keeping the first minimum picks the same gate).

    Removing gate [v], whose parent is governed by gate [g], touches only
    its neighbourhood: [v]'s domain moves into [g]'s, the parent's load
    swaps the gate input for a buffer input, [g]'s domain is re-summed,
    and [g] plus the gates whose parent lay in [v]'s domain (their
    fallback probability moved) are re-keyed. The re-sum is a left fold
    from [0.] over the merged members in ascending id, the association a
    whole-tree bucketed sum uses; a running [+.] update would
    re-associate, change gains in the last bits and could reorder
    near-ties. Cost per removal is the absorbing domain's size plus
    O(log n) per re-keyed gate; on the r-benchmarks and r1 scaled to
    4000 sinks the pass adds 8-30 edge capacitances per tree node in
    all (the [reduce.sum_terms] Obs counter), against O(n) per removal
    for a whole-tree rescan.

    Obs counters: [reduce.removals] (gates demoted),
    [reduce.gain_updates] (re-keys after a removal) and
    [reduce.sum_terms] (edge capacitances added while summing domains,
    the initial sums included). *)

val reduce_greedy : Gated_tree.t -> Gated_tree.t
(** Remove gates one at a time, always the one with the most negative
    {!removal_gain} (lower id on ties), until no removal lowers [W]; then
    re-embed. *)

val reduce_count : Gated_tree.t -> remove:int -> Gated_tree.t
(** Remove exactly [remove] gates (or all of them if fewer exist) in
    ascending [(gain, id)] order, regardless of sign; then re-embed. The
    knob behind the paper's "gate reduction %" sweeps. *)

val reduce_fraction : Gated_tree.t -> fraction:float -> Gated_tree.t
(** [reduce_fraction t ~fraction] removes [fraction] (in [0..1]) of the
    tree's gates via {!reduce_count}. Raises [Invalid_argument] outside
    [0..1]. *)

val reduce_optimal : Gated_tree.t -> Gated_tree.t
(** Exact optimal gate placement on the {e fixed} topology and embedding,
    by dynamic programming: each edge's clock probability is the enable of
    its lowest gated ancestor, so the only context a subtree's cost depends
    on is that ancestor's probability — one of the O(depth) ancestor enable
    values. Memoizing on (node, context) gives the global optimum of the
    same estimate the greedy pass optimizes (wire lengths frozen at the
    all-gated embedding; the final assignment is re-embedded exactly, like
    every other reducer). Yardstick for how much the paper's heuristics
    leave on the table. *)
