(** Standalone structural invariants of a gated clock tree, typed.

    Each check re-derives one of the paper's contracts from the raw tree
    data — embedding wire lengths, sink loads, enable sets, hardware
    kinds — without reusing the values cached during construction, and
    raises {!Util.Gcr_error.Error} ([Engine_mismatch], or [Numerical] for
    non-finite floats) naming the invariant and the first offending node.
    {!Flow.run_checked}'s paranoid mode runs {!structural} at every
    stage boundary to decide when to take the next ladder rung;
    [Gsim.Check] and the conformance fuzzer call it directly. *)

val zero_skew : ?embed:Clocktree.Embed.t -> Gated_tree.t -> unit
(** Independent Elmore recomputation of every source-to-sink delay from
    the embedding: the spread must not exceed the tree's skew budget
    (zero for exact zero-skew trees) beyond floating-point tolerance.
    [embed] substitutes a different embedding for the tree's own — used
    by mutation tests that must check a deliberately corrupted one. *)

val sharing : Gated_tree.t -> unit
(** The {!Gate_share} group structure is sound: with no sharing
    recorded, [share_rep] is the identity and every shared enable equals
    the node's own (module set, [P] and [Ptr]); with sharing recorded,
    every [share_rep] entry is in range and names a node that is its own
    representative, gates are grouped under gates and every other node
    is its own group, every surviving gate covers at least
    [min_instances] sinks (the fanout floor), and each group's shared
    enable covers exactly the union of its members' own module sets with
    [P]/[Ptr] matching a direct profile query bit-for-bit. *)

val structural : ?embed:Clocktree.Embed.t -> Gated_tree.t -> unit
(** Every check, each made once, in this order:
    + every stored float is finite (first, since NaN passes every
      tolerance comparison the others make; raises [Numerical]);
    + embedding: {!Clocktree.Embed.check_consistency} of the tree's own
      embedding (every node inside its merging region, every edge no
      longer than its wire);
    + governing chain: the root carries no edge hardware and each edge's
      governing gate is its nearest gated ancestor-or-self ([-1] when
      none);
    + enable consistency: [EN_i] = OR of descendant activities, each
      leaf's set the singleton of its sink's module, every stored
      [P]/[Ptr] in [0, 1] and equal to a direct {!Activity.Profile}
      table scan bit for bit (for sampled profiles, the signature-kernel
      differential), and no node's [P] below a child's;
    + {!sharing};
    + cost accounting: [W = W(T) + W(S)] exactly, both terms matching a
      per-edge recomputation that uses each governing gate's shared
      enable and treats [test_en]-bypassed gates as free-running;
    + {!zero_skew} (the only check [embed] is forwarded to). *)
