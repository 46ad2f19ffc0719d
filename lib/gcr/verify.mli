(** Standalone structural invariants of a gated clock tree, typed.

    Each check re-derives one of the paper's contracts from the raw tree
    data — embedding wire lengths, sink loads, enable sets, hardware
    kinds — without reusing the values cached during construction, and
    raises {!Util.Gcr_error.Error} ([Engine_mismatch], or [Numerical] for
    non-finite floats) naming the invariant and the first offending node.
    {!Flow.run_checked}'s paranoid mode runs them between pipeline stages
    to decide when to fall back to a reference engine; [Gsim.Check] and
    the conformance fuzzer call them directly. *)

val finite : Gated_tree.t -> unit
(** Every float the tree stores — coordinates, edge lengths, sink loads,
    scale factors, enable statistics, skew budget, both cost totals — is
    finite. Runs first in {!structural}: NaN passes every tolerance
    comparison the other checks make, so it must be ruled out before
    they can be trusted. Raises [Numerical] on violation. *)

val zero_skew : ?embed:Clocktree.Embed.t -> Gated_tree.t -> unit
(** Independent Elmore recomputation of every source-to-sink delay from
    the embedding: the spread must not exceed the tree's skew budget
    (zero for exact zero-skew trees) beyond floating-point tolerance.
    [embed] substitutes a different embedding for the tree's own — used
    by mutation tests that must check a deliberately corrupted one. *)

val enable_consistency : Gated_tree.t -> unit
(** [EN_i] = OR of descendant activities: every leaf's enable set is the
    singleton of its sink's module, every internal enable set the union
    of its children's, and every stored [P]/[Ptr] equals a direct
    {!Activity.Profile} table scan {e bit-for-bit} (for sampled profiles
    this doubles as the signature-kernel vs. IFT/IMATT differential). *)

val governing_chain : Gated_tree.t -> unit
(** The governing-gate assignment is well-formed: the root carries no
    edge hardware, and every edge's governing gate is exactly the
    nearest gated ancestor-or-self found by walking the parent chain
    (or [-1] when the path to the root is gate-free). *)

val cost_accounting : Gated_tree.t -> unit
(** [W = W(T) + W(S)] holds exactly, and both terms match an independent
    per-edge recomputation from wire lengths, loads, hardware kinds,
    size factors and enable statistics — using the {e shared} enable of
    each governing gate, and treating gates forced transparent by
    [test_en] as free-running with a silent control star. *)

val sharing : Gated_tree.t -> unit
(** The {!Gate_share} group structure is sound: with no sharing
    recorded, [share_rep] is the identity and every shared enable equals
    the node's own; with sharing recorded, every surviving gate covers
    at least [min_instances] sinks (the fanout floor), and each group's
    shared enable covers exactly the union of its members' own module
    sets with [P]/[Ptr] matching a direct profile query bit-for-bit. *)

val structural : ?embed:Clocktree.Embed.t -> Gated_tree.t -> unit
(** {!finite}, then all of the above (including {!sharing}) plus
    {!Gated_tree.check_invariants} (embedding consistency and enable
    nesting). [embed] is forwarded to {!zero_skew} only. *)
