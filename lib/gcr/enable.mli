(** Enable-signal statistics per clock-tree node.

    The enable [EN_i] of node [v_i] is the OR of the activities of the
    modules at the leaves below [v_i] (Section 2 of the paper); its signal
    probability drives the clock-tree switched capacitance and its
    transition probability the controller-tree switched capacitance. *)

type t = {
  mods : Activity.Module_set.t;  (** modules in the node's subtree *)
  p : float;  (** signal probability P(EN) *)
  ptr : float;  (** transition probability Ptr(EN) *)
}

val of_set : Activity.Profile.t -> Activity.Module_set.t -> t
(** Enable covering an arbitrary module set, with [P]/[Ptr] from the
    profile (through the signature kernel when the profile has one —
    bit-for-bit what a direct table scan gives). The {!Gate_share} pass
    builds each group's shared enable this way. *)

val of_sink : Activity.Profile.t -> Clocktree.Sink.t -> t
(** Enable of a leaf: the activity of the sink's module. Raises
    [Invalid_argument] if the sink's module id is outside the profile's
    universe. *)

val merge : Activity.Profile.t -> t -> t -> t
(** Enable of a parent node: union of the children's module sets, with
    probabilities looked up from the profile's tables. *)

(** {1 Growing enables bottom-up}

    A greedy merge builds every parent from its two children. With a
    signature kernel, carrying each root's instruction-hit signature
    makes a parent's [P]/[Ptr] a word-wise OR plus two weighted
    popcounts instead of a rescan of the instruction set; the values are
    bit-for-bit those of {!merge}. *)

type grown = {
  enable : t;
  signature : Activity.Signature.t option;
      (** the enable's signature; [None] without a kernel *)
}

val grow_sinks : Activity.Profile.t -> Clocktree.Sink.t array -> grown array
(** {!of_sink} of every sink, keeping the signature. Each distinct
    module's signature is built once ([Signature.of_set]); its sinks
    share the one immutable result. Raises as {!of_sink}. *)

val grow_merge : Activity.Profile.t -> grown -> grown -> grown
(** {!merge}: ORs the children's signatures when both carry one, and
    falls back to {!of_set} of the union otherwise. *)

val compute_all :
  Activity.Profile.t -> Clocktree.Topo.t -> Clocktree.Sink.t array -> t array
(** Per-node enables for a whole topology, bottom-up. Sampled profiles
    propagate instruction-hit signatures up the tree (word-wise ORs plus
    weighted popcounts — see {!Activity.Signature}) instead of rescanning
    the tables per node, and build a leaf signature once per distinct
    sink module; the probabilities are identical either way. *)

val pp : Format.formatter -> t -> unit
