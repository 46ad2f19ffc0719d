(** The gated clock tree: a zero-skew embedded topology plus per-edge
    hardware (masking gate, always-on buffer, or bare wire) and per-node
    enable statistics.

    Hardware sits at the {e head} of each edge — "immediately after every
    internal node" in the paper's words — so the edge above node [v] and
    everything below it down to the next gates toggles with the signal
    probability of the lowest gated ancestor-or-self of [v] (enables are
    nested: a gate is on whenever any descendant gate is on). The same
    type represents the paper's three configurations: fully gated trees,
    the buffered baseline, and partially gated trees after reduction. *)

type edge_kind =
  | Plain  (** bare wire *)
  | Buffered  (** always-on clock buffer *)
  | Gated  (** masking AND gate driven by the node's enable *)

type t = private {
  config : Config.t;
  profile : Activity.Profile.t;
  sinks : Clocktree.Sink.t array;
  topo : Clocktree.Topo.t;
  embed : Clocktree.Embed.t;
  enables : Enable.t array;  (** per node *)
  kind : edge_kind array;  (** per node: hardware on the edge above it *)
  governing : int array;
      (** per node: the gated node whose enable controls the clock on the
          edge above it, or [-1] when the clock is free-running there *)
  skew_budget : float;
      (** allowed source-to-sink skew (0 = exact zero skew) *)
  scale : float array;
      (** per-edge hardware size factor (transistor-width multiple applied
          to the gate or buffer on the edge; 1 = unit size) *)
  share_rep : int array;
      (** per node: the representative gate of its share group (itself when
          unshared; identity everywhere until {!Gate_share} runs) *)
  shared_enables : Enable.t array;
      (** per node: the enable actually wired to the gate on the edge above
          it — the share group's merged enable, [enables.(v)] when
          unshared. All members of a group reference an equal value. *)
  sharing : (int * int) option;
      (** [(min_instances, eps)] recorded when the {!Gate_share} pass built
          this tree; [None] on unshared trees *)
  test_en : bool;
      (** scan/test mode: gates honoring {!field-bypass} are forced
          transparent, making the tree behave as its ungated equivalent *)
  bypass : bool array;
      (** per node: whether the gate on the edge above honors [test_en]
          (all [true] in a healthy tree; element mutability is the
          stuck-bypass fault-injection surface) *)
}

val compute_governing : Clocktree.Topo.t -> edge_kind array -> int array
(** The {!field-governing} column of a kind assignment, one top-down
    pass: a [Gated] node governs itself, any other node inherits its
    parent's governing gate, and the root has none ([-1]). *)

val build :
  ?skew_budget:float ->
  ?scale:(int -> float) ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  Clocktree.Topo.t ->
  kind:(int -> edge_kind) ->
  t
(** Embeds the topology (DME with the given hardware assignment), computes
    enables and governing gates. The root's kind is forced to [Plain] (it
    has no edge above). A positive [skew_budget] (default 0) relaxes the
    zero-skew constraint via bounded-skew merging ({!Clocktree.Bst}),
    trading skew for wire. Raises [Invalid_argument] on mismatched sinks,
    topology or profile universes, or a negative budget. *)

val rebuild_with_kinds : t -> edge_kind array -> t
(** Re-embed the same topology with a different hardware assignment (the
    gate-reduction path); zero skew is re-established for the new
    assignment. Sizes are preserved. *)

val rebuild_with_scale : t -> float array -> t
(** Re-embed the same topology and hardware with new per-edge size
    factors (the {!Sizing} path). Raises [Invalid_argument] on a length
    mismatch or a non-positive factor. Share groups and test mode are
    preserved (resizing touches neither hardware kinds nor enables). *)

val rebuild_with_sharing :
  t ->
  kinds:edge_kind array ->
  share_rep:int array ->
  shared_enables:Enable.t array ->
  min_instances:int ->
  eps:int ->
  t
(** Re-embed with the hardware assignment and share groups produced by the
    {!Gate_share} pass: [share_rep] maps every gate to its group's
    representative (identity elsewhere), [shared_enables] carries the
    group-merged enable each gate is wired to, and [(min_instances, eps)]
    is recorded in {!field-sharing} for {!Verify}. Test mode carries over.
    Raises [Invalid_argument] on length mismatches or negative
    parameters. *)

val with_test_en : t -> bool -> t
(** Flip scan/test mode. A mode change, not a rebuild: the hardware and
    embedding stay identical, only the enable value seen by bypassed
    gates changes (forced open when [test_en] is set). The [bypass] array
    is shared between the two views, not copied. *)

val gate_on_edge : t -> int -> Clocktree.Tech.gate option
(** Hardware on the edge above a node, as a {!Clocktree.Tech.gate}. *)

val edge_probability : t -> int -> float
(** Signal probability of the clock on the edge above the node: [P(EN)] of
    the {e shared} enable wired to its governing gate, 1 when
    free-running, and 1 under [test_en] for gates honoring their bypass
    (the clock runs free in test mode). *)

val node_probability : t -> int -> float
(** Probability that the node's own electrical net toggles: equals
    [edge_probability] for non-roots and 1 at the root. *)

val node_load : t -> int -> float
(** Capacitance hanging at the node itself: sink load at a leaf, plus the
    input capacitance of gate/buffer hardware on child edges. *)

val gate_count : t -> int

val buffer_count : t -> int

val gate_location : t -> int -> Geometry.Point.t
(** Location of the hardware on the edge above the node (the head of the
    edge). *)

val is_gated : t -> int -> bool

val kinds_copy : t -> edge_kind array
