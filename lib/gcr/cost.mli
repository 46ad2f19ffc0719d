(** Switched-capacitance cost model (Section 2 of the paper).

    Clock tree:      [W(T) = sum (c |e_i| + C_i) P(EN_i)]
    Controller tree: [W(S) = sum (c |EN_i| + C_g) Ptr(EN_i)] (scaled by the
    configured control weight)

    Units: fF of capacitance switched per clock cycle (multiply by
    [f * Vdd^2] for power). The clock-edge probability is the enable of the
    edge's governing gate, so a partially gated tree is costed exactly. *)

val edge_switched_cap : Gated_tree.t -> int -> float
(** Per-cycle switched capacitance of the edge above a node (wire plus the
    capacitance hanging at the node), weighted by the clock probability on
    that edge. 0 for the root (no edge above). *)

val w_clock : Gated_tree.t -> float
(** Total clock-tree switched capacitance [W(T)], including the load
    hanging at the root node. *)

val control_wire_length : Gated_tree.t -> int -> float
(** Star-wire length from the gate on the edge above the node to its
    controller; 0 for ungated edges. *)

val control_wirelength_total : Gated_tree.t -> float

val clock_wirelength : Gated_tree.t -> float

val w_ctrl : Gated_tree.t -> float
(** Total controller-tree switched capacitance [W(S)] (control-weight
    applied). *)

val w_total : Gated_tree.t -> float
(** [w_clock + w_ctrl] — the paper's objective. *)

val subtree_switched_cap : Gated_tree.t -> int -> float
(** Clock-tree switched capacitance of the subtree hanging below (and
    including) the edge above the given node — the quantity of the
    gate-reduction rule "switched capacitance of the node is very small". *)

val merge_sc :
  Config.t ->
  ea:float ->
  eb:float ->
  mid_a:Geometry.Point.t ->
  mid_b:Geometry.Point.t ->
  enable_a:Enable.t ->
  enable_b:Enable.t ->
  float
(** Equation (3): the switched capacitance committed by merging two subtree
    roots — each new clock edge weighted by its child's signal probability
    (with the child's gate input capacitance as node load), plus each
    child's enable star wire (estimated from the controller to the middle
    of the child's merging sector) weighted by its transition
    probability. *)

val control_sc : Config.t -> mid:Geometry.Point.t -> ptr:float -> float
(** One child's enable star term of {!merge_sc}:
    [((c len) + C_g) Ptr w], with [len] the controller wire length from
    [mid] and [w] the control weight. *)

val merge_sc_columns :
  Config.t -> lengths:float array -> p:float array -> ctrl:float array -> int -> int -> float
(** [merge_sc_columns config ~lengths ~p ~ctrl a b] is {!merge_sc} with
    [ea = lengths.(0)], [eb = lengths.(1)], [P_a = p.(a)],
    [P_b = p.(b)] and the star terms [ctrl.(a)] and [ctrl.(b)] of
    {!control_sc} — bit for bit, through the same arithmetic, boxing no
    float on the way. The router's per-evaluation form. *)

val merge_sc_fixed : Config.t -> p:float -> ctrl:float -> float
(** [K(x) = C_g P(EN_x) + control(x)]: the part of one child's
    {!merge_sc} terms that does not depend on its partner (its gate input
    load weighted by [p], plus its enable star term [ctrl] from
    {!control_sc}). With [c] the unit wire capacitance, zero skew gives
    [ea + eb >= d(a,b)], so
    [merge_sc >= K(a) + K(b) + c min(P_a, P_b) d(a,b)] up to rounding —
    the bound the router's spatial index prunes with. *)
