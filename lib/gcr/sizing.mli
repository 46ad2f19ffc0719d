(** Gate and buffer sizing.

    The paper notes that the masking gates "also serve as buffers and can
    be sized to adjust the phase delay of the clock signal". This pass
    assigns a per-edge transistor-width factor: a cell's drive resistance
    scales with 1/size while its input capacitance and area scale with
    size, so up-sizing a gate that drives a heavy subtree cuts its stage
    delay at the cost of presenting a bigger load (and area) upstream.

    The policy is load-proportional: size each cell to its downstream
    capacitance relative to a reference load, so every stage sees roughly
    the same drive-resistance x load product (uniform effective fanout).
    Sizes are computed once from the unsized embedding, then the tree is
    re-embedded (the zero-skew splits see the new caps/drives), which is
    sufficient in practice since sizing perturbs the wire loads only
    mildly. *)

val driver_load : Gated_tree.t -> int -> float
(** Capacitance the cell on the edge above the node drives: the edge wire
    plus the downstream capacitance at the node (from the current
    embedding). 0 for the root or an unhardwared edge. *)

val proportional :
  ?min_scale:float -> ?max_scale:float -> ?reference:float -> Gated_tree.t -> Gated_tree.t
(** Load-proportional sizing of every gate and buffer individually,
    clamped to [min_scale, max_scale] (defaults 0.5 and 8). [reference] is
    the load that keeps unit size; it defaults to the median driver load.

    {b Caveat} (measured; see the sizing ablation of [gcr bench]):
    under exact zero skew, heterogeneous drive strengths between sibling
    gates create delay offsets that only balancing wire can absorb, so
    naive per-gate sizing inflates wirelength and switched capacitance.
    Prefer {!tapered}, which keeps siblings homogeneous. Raises
    [Invalid_argument] on an inverted clamp range. *)

val tapered :
  ?min_scale:float -> ?max_scale:float -> ?reference:float -> Gated_tree.t -> Gated_tree.t
(** Classic tapered clock-tree sizing: one scale per tree level (the mean
    driver load of that level against [reference], default the mean of the
    level means), so siblings always share a drive strength and the
    zero-skew balance is undisturbed — upper levels get strong drivers,
    leaf levels small ones. Raises [Invalid_argument] on an inverted clamp
    range or non-positive reference. *)

val uniform : Gated_tree.t -> float -> Gated_tree.t
(** Scale every gate and buffer by the same factor (the simple knob for
    delay/area exploration). Raises [Invalid_argument] on a non-positive
    factor. *)
