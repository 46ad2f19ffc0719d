(** Exact zero-skew merging under the Elmore delay model (Tsay, ICCAD'91),
    extended with optional masking gates / buffers at the head of each
    branch as in Section 4.1 of the gated-clock-routing paper.

    A branch is a subtree as seen from the merge point: its root-to-sink
    Elmore delay, its downstream capacitance, and an optional gate sitting
    at the head of the connecting wire (immediately below the new internal
    node). A gate decouples the subtree: the capacitance presented upward
    collapses to the gate's input capacitance, while the gate's intrinsic
    delay and drive resistance add to the branch delay. *)

type branch = {
  delay : float;  (** Elmore delay from the branch root to its sinks *)
  cap : float;  (** downstream capacitance at the branch root *)
  gate : Tech.gate option;  (** masking gate / buffer at the head of the edge *)
}

type side = No_snake | Snake_a | Snake_b

type split = {
  ea : float;  (** wire length allotted to branch a (>= 0) *)
  eb : float;  (** wire length allotted to branch b (>= 0) *)
  merged_delay : float;  (** equalized delay from the new node to all sinks *)
  merged_cap : float;  (** downstream capacitance at the new node *)
  snaked : side;  (** whether one side needed wire elongation *)
}

val branch_delay : Tech.t -> branch -> float -> float
(** [branch_delay tech b e]: Elmore delay from the new node through a wire
    of length [e] (plus the branch gate, if any) down to the sinks of [b].
    With a gate [g]: [g.intrinsic + g.drive * (c*e + cap) + r*e*(c*e/2 +
    cap) + delay]; without: [r*e*(c*e/2 + cap) + delay]. *)

val branch_head_cap : Tech.t -> branch -> float -> float
(** Capacitance the branch contributes at the new node: the gate input
    capacitance when gated, otherwise [c*e + cap]. *)

val delay_poly : Tech.t -> branch -> float * float * float
(** [(base, lin, quad)] such that {!branch_delay} [= base + lin*e +
    quad*e^2] — the polynomial view used by the bounded-skew extension. *)

val wire_for_delay : float * float * float -> float -> float
(** [wire_for_delay poly target] is the smallest wire length [e >= 0] with
    delay at least [target] (0 when already slower). Raises
    [Invalid_argument] when the polynomial cannot reach the target (zero
    wire parasitics). *)

val split : Tech.t -> branch -> branch -> dist:float -> split
(** Solve the zero-skew balance [branch_delay a ea = branch_delay b eb]
    with [ea + eb = dist] when the balance point lies inside the wire;
    otherwise snake: set the faster side's wire to the full distance plus a
    detour ([ea = 0] or [eb = 0] and the other side longer than [dist]).
    Guarantees [ea, eb >= 0], [ea + eb >= dist], and
    [|branch_delay a ea - branch_delay b eb| <= 1e-6 * (1 + merged_delay)].
    Raises [Invalid_argument] on a negative distance. *)

val lengths_into :
  Tech.t ->
  Tech.gate option ->
  delay:float array ->
  cap:float array ->
  int ->
  int ->
  dist:float ->
  float array ->
  unit
(** [lengths_into tech gate ~delay ~cap a b ~dist lengths] writes the
    [ea] and [eb] of {!split} for the branches
    [{ delay = delay.(a); cap = cap.(a); gate }] and
    [{ delay = delay.(b); cap = cap.(b); gate }] into [lengths.(0)] and
    [lengths.(1)], bit for bit, through the same arithmetic and without
    allocating: no branch record, coefficient tuple or split is built.
    Raises as {!split}. *)
