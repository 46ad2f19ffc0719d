(** Cross-validation of the analytic cost model against cycle-accurate
    simulation.

    Because the router's probabilities come from tables built over the very
    stream being simulated, the analytic switched capacitance and the
    simulated one must agree to floating-point accuracy — a strong
    end-to-end invariant tying together the activity tables, the cost
    model, the governing-gate logic and the simulator. *)

type comparison = {
  analytic_clock : float;
  simulated_clock : float;
  analytic_ctrl : float;
  simulated_ctrl : float;
  rel_error_clock : float;
  rel_error_ctrl : float;
}

val compare : Gcr.Gated_tree.t -> comparison
(** Simulates the tree over its own profile's stream. *)

val validate : ?tolerance:float -> ?structural:bool -> Gcr.Gated_tree.t -> unit
(** Runs the {!Gcr.Verify.structural} checks (unless [structural] is
    [false]), then raises a typed {!Util.Gcr_error.Error}
    ([Engine_mismatch]) when the analytic and simulated capacitances
    disagree beyond relative [tolerance] (default 1e-9); a NaN on either
    side always mismatches. *)

val pp : Format.formatter -> comparison -> unit
