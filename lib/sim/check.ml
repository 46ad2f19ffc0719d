type comparison = {
  analytic_clock : float;
  simulated_clock : float;
  analytic_ctrl : float;
  simulated_ctrl : float;
  rel_error_clock : float;
  rel_error_ctrl : float;
}

let rel = Util.Tol.rel_error

let compare tree =
  let stream = Activity.Profile.stream tree.Gcr.Gated_tree.profile in
  let sim = Gate_sim.run tree stream in
  let analytic_clock = Gcr.Cost.w_clock tree in
  let analytic_ctrl = Gcr.Cost.w_ctrl tree in
  {
    analytic_clock;
    simulated_clock = sim.Gate_sim.clock_switched;
    analytic_ctrl;
    simulated_ctrl = sim.Gate_sim.ctrl_switched;
    rel_error_clock = rel analytic_clock sim.Gate_sim.clock_switched;
    rel_error_ctrl = rel analytic_ctrl sim.Gate_sim.ctrl_switched;
  }

let validate ?(tolerance = 1e-9) ?(structural = true) tree =
  if structural then Gcr.Verify.structural tree;
  let c = compare tree in
  (* Tol.close rather than a rel_error threshold so a NaN on either side
     is a mismatch, never a silent pass. *)
  if not (Util.Tol.close ~rel:tolerance c.analytic_clock c.simulated_clock) then
    Util.Gcr_error.mismatch ~stage:"Check.validate"
      "clock switched capacitance mismatch (analytic %.9g, simulated %.9g)"
      c.analytic_clock c.simulated_clock;
  if not (Util.Tol.close ~rel:tolerance c.analytic_ctrl c.simulated_ctrl) then
    Util.Gcr_error.mismatch ~stage:"Check.validate"
      "control switched capacitance mismatch (analytic %.9g, simulated %.9g)"
      c.analytic_ctrl c.simulated_ctrl

let pp ppf c =
  Format.fprintf ppf
    "clock: analytic %.3f vs simulated %.3f (rel %.2g); control: analytic %.3f vs \
     simulated %.3f (rel %.2g)"
    c.analytic_clock c.simulated_clock c.rel_error_clock c.analytic_ctrl
    c.simulated_ctrl c.rel_error_ctrl
