let unit_cap (t : Gated_tree.t) = t.Gated_tree.config.Config.tech.Clocktree.Tech.unit_cap

let edge_switched_cap t v =
  if v = Clocktree.Topo.root t.Gated_tree.topo then 0.0
  else
    let wire = unit_cap t *. Clocktree.Embed.edge_len t.Gated_tree.embed v in
    (wire +. Gated_tree.node_load t v) *. Gated_tree.edge_probability t v

let w_clock t =
  let topo = t.Gated_tree.topo in
  let total = Util.Kahan.create () in
  Util.Kahan.add total (Gated_tree.node_load t (Clocktree.Topo.root topo));
  Clocktree.Topo.iter_bottom_up topo (fun v ->
      if v <> Clocktree.Topo.root topo then
        Util.Kahan.add total (edge_switched_cap t v));
  Util.Kahan.total total

let control_wire_length t v =
  if Gated_tree.is_gated t v then
    Controller.wire_length t.Gated_tree.config.Config.controller
      (Gated_tree.gate_location t v)
  else 0.0

let control_wirelength_total t =
  let total = Util.Kahan.create () in
  Clocktree.Topo.iter_bottom_up t.Gated_tree.topo (fun v ->
      Util.Kahan.add total (control_wire_length t v));
  Util.Kahan.total total

let clock_wirelength t = Clocktree.Embed.total_wirelength t.Gated_tree.embed

let gate_input_cap (t : Gated_tree.t) =
  t.Gated_tree.config.Config.tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap

let w_ctrl t =
  let weight = t.Gated_tree.config.Config.control_weight in
  let total = Util.Kahan.create () in
  Clocktree.Topo.iter_bottom_up t.Gated_tree.topo (fun v ->
      (* The star wire carries the gate's *shared* enable (after
         Gate_share several gates listen to one net); in test mode a
         bypassed gate's enable is forced high, so its star never
         toggles. *)
      if
        Gated_tree.is_gated t v
        && not (t.Gated_tree.test_en && t.Gated_tree.bypass.(v))
      then begin
        let cg =
          match Gated_tree.gate_on_edge t v with
          | Some g -> g.Clocktree.Tech.input_cap
          | None -> gate_input_cap t
        in
        let wire = unit_cap t *. control_wire_length t v in
        Util.Kahan.add total
          ((wire +. cg) *. t.Gated_tree.shared_enables.(v).Enable.ptr *. weight)
      end);
  Util.Kahan.total total

let w_total t = w_clock t +. w_ctrl t

let subtree_switched_cap t v =
  let rec go v =
    let below =
      match Clocktree.Topo.children t.Gated_tree.topo v with
      | None -> 0.0
      | Some (a, b) -> go a +. go b
    in
    edge_switched_cap t v +. below
  in
  go v

(* Eq. (3)'s terms, the one copy of its arithmetic. [merge_sc] and
   [merge_sc_columns] inline them, so the column form boxes no float and
   both sum in the order ((clock_a + clock_b) + ctrl_a) + ctrl_b. *)
let[@inline] wire_cap (config : Config.t) = config.Config.tech.Clocktree.Tech.unit_cap

let[@inline] gate_cap (config : Config.t) =
  config.Config.tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap

let[@inline] clock_term config ~len ~p = ((wire_cap config *. len) +. gate_cap config) *. p

let[@inline] eq3 ~clock_a ~clock_b ~ctrl_a ~ctrl_b = clock_a +. clock_b +. ctrl_a +. ctrl_b

let control_sc (config : Config.t) ~mid ~ptr =
  let len = Controller.wire_length config.Config.controller mid in
  ((wire_cap config *. len) +. gate_cap config) *. ptr *. config.Config.control_weight

let merge_sc config ~ea ~eb ~mid_a ~mid_b ~enable_a ~enable_b =
  eq3
    ~clock_a:(clock_term config ~len:ea ~p:enable_a.Enable.p)
    ~clock_b:(clock_term config ~len:eb ~p:enable_b.Enable.p)
    ~ctrl_a:(control_sc config ~mid:mid_a ~ptr:enable_a.Enable.ptr)
    ~ctrl_b:(control_sc config ~mid:mid_b ~ptr:enable_b.Enable.ptr)

let merge_sc_columns config ~(lengths : float array) ~(p : float array)
    ~(ctrl : float array) a b =
  eq3
    ~clock_a:(clock_term config ~len:lengths.(0) ~p:p.(a))
    ~clock_b:(clock_term config ~len:lengths.(1) ~p:p.(b))
    ~ctrl_a:ctrl.(a) ~ctrl_b:ctrl.(b)

let merge_sc_fixed config ~p ~ctrl = (gate_cap config *. p) +. ctrl
