(* The gate-reduction passes in their direct form: every greedy step
   re-derives the governing gates, every domain's capacitance and every
   gate's gain over the whole tree (O(n) per removal, O(n^2) per pass),
   and the rule pass recurses for each gate's subtree capacitance. Slow
   and plainly correct; Gcr.Gate_reduction must pick the same gates. *)

open Gcr

type work = {
  tree : Gated_tree.t;
  kinds : Gated_tree.edge_kind array;
  mutable governing : int array;
}

let make_work tree =
  let kinds = Gated_tree.kinds_copy tree in
  { tree; kinds; governing = Gated_tree.compute_governing tree.Gated_tree.topo kinds }

let tech w = w.tree.Gated_tree.config.Config.tech

let gate_cap w = (tech w).Clocktree.Tech.and_gate.Clocktree.Tech.input_cap

let node_load w v =
  match Clocktree.Topo.children w.tree.Gated_tree.topo v with
  | None -> w.tree.Gated_tree.sinks.(v).Clocktree.Sink.cap
  | Some (a, b) ->
    let side c =
      match w.kinds.(c) with
      | Gated_tree.Plain -> 0.0
      | Gated_tree.Buffered -> (tech w).Clocktree.Tech.buffer.Clocktree.Tech.input_cap
      | Gated_tree.Gated -> gate_cap w
    in
    side a +. side b

let edge_cap w v =
  ((tech w).Clocktree.Tech.unit_cap
  *. Clocktree.Embed.edge_len w.tree.Gated_tree.embed v)
  +. node_load w v

let prob_of_gov w g = if g = -1 then 1.0 else w.tree.Gated_tree.enables.(g).Enable.p

let node_prob w v =
  if v = Clocktree.Topo.root w.tree.Gated_tree.topo then 1.0
  else prob_of_gov w w.governing.(v)

let domain_caps w =
  let topo = w.tree.Gated_tree.topo in
  let sums = Array.make (Clocktree.Topo.n_nodes topo) 0.0 in
  Clocktree.Topo.iter_bottom_up topo (fun v ->
      if v <> Clocktree.Topo.root topo then begin
        let g = w.governing.(v) in
        if g <> -1 then sums.(g) <- sums.(g) +. edge_cap w v
      end);
  sums

let removal_gain w domains v =
  let topo = w.tree.Gated_tree.topo in
  let parent =
    match Clocktree.Topo.parent topo v with
    | Some p -> p
    | None -> invalid_arg "Reduce_reference: the root has no gate"
  in
  let enable = w.tree.Gated_tree.enables.(v) in
  let p_after = node_prob w parent in
  let clock_increase = domains.(v) *. (p_after -. enable.Enable.p) in
  let cfg = w.tree.Gated_tree.config in
  let ctrl_len =
    Controller.wire_length cfg.Config.controller (Gated_tree.gate_location w.tree v)
  in
  let ctrl_saving =
    (((tech w).Clocktree.Tech.unit_cap *. ctrl_len) +. gate_cap w)
    *. enable.Enable.ptr *. cfg.Config.control_weight
  in
  let buffer_cap = (tech w).Clocktree.Tech.buffer.Clocktree.Tech.input_cap in
  let parent_load_saving = (gate_cap w -. buffer_cap) *. p_after in
  clock_increase -. ctrl_saving -. parent_load_saving

let gated_nodes w =
  let acc = ref [] in
  Clocktree.Topo.iter_bottom_up w.tree.Gated_tree.topo (fun v ->
      if w.kinds.(v) = Gated_tree.Gated then acc := v :: !acc);
  List.rev !acc

(* Remove the first minimum-gain gate in ascending id order;
   [unconditional] removes even when that gain is positive. Returns false
   when nothing (more) should be removed. *)
let remove_best w ~unconditional =
  let domains = domain_caps w in
  let best =
    List.fold_left
      (fun best v ->
        let gain = removal_gain w domains v in
        match best with
        | Some (_, g) when g <= gain -> best
        | _ -> Some (v, gain))
      None (gated_nodes w)
  in
  match best with
  | None -> false
  | Some (v, gain) ->
    if unconditional || gain < 0.0 then begin
      w.kinds.(v) <- Gated_tree.Buffered;
      w.governing <- Gated_tree.compute_governing w.tree.Gated_tree.topo w.kinds;
      true
    end
    else false

let greedy_kinds tree =
  let w = make_work tree in
  let rec loop () = if remove_best w ~unconditional:false then loop () in
  loop ();
  w.kinds

let count_kinds tree ~remove =
  let w = make_work tree in
  let rec loop k =
    if k > 0 && remove_best w ~unconditional:true then loop (k - 1)
  in
  loop remove;
  w.kinds

let rules_kinds ?(thresholds = Gate_reduction.default_thresholds) tree =
  let topo = tree.Gated_tree.topo in
  let root = Clocktree.Topo.root topo in
  let kinds = Gated_tree.kinds_copy tree in
  Clocktree.Topo.iter_bottom_up topo (fun v ->
      if kinds.(v) = Gated_tree.Gated then begin
        let p = tree.Gated_tree.enables.(v).Enable.p in
        let p_parent =
          match Clocktree.Topo.parent topo v with
          | None -> 1.0
          | Some parent ->
            if parent = root then 1.0 else tree.Gated_tree.enables.(parent).Enable.p
        in
        let rule1 = p >= thresholds.Gate_reduction.activity_high in
        let rule2 =
          Cost.subtree_switched_cap tree v <= thresholds.Gate_reduction.min_switched_cap
        in
        let rule3 = p_parent -. p <= thresholds.Gate_reduction.parent_delta in
        if rule1 || rule2 || rule3 then kinds.(v) <- Gated_tree.Buffered
      end);
  let tech = tree.Gated_tree.config.Config.tech in
  let cg = tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap in
  let limit = thresholds.Gate_reduction.force_cap_multiple *. cg in
  let w = { tree; kinds; governing = Gated_tree.compute_governing topo kinds } in
  let unmasked = Array.make (Clocktree.Topo.n_nodes topo) 0.0 in
  Clocktree.Topo.iter_top_down topo (fun v ->
      match Clocktree.Topo.parent topo v with
      | None -> unmasked.(v) <- 0.0
      | Some p ->
        if kinds.(v) = Gated_tree.Gated then unmasked.(v) <- 0.0
        else begin
          let acc = unmasked.(p) +. edge_cap w v in
          if Gated_tree.is_gated tree v && acc >= limit then begin
            kinds.(v) <- Gated_tree.Gated;
            unmasked.(v) <- 0.0
          end
          else unmasked.(v) <- acc
        end);
  kinds
