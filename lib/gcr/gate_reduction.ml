type thresholds = {
  activity_high : float;
  min_switched_cap : float;
  parent_delta : float;
  force_cap_multiple : float;
}

let default_thresholds =
  {
    activity_high = 0.95;
    min_switched_cap = 40.0;
    parent_delta = 0.02;
    force_cap_multiple = 10.0;
  }

(* ------------------------------------------------------------------ *)
(* Working state: the original (fully gated) tree supplies geometry    *)
(* and enables; only the [kinds] array evolves during the search. Wire *)
(* lengths are taken from the original embedding — an estimate, since   *)
(* removing a gate re-balances the zero-skew splits slightly; the final *)
(* assignment is re-embedded exactly.                                   *)
(* ------------------------------------------------------------------ *)

type work = {
  tree : Gated_tree.t;
  kinds : Gated_tree.edge_kind array;
  governing : int array;
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

(* c * |e_v| + load at v: the capacitance that toggles with the edge above v. *)
let edge_cap w v =
  ((tech w).Clocktree.Tech.unit_cap
  *. Clocktree.Embed.edge_len w.tree.Gated_tree.embed v)
  +. node_load w v

let prob_of_gov w g = if g = -1 then 1.0 else w.tree.Gated_tree.enables.(g).Enable.p

(* Probability that node v's own net toggles (the edge above it, or 1 at
   the root). *)
let node_prob w v =
  if v = Clocktree.Topo.root w.tree.Gated_tree.topo then 1.0
  else prob_of_gov w w.governing.(v)

(* [domain] is the summed edge_cap of every edge [v] governs. *)
let removal_gain_work w domain v =
  let topo = w.tree.Gated_tree.topo in
  let parent =
    match Clocktree.Topo.parent topo v with
    | Some p -> p
    | None -> invalid_arg "Gate_reduction: the root has no gate"
  in
  let enable = w.tree.Gated_tree.enables.(v) in
  let p_after = node_prob w parent in
  let clock_increase = domain *. (p_after -. enable.Enable.p) in
  let cfg = w.tree.Gated_tree.config in
  let ctrl_len =
    Controller.wire_length cfg.Config.controller (Gated_tree.gate_location w.tree v)
  in
  let ctrl_saving =
    (((tech w).Clocktree.Tech.unit_cap *. ctrl_len) +. gate_cap w)
    *. enable.Enable.ptr *. cfg.Config.control_weight
  in
  (* the gate's input cap is replaced by the (smaller) buffer's *)
  let buffer_cap = (tech w).Clocktree.Tech.buffer.Clocktree.Tech.input_cap in
  let parent_load_saving = (gate_cap w -. buffer_cap) *. p_after in
  clock_increase -. ctrl_saving -. parent_load_saving

(* ------------------------------------------------------------------ *)
(* Greedy removal with neighbourhood updates                          *)
(* ------------------------------------------------------------------ *)

(* Every gated node keyed by its current gain; the minimum is the gate to
   remove next, and among bit-equal gains the lowest id. *)
module Gains = Set.Make (struct
  type t = float * int

  let compare (ga, a) (gb, b) =
    match Float.compare ga gb with 0 -> Int.compare a b | c -> c
end)

let removals_counter = Util.Obs.counter "reduce.removals"

let gain_updates_counter = Util.Obs.counter "reduce.gain_updates"

let sum_terms_counter = Util.Obs.counter "reduce.sum_terms"

(* [ecap]: edge_cap of every node under the current kinds. [members]:
   per gate, the nodes it governs in ascending id, itself included.
   [domain]: per gate, [ecap] summed over [members] in that order.
   [gain]: per gated node, its key in [gains]. *)
type pass = {
  w : work;
  ecap : float array;
  members : int array array;
  domain : float array;
  gain : float array;
  mutable gains : Gains.t;
  mutable removals : int;
  mutable updates : int;
  mutable terms : int;
}

(* The left fold from 0.0 in ascending id order: the association every
   other sum of this domain used, so equal domains give bit-equal gains. *)
let sum_domain p g =
  let m = p.members.(g) in
  let s = ref 0.0 in
  for i = 0 to Array.length m - 1 do
    s := !s +. p.ecap.(m.(i))
  done;
  p.terms <- p.terms + Array.length m;
  p.domain.(g) <- !s

let rekey p u =
  p.gains <- Gains.remove (p.gain.(u), u) p.gains;
  let gain = removal_gain_work p.w p.domain.(u) u in
  p.gain.(u) <- gain;
  p.gains <- Gains.add (gain, u) p.gains;
  p.updates <- p.updates + 1

let start tree =
  let w = make_work tree in
  let topo = tree.Gated_tree.topo in
  let n = Clocktree.Topo.n_nodes topo in
  let root = Clocktree.Topo.root topo in
  let ecap = Array.make n 0.0 in
  let sizes = Array.make n 0 in
  for v = 0 to n - 1 do
    if v <> root then begin
      ecap.(v) <- edge_cap w v;
      let g = w.governing.(v) in
      if g <> -1 then sizes.(g) <- sizes.(g) + 1
    end
  done;
  let members = Array.map (fun k -> Array.make k 0) sizes in
  Array.fill sizes 0 n 0;
  for v = 0 to n - 1 do
    let g = w.governing.(v) in
    if v <> root && g <> -1 then begin
      members.(g).(sizes.(g)) <- v;
      sizes.(g) <- sizes.(g) + 1
    end
  done;
  let p =
    {
      w;
      ecap;
      members;
      domain = Array.make n 0.0;
      gain = Array.make n 0.0;
      gains = Gains.empty;
      removals = 0;
      updates = 0;
      terms = 0;
    }
  in
  for v = 0 to n - 1 do
    if w.kinds.(v) = Gated_tree.Gated then begin
      sum_domain p v;
      let gain = removal_gain_work w p.domain.(v) v in
      p.gain.(v) <- gain;
      p.gains <- Gains.add (gain, v) p.gains
    end
  done;
  p

let removal_gain tree v =
  if not (Gated_tree.is_gated tree v) then
    invalid_arg "Gate_reduction.removal_gain: edge is not gated";
  (start tree).gain.(v)

let merge_ascending a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let i = ref 0 and j = ref 0 in
  for k = 0 to na + nb - 1 do
    if !j >= nb || (!i < na && a.(!i) < b.(!j)) then begin
      out.(k) <- a.(!i);
      incr i
    end
    else begin
      out.(k) <- b.(!j);
      incr j
    end
  done;
  out

let remove_gate p v =
  (* "Removal" ties the gate's enable high: electrically the cell becomes a
     plain buffer (same drive and intrinsic delay, half the input
     capacitance), the control star wire disappears, and the masking
     coarsens to the enclosing gate. Keeping a buffer in place means the
     zero-skew balance is barely disturbed, unlike tearing the cell out. *)
  let w = p.w in
  let topo = w.tree.Gated_tree.topo in
  p.gains <- Gains.remove (p.gain.(v), v) p.gains;
  w.kinds.(v) <- Gated_tree.Buffered;
  p.removals <- p.removals + 1;
  let parent = Option.get (Clocktree.Topo.parent topo v) in
  (* the parent's load now sees a buffer input instead of a gate input *)
  if parent <> Clocktree.Topo.root topo then p.ecap.(parent) <- edge_cap w parent;
  (* v's domain falls back to the gate governing its parent (none above
     the topmost gates) *)
  let g = w.governing.(parent) in
  let moved = p.members.(v) in
  p.members.(v) <- [||];
  Array.iter (fun m -> w.governing.(m) <- g) moved;
  if g <> -1 then begin
    p.members.(g) <- merge_ascending p.members.(g) moved;
    sum_domain p g;
    rekey p g
  end;
  (* gates hanging off the moved nodes now fall back to g's probability *)
  Array.iter
    (fun m ->
      match Clocktree.Topo.children topo m with
      | None -> ()
      | Some (a, b) ->
        if w.kinds.(a) = Gated_tree.Gated then rekey p a;
        if w.kinds.(b) = Gated_tree.Gated then rekey p b)
    moved

(* Remove up to [limit] gates in ascending (gain, id) order; unless
   [unconditional], stop at the first gate whose removal would not lower
   the estimate. *)
let reduce_pass tree ~unconditional ~limit =
  let p = start tree in
  let rec loop k =
    if k > 0 then
      match Gains.min_elt_opt p.gains with
      | Some (gain, v) when unconditional || gain < 0.0 ->
        remove_gate p v;
        loop (k - 1)
      | _ -> ()
  in
  loop limit;
  Util.Obs.add removals_counter p.removals;
  Util.Obs.add gain_updates_counter p.updates;
  Util.Obs.add sum_terms_counter p.terms;
  Gated_tree.rebuild_with_kinds tree p.w.kinds

let reduce_greedy tree = reduce_pass tree ~unconditional:false ~limit:max_int

let reduce_count tree ~remove = reduce_pass tree ~unconditional:true ~limit:remove

let reduce_fraction tree ~fraction =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Gate_reduction.reduce_fraction: fraction outside [0,1]";
  let remove =
    int_of_float (Float.round (fraction *. float_of_int (Gated_tree.gate_count tree)))
  in
  reduce_count tree ~remove

(* ------------------------------------------------------------------ *)
(* Exact DP over gate placements                                      *)
(* ------------------------------------------------------------------ *)

(* Cost of the subtree hanging on the edge above [v], given that the
   clock net at parent(v) toggles with probability [q] (the enable of the
   lowest gated strict ancestor, or 1 under the root). The cell's input
   capacitance sits at the parent node, so it toggles at [q]; the wire of
   the edge and the loads at [v] toggle at the edge's own probability
   (p_v if we gate here, q if we demote to a buffer); children recurse
   with that probability as their context. *)
let reduce_optimal tree =
  let topo = tree.Gated_tree.topo in
  let tech = tree.Gated_tree.config.Config.tech in
  let c = tech.Clocktree.Tech.unit_cap in
  let cg = tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap in
  let cb = tech.Clocktree.Tech.buffer.Clocktree.Tech.input_cap in
  let cw = tree.Gated_tree.config.Config.control_weight in
  let leaf_load v =
    match Clocktree.Topo.children topo v with
    | None -> tree.Gated_tree.sinks.(v).Clocktree.Sink.cap
    | Some _ -> 0.0
  in
  let wire v = c *. Clocktree.Embed.edge_len tree.Gated_tree.embed v in
  let ctrl v =
    let len =
      Controller.wire_length tree.Gated_tree.config.Config.controller
        (Gated_tree.gate_location tree v)
    in
    ((c *. len) +. cg) *. tree.Gated_tree.enables.(v).Enable.ptr *. cw
  in
  (* memo over (node, context probability); the context takes one of the
     O(depth) ancestor enable values, so this stays O(N * depth) *)
  let memo : (int * float, float * bool) Hashtbl.t = Hashtbl.create 1024 in
  let rec best v q =
    match Hashtbl.find_opt memo (v, q) with
    | Some r -> r
    | None ->
      let children_cost p =
        match Clocktree.Topo.children topo v with
        | None -> 0.0
        | Some (a, b) -> fst (best a p) +. fst (best b p)
      in
      let p_v = tree.Gated_tree.enables.(v).Enable.p in
      let gated =
        (cg *. q) +. ctrl v
        +. ((wire v +. leaf_load v) *. p_v)
        +. children_cost p_v
      in
      let buffered =
        (cb *. q) +. ((wire v +. leaf_load v) *. q) +. children_cost q
      in
      let r = if gated <= buffered then (gated, true) else (buffered, false) in
      Hashtbl.add memo (v, q) r;
      r
  in
  let kinds = Gated_tree.kinds_copy tree in
  let rec assign v q =
    let _, gate_here = best v q in
    kinds.(v) <- (if gate_here then Gated_tree.Gated else Gated_tree.Buffered);
    let p_next = if gate_here then tree.Gated_tree.enables.(v).Enable.p else q in
    match Clocktree.Topo.children topo v with
    | None -> ()
    | Some (a, b) ->
      assign a p_next;
      assign b p_next
  in
  let root = Clocktree.Topo.root topo in
  kinds.(root) <- Gated_tree.Plain;
  (match Clocktree.Topo.children topo root with
  | None -> ()
  | Some (a, b) ->
    assign a 1.0;
    assign b 1.0);
  Gated_tree.rebuild_with_kinds tree kinds

(* ------------------------------------------------------------------ *)
(* Rule-based pass                                                    *)
(* ------------------------------------------------------------------ *)

let reduce_rules ?(thresholds = default_thresholds) tree =
  let topo = tree.Gated_tree.topo in
  let root = Clocktree.Topo.root topo in
  let kinds = Gated_tree.kinds_copy tree in
  (* Every subtree's switched capacitance in one bottom-up sweep, with
     the association of Cost.subtree_switched_cap's recursion. *)
  let subtree = Array.make (Clocktree.Topo.n_nodes topo) 0.0 in
  Clocktree.Topo.iter_bottom_up topo (fun v ->
      let below =
        match Clocktree.Topo.children topo v with
        | None -> 0.0
        | Some (a, b) -> subtree.(a) +. subtree.(b)
      in
      subtree.(v) <- Cost.edge_switched_cap tree v +. below);
  (* Rules 1-3, judged on the fully gated tree. *)
  Clocktree.Topo.iter_bottom_up topo (fun v ->
      if kinds.(v) = Gated_tree.Gated then begin
        let p = tree.Gated_tree.enables.(v).Enable.p in
        let p_parent =
          match Clocktree.Topo.parent topo v with
          | None -> 1.0
          | Some parent ->
            if parent = root then 1.0 else tree.Gated_tree.enables.(parent).Enable.p
        in
        let rule1 = p >= thresholds.activity_high in
        let rule2 = subtree.(v) <= thresholds.min_switched_cap in
        let rule3 = p_parent -. p <= thresholds.parent_delta in
        if rule1 || rule2 || rule3 then kinds.(v) <- Gated_tree.Buffered
      end);
  (* Forced insertion: cap the capacitance accumulated since the enclosing
     gate so the removals cannot let the phase delay grow unchecked. *)
  let tech = tree.Gated_tree.config.Config.tech in
  let cg = tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap in
  let limit = thresholds.force_cap_multiple *. cg in
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
  Gated_tree.rebuild_with_kinds tree kinds
