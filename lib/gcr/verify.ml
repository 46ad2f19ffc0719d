(* Standalone structural verification of a gated tree, typed.

   The checks live in the gcr library so Flow's paranoid mode can run
   them between pipeline stages without a dependency cycle, and so a
   violation raises a classified Gcr_error (Engine_mismatch / Numerical)
   instead of a bare Failure. The simulator's Check.validate and the
   conformance fuzzer call them directly. *)

let fail invariant fmt =
  Printf.ksprintf
    (fun detail ->
      Util.Gcr_error.raise_t
        (Util.Gcr_error.Engine_mismatch { stage = "invariant:" ^ invariant; detail }))
    fmt

(* ------------------------------------------------------------------ *)
(* Finite-float guard                                                 *)
(* ------------------------------------------------------------------ *)

(* NaN propagates silently through the tolerance comparisons below (every
   comparison with NaN is false, so "skew > budget + tol" never fires), so
   every float the tree stores is asserted finite before anything else. *)
let finite (t : Gated_tree.t) =
  let stage = "invariant:finite" in
  let check context v = Util.Gcr_error.check_finite ~stage ~context v in
  let n = Clocktree.Topo.n_nodes t.Gated_tree.topo in
  for v = 0 to n - 1 do
    let loc = Clocktree.Embed.loc t.Gated_tree.embed v in
    check (Printf.sprintf "x coordinate of node %d" v) loc.Geometry.Point.x;
    check (Printf.sprintf "y coordinate of node %d" v) loc.Geometry.Point.y;
    check
      (Printf.sprintf "edge length of node %d" v)
      (Clocktree.Mseg.edge_len t.Gated_tree.embed.Clocktree.Embed.mseg v);
    check (Printf.sprintf "hardware scale of node %d" v) t.Gated_tree.scale.(v);
    let en = t.Gated_tree.enables.(v) in
    check (Printf.sprintf "P(EN) of node %d" v) en.Enable.p;
    check (Printf.sprintf "Ptr(EN) of node %d" v) en.Enable.ptr;
    let sh = t.Gated_tree.shared_enables.(v) in
    check (Printf.sprintf "shared P(EN) of node %d" v) sh.Enable.p;
    check (Printf.sprintf "shared Ptr(EN) of node %d" v) sh.Enable.ptr
  done;
  Array.iter
    (fun s -> check (Printf.sprintf "capacitance of sink %d" s.Clocktree.Sink.id)
        s.Clocktree.Sink.cap)
    t.Gated_tree.sinks;
  check "skew budget" t.Gated_tree.skew_budget;
  check "W(T)" (Cost.w_clock t);
  check "W(S)" (Cost.w_ctrl t)

(* ------------------------------------------------------------------ *)
(* Zero skew                                                          *)
(* ------------------------------------------------------------------ *)

let zero_skew ?embed (t : Gated_tree.t) =
  let embed = match embed with Some e -> e | None -> t.Gated_tree.embed in
  let r =
    Clocktree.Elmore.evaluate t.Gated_tree.config.Config.tech embed
      ~gate_on_edge:(Gated_tree.gate_on_edge t)
  in
  let budget = t.Gated_tree.skew_budget in
  if
    not
      (Util.Tol.within ~rel:1e-8 ~scale:r.Clocktree.Elmore.max_delay
         ~value:r.Clocktree.Elmore.skew ~bound:budget ())
  then
    fail "zero_skew"
      "independent Elmore recompute finds skew %.9g beyond the %.9g budget (max \
       delay %.9g over %d sinks)"
      r.Clocktree.Elmore.skew budget r.Clocktree.Elmore.max_delay
      (Array.length r.Clocktree.Elmore.sink_delay)

(* ------------------------------------------------------------------ *)
(* Enable consistency                                                 *)
(* ------------------------------------------------------------------ *)

let set_to_string s = Format.asprintf "%a" Activity.Module_set.pp s

let enable_consistency (t : Gated_tree.t) =
  let topo = t.Gated_tree.topo in
  let profile = t.Gated_tree.profile in
  let n_mods = Activity.Profile.n_modules profile in
  Clocktree.Topo.iter_bottom_up topo (fun v ->
      let en = t.Gated_tree.enables.(v) in
      let expected =
        match Clocktree.Topo.children topo v with
        | None ->
          Activity.Module_set.singleton n_mods
            t.Gated_tree.sinks.(v).Clocktree.Sink.module_id
        | Some (a, b) ->
          Activity.Module_set.union t.Gated_tree.enables.(a).Enable.mods
            t.Gated_tree.enables.(b).Enable.mods
      in
      if not (Activity.Module_set.equal en.Enable.mods expected) then
        fail "enable_consistency"
          "node %d: EN covers %s, but the OR of its descendants' activities is %s"
          v
          (set_to_string en.Enable.mods)
          (set_to_string expected);
      if not (en.Enable.p >= 0.0 && en.Enable.p <= 1.0) then
        fail "enable_consistency" "node %d: P(EN) = %.17g outside [0, 1]" v
          en.Enable.p;
      if not (en.Enable.ptr >= 0.0 && en.Enable.ptr <= 1.0) then
        fail "enable_consistency" "node %d: Ptr(EN) = %.17g outside [0, 1]" v
          en.Enable.ptr;
      (* Sampled profiles answer P/Ptr through the signature kernel during
         construction; a direct table scan must agree bit-for-bit. *)
      let p = Activity.Profile.p profile en.Enable.mods in
      if p <> en.Enable.p then
        fail "enable_consistency"
          "node %d: stored P(EN) = %.17g, direct table scan over %s gives %.17g" v
          en.Enable.p
          (set_to_string en.Enable.mods)
          p;
      let ptr = Activity.Profile.ptr profile en.Enable.mods in
      if ptr <> en.Enable.ptr then
        fail "enable_consistency"
          "node %d: stored Ptr(EN) = %.17g, direct table scan over %s gives %.17g"
          v en.Enable.ptr
          (set_to_string en.Enable.mods)
          ptr;
      (* a gate is on whenever a gate below it is *)
      match Clocktree.Topo.parent topo v with
      | Some p when t.Gated_tree.enables.(p).Enable.p +. 1e-12 < en.Enable.p ->
        fail "enable_consistency" "node %d: P(EN) = %.17g below its child %d's %.17g"
          p t.Gated_tree.enables.(p).Enable.p v en.Enable.p
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Governing chain                                                    *)
(* ------------------------------------------------------------------ *)

(* Nearest gated ancestor-or-self — the definition of the governing gate,
   recomputed by an explicit parent-chain walk per node. *)
let rec nearest_gated (t : Gated_tree.t) topo v =
  if t.Gated_tree.kind.(v) = Gated_tree.Gated then v
  else
    match Clocktree.Topo.parent topo v with
    | None -> -1
    | Some p -> nearest_gated t topo p

let governing_chain (t : Gated_tree.t) =
  let topo = t.Gated_tree.topo in
  let root = Clocktree.Topo.root topo in
  if t.Gated_tree.kind.(root) <> Gated_tree.Plain then
    fail "governing_chain" "root %d carries edge hardware" root;
  for v = 0 to Clocktree.Topo.n_nodes topo - 1 do
    let g = t.Gated_tree.governing.(v) in
    let expected = if v = root then -1 else nearest_gated t topo v in
    if g <> expected then
      fail "governing_chain"
        "governing(%d) = %d, but walking the ancestor chain finds %d" v g expected;
    if g <> -1 then begin
      if t.Gated_tree.kind.(g) <> Gated_tree.Gated then
        fail "governing_chain" "governing(%d) = %d is not a gated edge" v g;
      if not (Clocktree.Topo.is_ancestor topo g v) then
        fail "governing_chain" "governing(%d) = %d is not an ancestor of %d" v g v
    end
  done

(* ------------------------------------------------------------------ *)
(* Cost accounting                                                    *)
(* ------------------------------------------------------------------ *)

let cost_accounting (t : Gated_tree.t) =
  let topo = t.Gated_tree.topo in
  let root = Clocktree.Topo.root topo in
  let config = t.Gated_tree.config in
  let tech = config.Config.tech in
  let c = tech.Clocktree.Tech.unit_cap in
  let n = Clocktree.Topo.n_nodes topo in
  (* Everything below is re-derived from raw fields (kinds, scales, sink
     loads, wire lengths, enables) rather than through Gated_tree's and
     Cost's cached accessors. *)
  let input_cap v =
    match t.Gated_tree.kind.(v) with
    | Gated_tree.Plain -> 0.0
    | Gated_tree.Buffered ->
      tech.Clocktree.Tech.buffer.Clocktree.Tech.input_cap *. t.Gated_tree.scale.(v)
    | Gated_tree.Gated ->
      tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap
      *. t.Gated_tree.scale.(v)
  in
  let load v =
    match Clocktree.Topo.children topo v with
    | None -> t.Gated_tree.sinks.(v).Clocktree.Sink.cap
    | Some (a, b) -> input_cap a +. input_cap b
  in
  let edge_prob v =
    (* the clock on an edge follows the *shared* enable wired to its
       governing gate, forced free-running under an honored test_en *)
    let g = nearest_gated t topo v in
    if g = -1 then 1.0
    else if t.Gated_tree.test_en && t.Gated_tree.bypass.(g) then 1.0
    else t.Gated_tree.shared_enables.(g).Enable.p
  in
  let wt = Util.Kahan.create () in
  Util.Kahan.add wt (load root);
  for v = 0 to n - 1 do
    if v <> root then
      Util.Kahan.add wt
        (((c *. Clocktree.Embed.edge_len t.Gated_tree.embed v) +. load v)
         *. edge_prob v)
  done;
  let ws = Util.Kahan.create () in
  for v = 0 to n - 1 do
    if
      t.Gated_tree.kind.(v) = Gated_tree.Gated
      && not (t.Gated_tree.test_en && t.Gated_tree.bypass.(v))
    then begin
      let star =
        Controller.wire_length config.Config.controller
          (Clocktree.Embed.gate_location t.Gated_tree.embed v)
      in
      Util.Kahan.add ws
        (((c *. star) +. input_cap v)
         *. t.Gated_tree.shared_enables.(v).Enable.ptr
         *. config.Config.control_weight)
    end
  done;
  let close what expected reported =
    if not (Util.Tol.close ~rel:1e-9 expected reported) then
      fail "cost_accounting"
        "%s: library reports %.12g, independent per-edge recompute gives %.12g"
        what reported expected
  in
  let w_clock = Cost.w_clock t and w_ctrl = Cost.w_ctrl t in
  close "W(T)" (Util.Kahan.total wt) w_clock;
  close "W(S)" (Util.Kahan.total ws) w_ctrl;
  let w = Cost.w_total t in
  if w <> w_clock +. w_ctrl then
    fail "cost_accounting" "W = %.17g but W(T) + W(S) = %.17g" w (w_clock +. w_ctrl)

(* ------------------------------------------------------------------ *)
(* Gate sharing                                                       *)
(* ------------------------------------------------------------------ *)

let sharing (t : Gated_tree.t) =
  let topo = t.Gated_tree.topo in
  let n = Clocktree.Topo.n_nodes topo in
  let profile = t.Gated_tree.profile in
  match t.Gated_tree.sharing with
  | None ->
    (* no pass ran: the share structure must be the identity *)
    for v = 0 to n - 1 do
      if t.Gated_tree.share_rep.(v) <> v then
        fail "sharing" "share_rep(%d) = %d with no sharing recorded" v
          t.Gated_tree.share_rep.(v);
      let sh = t.Gated_tree.shared_enables.(v) and en = t.Gated_tree.enables.(v) in
      if
        not
          (Activity.Module_set.equal sh.Enable.mods en.Enable.mods
          && sh.Enable.p = en.Enable.p
          && sh.Enable.ptr = en.Enable.ptr)
      then fail "sharing" "node %d: shared enable differs with no sharing" v
    done
  | Some (min_instances, _eps) ->
    (* group structure: every representative is in range and its own
       representative, gates are grouped under gates, and any other node
       is its own group *)
    Array.iteri
      (fun v r ->
        if r < 0 || r >= n then
          fail "sharing" "share_rep(%d) = %d outside [0, %d)" v r n;
        if t.Gated_tree.share_rep.(r) <> r then
          fail "sharing" "share_rep(%d) = %d is not a representative" v r;
        if t.Gated_tree.kind.(v) = Gated_tree.Gated then begin
          if t.Gated_tree.kind.(r) <> Gated_tree.Gated then
            fail "sharing" "gate %d: representative %d is not a gate" v r
        end
        else if r <> v then
          fail "sharing" "non-gate %d in the share group of %d" v r)
      t.Gated_tree.share_rep;
    (* fanout floor: every surviving gate covers >= min_instances sinks *)
    let leaves = Array.make n 0 in
    Clocktree.Topo.iter_bottom_up topo (fun v ->
        match Clocktree.Topo.children topo v with
        | None -> leaves.(v) <- 1
        | Some (a, b) -> leaves.(v) <- leaves.(a) + leaves.(b));
    for v = 0 to n - 1 do
      if
        t.Gated_tree.kind.(v) = Gated_tree.Gated
        && leaves.(v) < min_instances
      then
        fail "sharing" "gate %d covers %d sinks, below the min_instances \
                        floor of %d" v leaves.(v) min_instances
    done;
    (* each group's shared enable covers exactly the union of its
       members' own module sets, with P/Ptr matching a direct profile
       query bit-for-bit *)
    let union = Array.make n None in
    for v = 0 to n - 1 do
      if t.Gated_tree.kind.(v) = Gated_tree.Gated then begin
        let r = t.Gated_tree.share_rep.(v) in
        let m = t.Gated_tree.enables.(v).Enable.mods in
        union.(r) <-
          (match union.(r) with
          | None -> Some m
          | Some u -> Some (Activity.Module_set.union u m))
      end
    done;
    for v = 0 to n - 1 do
      if t.Gated_tree.kind.(v) = Gated_tree.Gated then begin
        let r = t.Gated_tree.share_rep.(v) in
        let sh = t.Gated_tree.shared_enables.(v) in
        (match union.(r) with
        | Some u when Activity.Module_set.equal sh.Enable.mods u -> ()
        | Some u ->
          fail "sharing"
            "gate %d: shared enable covers %s, but its group's member \
             union is %s"
            v (set_to_string sh.Enable.mods) (set_to_string u)
        | None -> fail "sharing" "gate %d: representative %d has no group" v r);
        let p = Activity.Profile.p profile sh.Enable.mods in
        if p <> sh.Enable.p then
          fail "sharing"
            "gate %d: shared P(EN) = %.17g, direct table scan over %s gives \
             %.17g"
            v sh.Enable.p (set_to_string sh.Enable.mods) p;
        let ptr = Activity.Profile.ptr profile sh.Enable.mods in
        if ptr <> sh.Enable.ptr then
          fail "sharing"
            "gate %d: shared Ptr(EN) = %.17g, direct table scan over %s \
             gives %.17g"
            v sh.Enable.ptr (set_to_string sh.Enable.mods) ptr
      end
    done

let structural ?embed t =
  finite t;
  Clocktree.Embed.check_consistency t.Gated_tree.embed;
  governing_chain t;
  enable_consistency t;
  sharing t;
  cost_accounting t;
  zero_skew ?embed t
