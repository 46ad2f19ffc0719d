type branch = {
  dmin : float;
  dmax : float;
  cap : float;
  gate : Tech.gate option;
}

type split = {
  ea : float;
  eb : float;
  dmin : float;
  dmax : float;
  merged_cap : float;
  snaked : bool;
}

let eval (base, lin, quad) e = base +. (lin *. e) +. (quad *. e *. e)

(* Balance the interval midpoints exactly as the zero-skew solver balances
   point delays, then clamp into the wire; any interior balance point keeps
   the merged width at max(child widths), so snaking is only ever needed at
   a clamped boundary. *)
let split tech a b ~dist ~budget =
  if dist < 0.0 || not (Float.is_finite dist) then
    invalid_arg "Bst.split: negative or non-finite distance";
  if budget < 0.0 || not (Float.is_finite budget) then
    invalid_arg "Bst.split: negative or non-finite budget";
  let mid (br : branch) = (br.dmin +. br.dmax) /. 2.0 in
  let poly (br : branch) =
    Zskew.delay_poly tech { Zskew.delay = mid br; cap = br.cap; gate = br.gate }
  in
  let pa = poly a and pb = poly b in
  let a0, a1, q = pa in
  let b0, b1, _ = pb in
  let denom = a1 +. b1 +. (2.0 *. q *. dist) in
  let x =
    if denom <= 0.0 then if a0 <= b0 then dist else 0.0
    else (b0 -. a0 +. (b1 *. dist) +. (q *. dist *. dist)) /. denom
  in
  let x0 = Float.min dist (Float.max 0.0 x) in
  (* interval endpoints after the clamped split *)
  let shift_a = eval pa x0 -. mid a and shift_b = eval pb (dist -. x0) -. mid b in
  let lo_a = a.dmin +. shift_a and hi_a = a.dmax +. shift_a in
  let lo_b = b.dmin +. shift_b and hi_b = b.dmax +. shift_b in
  let head tech_branch e = Zskew.branch_head_cap tech tech_branch e in
  let zb (br : branch) = { Zskew.delay = 0.0; cap = br.cap; gate = br.gate } in
  let finish ea eb lo_a hi_a lo_b hi_b snaked =
    {
      ea;
      eb;
      dmin = Float.min lo_a lo_b;
      dmax = Float.max hi_a hi_b;
      merged_cap = head (zb a) ea +. head (zb b) eb;
      snaked;
    }
  in
  let width = Float.max hi_a hi_b -. Float.min lo_a lo_b in
  if width <= budget +. 1e-9 then finish x0 (dist -. x0) lo_a hi_a lo_b hi_b false
  else if hi_a <= hi_b then begin
    (* a is the early side: elongate its wire until the merged window fits *)
    let s = Float.max 0.0 (hi_b -. budget -. lo_a) in
    let ea = Zskew.wire_for_delay pa (eval pa x0 +. s) in
    finish ea (dist -. x0) (lo_a +. s) (hi_a +. s) lo_b hi_b true
  end
  else begin
    let s = Float.max 0.0 (hi_a -. budget -. lo_b) in
    let eb = Zskew.wire_for_delay pb (eval pb (dist -. x0) +. s) in
    finish x0 eb lo_a hi_a (lo_b +. s) (hi_b +. s) true
  end

let build tech topo ~sinks ~gate_on_edge ~budget =
  Sink.validate_array sinks;
  if Array.length sinks <> Topo.n_sinks topo then
    invalid_arg "Bst.build: sink count does not match topology";
  let n = Topo.n_nodes topo in
  let n_sinks = Topo.n_sinks topo in
  let t = Arena.create ~n_sinks in
  t.Arena.n_nodes <- n;
  let dmin = Array.make n 0.0 in
  let dmax = Array.make n 0.0 in
  Topo.iter_bottom_up topo (fun v ->
      (match Topo.parent topo v with
      | Some p -> t.Arena.parent.(v) <- p
      | None -> t.Arena.parent.(v) <- -1);
      match Topo.children topo v with
      | None ->
        Arena.set_region_point t v sinks.(v).Sink.loc;
        t.Arena.cap.(v) <- sinks.(v).Sink.cap
      | Some (a, b) ->
        t.Arena.left.(v) <- a;
        t.Arena.right.(v) <- b;
        let branch c =
          {
            dmin = dmin.(c);
            dmax = dmax.(c);
            cap = t.Arena.cap.(c);
            gate = gate_on_edge c;
          }
        in
        let dist = Arena.dist t a b in
        let s = split tech (branch a) (branch b) ~dist ~budget in
        t.Arena.edge_len.(a) <- s.ea;
        t.Arena.edge_len.(b) <- s.eb;
        if s.snaked then begin
          (* attribute the elongation to the stretched side *)
          if s.ea +. s.eb > dist +. 1e-9 then
            if s.ea > dist -. s.eb then Arena.set_snaked t a true
            else Arena.set_snaked t b true
        end;
        Arena.set_region t v
          (Mseg.merge_region (Arena.region t a) s.ea (Arena.region t b) s.eb dist);
        dmin.(v) <- s.dmin;
        dmax.(v) <- s.dmax;
        t.Arena.cap.(v) <- s.merged_cap;
        (* the arena's delay column carries the late (dmax) bound *)
        t.Arena.delay.(v) <- s.dmax);
  (t, dmin, dmax)

let embed tech topo ~sinks ~gate_on_edge ~budget ~root_anchor =
  let mseg, _, _ = build tech topo ~sinks ~gate_on_edge ~budget in
  Embed.of_mseg topo mseg ~root_anchor
