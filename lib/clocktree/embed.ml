type t = { topo : Topo.t; mseg : Mseg.t }

let of_mseg topo (mseg : Mseg.t) ~root_anchor =
  Topo.iter_top_down topo (fun v ->
      let target =
        match Topo.parent topo v with
        | None -> Geometry.Rot.of_point root_anchor
        | Some p -> Geometry.Rot.of_point (Arena.loc mseg p)
      in
      Arena.set_loc mseg v
        (Geometry.Rot.to_point (Geometry.Rect.nearest_to (Arena.region mseg v) target)));
  { topo; mseg }

let build tech topo ~sinks ~gate_on_edge ~root_anchor =
  of_mseg topo (Mseg.build tech topo ~sinks ~gate_on_edge) ~root_anchor

let loc t v = Arena.loc t.mseg v

let edge_len t v = Mseg.edge_len t.mseg v

let total_wirelength t = Mseg.total_wirelength t.mseg

let copy t = { t with mseg = Mseg.copy t.mseg }

let gate_location t v =
  match Topo.parent t.topo v with None -> loc t v | Some p -> loc t p

let check_consistency t =
  let n = Topo.n_nodes t.topo in
  let fail fmt =
    Printf.ksprintf
      (fun detail ->
        Util.Gcr_error.raise_t
          (Util.Gcr_error.Engine_mismatch
             { stage = "Embed.check_consistency"; detail }))
      fmt
  in
  for v = 0 to n - 1 do
    let { Geometry.Point.x; y } = loc t v in
    (* A NaN coordinate passes every tolerance comparison below (NaN
       compares false), so finiteness is asserted first. *)
    if not (Float.is_finite x && Float.is_finite y) then
      Util.Gcr_error.numerical ~stage:"Embed.check_consistency"
        ~value:(if Float.is_finite x then y else x)
        "node %d has a non-finite coordinate (%g, %g)" v x y;
    Util.Gcr_error.check_finite ~stage:"Embed.check_consistency"
      ~context:(Printf.sprintf "edge length of node %d" v)
      (Mseg.edge_len t.mseg v);
    let region = Mseg.region t.mseg v in
    (* One ulp of a coordinate exceeds 1e-6 from |x| ~ 2^33 up, so the
       slack is a few ulps of |x| + |y| (the rotated coordinates' size). *)
    let eps =
      Float.max 1e-6 (8.0 *. epsilon_float *. (Float.abs x +. Float.abs y))
    in
    if not (Geometry.Rect.contains ~eps region (Geometry.Rot.of_point (loc t v)))
    then fail "node %d placed outside its region" v;
    match Topo.parent t.topo v with
    | None -> ()
    | Some p ->
      let lp = loc t p in
      let d = Geometry.Point.manhattan (loc t v) lp in
      let e = Mseg.edge_len t.mseg v in
      (* Mseg.merge_region recovers a float-hair intersection miss with
         slack relative to the merge distance, so a placement can overshoot
         the wire by an amount that scales with the coordinate magnitude,
         not with e (seen at e = 0 on large dies): that magnitude enters
         the tolerance as the [scale] term (1e-6 · 0.01·coord = the old
         1e-8·coord allowance). *)
      let coord_scale =
        Float.abs lp.Geometry.Point.x +. Float.abs lp.Geometry.Point.y
      in
      if
        not
          (Util.Tol.within ~rel:1e-6 ~scale:(0.01 *. coord_scale) ~value:d
             ~bound:e ())
      then fail "edge %d->%d spans %.9g but has wire %.9g" p v d e
  done
