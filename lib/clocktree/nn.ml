let spatial_source grow sinks (view : Greedy.view) =
  let n = view.Greedy.n in
  let idx = Spatial.for_sinks ~capacity:((2 * n) - 1) sinks in
  for v = 0 to n - 1 do
    Spatial.insert idx v (Grow.region grow v)
  done;
  {
    (* Grow.dist is the region distance the index was built for, so the
       ring-pruning contract of Spatial.nearest holds exactly. *)
    Greedy.best = (fun v -> Spatial.nearest idx v ~dist:(view.Greedy.cost v));
    merged =
      (fun ~a ~b ~k ->
        Spatial.remove idx a;
        Spatial.remove idx b;
        Spatial.insert idx k (Grow.region grow k));
  }

let build ~engine tech ~edge_gate sinks =
  let grow = Grow.create tech ~edge_gate sinks in
  let n = Array.length sinks in
  let cost a b = Grow.dist grow a b in
  let merge a b = Grow.merge grow a b in
  let root =
    match engine with
    | `Spatial -> Greedy.merge_all_with (spatial_source grow sinks) ~n ~cost ~merge
    | `Dense -> Greedy.merge_all_dense ~n ~cost ~merge
  in
  ignore root;
  Grow.topology grow

let topology tech ~edge_gate sinks = build ~engine:`Spatial tech ~edge_gate sinks

let topology_dense tech ~edge_gate sinks = build ~engine:`Dense tech ~edge_gate sinks

let embed tech ~edge_gate ~root_anchor sinks =
  let topo = topology tech ~edge_gate sinks in
  Embed.build tech topo ~sinks ~gate_on_edge:(fun _ -> edge_gate) ~root_anchor
