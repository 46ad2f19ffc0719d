let build ~engine tech ~edge_gate sinks =
  let grow = Grow.create tech ~edge_gate sinks in
  let n = Array.length sinks in
  let cost a b = Grow.dist grow a b in
  let merge a b = Grow.merge grow a b in
  let root =
    match engine with
    | `Spatial ->
      (* A pure distance is the cost-distance bound with K = 0, P = 1 and
         c = 1 (p = 0 would make every bound 0 and prune nothing). *)
      let source = Spatial.source grow sinks ~k:(fun _ -> 0.0) ~p:(fun _ -> 1.0) ~c:1.0 in
      Greedy.merge_all_with source ~n ~cost ~merge
    | `Dense -> Greedy.merge_all_dense ~n ~cost ~merge
  in
  ignore root;
  Grow.topology grow

let topology tech ~edge_gate sinks = build ~engine:`Spatial tech ~edge_gate sinks

let topology_dense tech ~edge_gate sinks = build ~engine:`Dense tech ~edge_gate sinks

let embed tech ~edge_gate ~root_anchor sinks =
  let topo = topology tech ~edge_gate sinks in
  Embed.build tech topo ~sinks ~gate_on_edge:(fun _ -> edge_gate) ~root_anchor
