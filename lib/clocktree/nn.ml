(* A pure-distance cost is the cost-distance bound with K = 0, P = 1 and
   c = 1: each root is indexed with p = 1 (the default p = 0 would make
   every bound 0 and prune nothing), and the query is Grow.dist itself,
   so Spatial.cheapest's exactness contract holds with equality. As in
   Router.source, a query owns the partners u < q and ties go to the
   lower active rank: every answer is the scan source's. *)
let source grow sinks (view : Greedy.view) =
  let n = view.Greedy.n in
  let idx = Spatial.for_sinks ~capacity:((2 * n) - 1) sinks in
  let activate v = Spatial.insert idx v (Grow.region grow v) ~k:0.0 ~p:1.0 in
  for v = 0 to n - 1 do
    activate v
  done;
  {
    Greedy.best =
      (fun q ->
        Spatial.cheapest idx q ~below:q ~c:1.0 ~dist:(Grow.dist grow q)
          ~cost:(view.Greedy.cost q) ~rank:view.Greedy.rank);
    merged =
      (fun ~a ~b ~k ->
        Spatial.remove idx a;
        Spatial.remove idx b;
        activate k);
  }

let build ~engine tech ~edge_gate sinks =
  let grow = Grow.create tech ~edge_gate sinks in
  let n = Array.length sinks in
  let cost a b = Grow.dist grow a b in
  let merge a b = Grow.merge grow a b in
  let root =
    match engine with
    | `Spatial -> Greedy.merge_all_with (source grow sinks) ~n ~cost ~merge
    | `Dense -> Greedy.merge_all_dense ~n ~cost ~merge
  in
  ignore root;
  Grow.topology grow

let topology tech ~edge_gate sinks = build ~engine:`Spatial tech ~edge_gate sinks

let topology_dense tech ~edge_gate sinks = build ~engine:`Dense tech ~edge_gate sinks

let embed tech ~edge_gate ~root_anchor sinks =
  let topo = topology tech ~edge_gate sinks in
  Embed.build tech topo ~sinks ~gate_on_edge:(fun _ -> edge_gate) ~root_anchor
