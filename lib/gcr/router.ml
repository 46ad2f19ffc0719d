(* The merge core is exposed as a [forest] so the sharded router can
   drive the same cost/merge machinery per region and again over the
   region roots during stitching. *)
type forest = {
  config : Config.t;
  profile : Activity.Profile.t;
  sinks : Clocktree.Sink.t array;
  grow : Clocktree.Grow.t;
  enables : Enable.grown option array;
}

let bare (config : Config.t) profile sinks =
  Clocktree.Sink.validate_array sinks;
  let tech = config.Config.tech in
  let n = Array.length sinks in
  let grow =
    Clocktree.Grow.create tech
      ~edge_gate:(Some tech.Clocktree.Tech.and_gate)
      sinks
  in
  (* Enables grow alongside the forest: entry v is node v's enable. *)
  { config; profile; sinks; grow; enables = Array.make ((2 * n) - 1) None }

let forest config profile sinks =
  let t = bare config profile sinks in
  Array.iteri (fun v s -> t.enables.(v) <- Some (Enable.grow_sink profile s)) sinks;
  t

let grow t = t.grow

let grown t v =
  match t.enables.(v) with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "Router.enable: node %d has no enable" v)

let enable t v = (grown t v).Enable.enable

let adopt_enable t v e = t.enables.(v) <- Some (Enable.adopt e)

let cost t a b =
  let split = Clocktree.Grow.peek_split t.grow a b in
  Cost.merge_sc t.config ~ea:split.Clocktree.Zskew.ea ~eb:split.Clocktree.Zskew.eb
    ~mid_a:(Clocktree.Grow.center_point t.grow a)
    ~mid_b:(Clocktree.Grow.center_point t.grow b)
    ~enable_a:(enable t a) ~enable_b:(enable t b)

(* A consumed root's signature is never read again: drop it so only the
   active roots' signatures stay live. *)
let merge t a b =
  let k = Clocktree.Grow.merge t.grow a b in
  let ga = grown t a and gb = grown t b in
  t.enables.(k) <- Some (Enable.grow_merge t.profile ga gb);
  t.enables.(a) <- Some (Enable.adopt ga.Enable.enable);
  t.enables.(b) <- Some (Enable.adopt gb.Enable.enable);
  k

(* Eq. (3) through the spatial index. With K(x) = C_g·P_x + control(x)
   (Cost.merge_sc_fixed), zero skew gives e_a + e_b >= d(q,u), so
     cost q u >= K(q) + K(u) + c·min(P_q,P_u)·d(q,u),
   the cost-distance bound Spatial.cheapest prunes with (its 1e-9
   relative slack absorbs the rounding). Each root is indexed with its
   K and P once, when it becomes active; a query owns only partners
   u < q and calls [cost q u] in that order, with exact ties going to
   the lower active rank, so every answer is the scan source's. *)
let source t (view : Clocktree.Greedy.view) =
  let n = view.Clocktree.Greedy.n in
  let c = t.config.Config.tech.Clocktree.Tech.unit_cap in
  let idx = Clocktree.Spatial.for_sinks ~capacity:((2 * n) - 1) t.sinks in
  let activate v =
    let e = enable t v in
    Clocktree.Spatial.insert idx v (Clocktree.Grow.region t.grow v)
      ~k:(Cost.merge_sc_fixed t.config ~mid:(Clocktree.Grow.center_point t.grow v) ~enable:e)
      ~p:e.Enable.p
  in
  for v = 0 to n - 1 do
    activate v
  done;
  {
    Clocktree.Greedy.best =
      (fun q ->
        Clocktree.Spatial.cheapest idx q ~below:q ~c
          ~dist:(Clocktree.Grow.dist t.grow q)
          ~cost:(view.Clocktree.Greedy.cost q) ~rank:view.Clocktree.Greedy.rank);
    merged =
      (fun ~a ~b ~k ->
        Clocktree.Spatial.remove idx a;
        Clocktree.Spatial.remove idx b;
        activate k);
  }

let run t =
  let n = Clocktree.Grow.n_sinks t.grow in
  let cost a b = cost t a b and merge a b = merge t a b in
  ignore (Clocktree.Greedy.merge_all_with (source t) ~n ~cost ~merge : int)

let route_topology_only (config : Config.t) profile sinks =
  let f = forest config profile sinks in
  run f;
  Clocktree.Grow.topology f.grow

let route ?skew_budget config profile sinks =
  let topo = route_topology_only config profile sinks in
  Gated_tree.build ?skew_budget config profile sinks topo
    ~kind:(fun _ -> Gated_tree.Gated)
