(* The merge core is exposed as a [forest] so the sharded router can
   drive the same cost/merge machinery per region and again over the
   region roots during stitching. *)
type forest = {
  config : Config.t;
  profile : Activity.Profile.t;
  grow : Clocktree.Grow.t;
  enables : Enable.t option array;
}

let forest (config : Config.t) profile sinks =
  Clocktree.Sink.validate_array sinks;
  let tech = config.Config.tech in
  let n = Array.length sinks in
  let grow =
    Clocktree.Grow.create tech
      ~edge_gate:(Some tech.Clocktree.Tech.and_gate)
      sinks
  in
  (* Enables grow alongside the forest: entry v is node v's enable. *)
  let enables = Array.make ((2 * n) - 1) None in
  for v = 0 to n - 1 do
    enables.(v) <- Some (Enable.of_sink profile sinks.(v))
  done;
  { config; profile; grow; enables }

let grow t = t.grow

let enable t v =
  match t.enables.(v) with Some e -> e | None -> assert false

let cost t a b =
  let split = Clocktree.Grow.peek_split t.grow a b in
  Cost.merge_sc t.config ~ea:split.Clocktree.Zskew.ea ~eb:split.Clocktree.Zskew.eb
    ~mid_a:(Clocktree.Grow.center_point t.grow a)
    ~mid_b:(Clocktree.Grow.center_point t.grow b)
    ~enable_a:(enable t a) ~enable_b:(enable t b)

let merge t a b =
  let k = Clocktree.Grow.merge t.grow a b in
  t.enables.(k) <- Some (Enable.merge t.profile (enable t a) (enable t b));
  k

(* Eq. (3) does admit a pairwise lower bound. With K(x) = C_g·P_x +
   control(x), the part of a root's cost that does not depend on its
   partner, zero skew gives e_a + e_b >= d(q,u), so
     cost q u >= K(q) + K(u) + c·min(P_q,P_u)·d(q,u).
   Nothing prunes with it yet: the scan-source engine costs every active
   partner, though with one heap entry per active root instead of an
   O(n^2)-entry pair heap. *)
let run t =
  let n = Clocktree.Grow.n_sinks t.grow in
  let cost a b = cost t a b and merge a b = merge t a b in
  ignore (Clocktree.Greedy.merge_all ~n ~cost ~merge : int)

let route_topology_only (config : Config.t) profile sinks =
  let f = forest config profile sinks in
  run f;
  Clocktree.Grow.topology f.grow

let route ?skew_budget config profile sinks =
  let topo = route_topology_only config profile sinks in
  Gated_tree.build ?skew_budget config profile sinks topo
    ~kind:(fun _ -> Gated_tree.Gated)
