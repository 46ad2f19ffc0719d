(* The merge core is exposed as a [forest] so the sharded router can
   drive the same cost/merge machinery per region and again over the
   region roots during stitching. *)
type forest = {
  config : Config.t;
  profile : Activity.Profile.t;
  sinks : Clocktree.Sink.t array;
  grow : Clocktree.Grow.t;
  enables : Enable.grown option array;
  (* Per-root columns, set when the root becomes active: P(EN) and the
     enable star term (Cost.control_sc), so Eq. (3) reads floats only,
     and the signature ([no_signature] if none), so p_union_batch
     gathers from one flat array. *)
  p : float array;
  ctrl : float array;
  sigs : Activity.Signature.t array;
  lengths : float array; (* ea, eb of the evaluation in progress *)
}

let no_signature = { Activity.Signature.hits = [||]; now = [||]; next = [||]; tog = [||] }

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
  let size = (2 * n) - 1 in
  {
    config;
    profile;
    sinks;
    grow;
    enables = Array.make size None;
    p = Array.make size 0.0;
    ctrl = Array.make size 0.0;
    sigs = Array.make size no_signature;
    lengths = [| 0.0; 0.0 |];
  }

let set_enable t v (g : Enable.grown) =
  t.enables.(v) <- Some g;
  t.sigs.(v) <- Option.value g.Enable.signature ~default:no_signature;
  let e = g.Enable.enable in
  t.p.(v) <- e.Enable.p;
  t.ctrl.(v) <-
    Cost.control_sc t.config ~mid:(Clocktree.Grow.center_point t.grow v) ~ptr:e.Enable.ptr

let forest config profile sinks =
  let t = bare config profile sinks in
  Array.iteri (set_enable t) (Enable.grow_sinks profile sinks);
  t

let grow t = t.grow

let grown t v =
  match t.enables.(v) with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "Router.enable: node %d has no enable" v)

let enable t v = (grown t v).Enable.enable

let adopt_enable = set_enable

let has_enable t v = ignore (grown t v : Enable.grown)

let cost t a b =
  Clocktree.Grow.peek_lengths t.grow a b t.lengths;
  has_enable t a;
  has_enable t b;
  Cost.merge_sc_columns t.config ~lengths:t.lengths ~p:t.p ~ctrl:t.ctrl a b

(* Activity_router's cost: the OR of the two roots' signatures when both
   carry one, a fresh Profile.p of the union otherwise. *)
let p_union t a b =
  let sa = t.sigs.(a) and sb = t.sigs.(b) in
  match Activity.Profile.signature_kernel t.profile with
  | Some kern when sa != no_signature && sb != no_signature ->
    Activity.Signature.p_union kern sa sb
  | _ ->
    Activity.Profile.p t.profile
      (Activity.Module_set.union (enable t a).Enable.mods (enable t b).Enable.mods)

(* The partners' signatures are gathered into a buffer allocated per
   call: batches run across domains (par_seed) and whole routes on
   sibling systhreads of one domain (the serve daemon's ground-truth
   checks), so a shared buffer would be clobbered mid-read. *)
let p_union_batch t v us cnt out =
  let sv = t.sigs.(v) in
  let partners = Array.make cnt sv and all = ref (sv != no_signature) in
  for i = 0 to cnt - 1 do
    let s = t.sigs.(us.(i)) in
    if s == no_signature then all := false;
    partners.(i) <- s
  done;
  match Activity.Profile.signature_kernel t.profile with
  | Some kern when !all -> Activity.Signature.p_union_batch kern sv ~n:cnt partners out
  | _ ->
    for i = 0 to cnt - 1 do
      out.(i) <- p_union t v us.(i)
    done

(* A consumed root's enable and signature are never read again: drop
   them so only the active roots' stay live. *)
let merge t a b =
  let k = Clocktree.Grow.merge t.grow a b in
  set_enable t k (Enable.grow_merge t.profile (grown t a) (grown t b));
  t.enables.(a) <- None;
  t.enables.(b) <- None;
  t.sigs.(a) <- no_signature;
  t.sigs.(b) <- no_signature;
  k

(* Eq. (3) through the spatial index. With K(x) = C_g·P_x + control(x)
   (Cost.merge_sc_fixed), zero skew gives e_a + e_b >= d(q,u), so
     cost q u >= K(q) + K(u) + c·min(P_q,P_u)·d(q,u),
   the cost-distance bound Spatial.cheapest prunes with (its 1e-9
   relative slack absorbs the rounding). *)
let source t =
  Clocktree.Spatial.source t.grow t.sinks
    ~k:(fun v ->
      has_enable t v;
      Cost.merge_sc_fixed t.config ~p:t.p.(v) ~ctrl:t.ctrl.(v))
    ~p:(fun v -> t.p.(v))
    ~c:t.config.Config.tech.Clocktree.Tech.unit_cap

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
