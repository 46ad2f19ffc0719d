type edge_kind = Plain | Buffered | Gated

type t = {
  config : Config.t;
  profile : Activity.Profile.t;
  sinks : Clocktree.Sink.t array;
  topo : Clocktree.Topo.t;
  embed : Clocktree.Embed.t;
  enables : Enable.t array;
  kind : edge_kind array;
  governing : int array;
  skew_budget : float;
  scale : float array;  (* per-edge hardware size factor; 1.0 = unit *)
  share_rep : int array;  (* per node: its share group's representative *)
  shared_enables : Enable.t array;  (* per node: the enable wired to its gate *)
  sharing : (int * int) option;  (* (min_instances, eps) when Gate_share ran *)
  test_en : bool;  (* scan/test mode: bypassed gates forced transparent *)
  bypass : bool array;  (* per node: the gate honors test_en (all true) *)
}

let hardware (config : Config.t) = function
  | Plain -> None
  | Buffered -> Some config.Config.tech.Clocktree.Tech.buffer
  | Gated -> Some config.Config.tech.Clocktree.Tech.and_gate

let compute_governing topo kind =
  let n = Clocktree.Topo.n_nodes topo in
  let governing = Array.make n (-1) in
  Clocktree.Topo.iter_top_down topo (fun v ->
      match Clocktree.Topo.parent topo v with
      | None -> governing.(v) <- -1
      | Some p -> governing.(v) <- (if kind.(v) = Gated then v else governing.(p)));
  governing

let build_internal config profile sinks topo ~enables ~skew_budget ~scale ~kind =
  let n = Clocktree.Topo.n_nodes topo in
  let kind_arr =
    Array.init n (fun v -> if v = Clocktree.Topo.root topo then Plain else kind v)
  in
  let scale_arr = Array.init n scale in
  Array.iter
    (fun k ->
      if k <= 0.0 || not (Float.is_finite k) then
        invalid_arg "Gated_tree: non-positive hardware scale")
    scale_arr;
  let gate_on_edge v =
    match hardware config kind_arr.(v) with
    | None -> None
    | Some g ->
      if scale_arr.(v) = 1.0 then Some g
      else Some (Clocktree.Tech.scale_gate g scale_arr.(v))
  in
  let embed =
    if skew_budget > 0.0 then
      Clocktree.Bst.embed config.Config.tech topo ~sinks ~gate_on_edge
        ~budget:skew_budget ~root_anchor:config.Config.root_anchor
    else
      Clocktree.Embed.build config.Config.tech topo ~sinks ~gate_on_edge
        ~root_anchor:config.Config.root_anchor
  in
  {
    config;
    profile;
    sinks;
    topo;
    embed;
    enables;
    kind = kind_arr;
    governing = compute_governing topo kind_arr;
    skew_budget;
    scale = scale_arr;
    share_rep = Array.init n (fun v -> v);
    shared_enables = Array.copy enables;
    sharing = None;
    test_en = false;
    bypass = Array.make n true;
  }

let build ?(skew_budget = 0.0) ?(scale = fun _ -> 1.0) config profile sinks topo
    ~kind =
  Clocktree.Sink.validate_array sinks;
  if Array.length sinks <> Clocktree.Topo.n_sinks topo then
    invalid_arg "Gated_tree.build: sink count does not match topology";
  if skew_budget < 0.0 || not (Float.is_finite skew_budget) then
    invalid_arg "Gated_tree.build: negative skew budget";
  let enables = Enable.compute_all profile topo sinks in
  build_internal config profile sinks topo ~enables ~skew_budget ~scale ~kind

let rebuild_with_kinds t kinds =
  if Array.length kinds <> Clocktree.Topo.n_nodes t.topo then
    invalid_arg "Gated_tree.rebuild_with_kinds: kind array length mismatch";
  (* Topology and sinks are unchanged, so the enables carry over; only the
     embedding (zero-skew splits depend on the hardware) is redone. A new
     hardware assignment invalidates any share groups (their members may
     no longer be gates), so sharing resets to the identity — rerun
     Gate_share afterwards if wanted. Test mode carries over. *)
  let nt =
    build_internal t.config t.profile t.sinks t.topo ~enables:t.enables
      ~skew_budget:t.skew_budget ~scale:(fun v -> t.scale.(v))
      ~kind:(fun v -> kinds.(v))
  in
  { nt with test_en = t.test_en; bypass = Array.copy t.bypass }

let rebuild_with_scale t scale =
  if Array.length scale <> Clocktree.Topo.n_nodes t.topo then
    invalid_arg "Gated_tree.rebuild_with_scale: scale array length mismatch";
  (* Resizing touches neither the hardware assignment nor the enables, so
     share groups and test mode survive. *)
  let nt =
    build_internal t.config t.profile t.sinks t.topo ~enables:t.enables
      ~skew_budget:t.skew_budget ~scale:(fun v -> scale.(v))
      ~kind:(fun v -> t.kind.(v))
  in
  {
    nt with
    share_rep = Array.copy t.share_rep;
    shared_enables = Array.copy t.shared_enables;
    sharing = t.sharing;
    test_en = t.test_en;
    bypass = Array.copy t.bypass;
  }

let rebuild_with_sharing t ~kinds ~share_rep ~shared_enables ~min_instances
    ~eps =
  let n = Clocktree.Topo.n_nodes t.topo in
  if
    Array.length kinds <> n
    || Array.length share_rep <> n
    || Array.length shared_enables <> n
  then invalid_arg "Gated_tree.rebuild_with_sharing: array length mismatch";
  if min_instances < 0 || eps < 0 then
    invalid_arg "Gated_tree.rebuild_with_sharing: negative sharing parameter";
  let nt =
    build_internal t.config t.profile t.sinks t.topo ~enables:t.enables
      ~skew_budget:t.skew_budget ~scale:(fun v -> t.scale.(v))
      ~kind:(fun v -> kinds.(v))
  in
  {
    nt with
    share_rep = Array.copy share_rep;
    shared_enables = Array.copy shared_enables;
    sharing = Some (min_instances, eps);
    test_en = t.test_en;
    bypass = Array.copy t.bypass;
  }

(* A mode flip, not a rebuild: the hardware and embedding are what they
   are; test mode only changes which enable value the gates see. [bypass]
   is shared, not copied, so a stuck-bypass corruption injected on either
   view is visible through both. *)
let with_test_en t test_en = { t with test_en }

let gate_on_edge t v =
  match hardware t.config t.kind.(v) with
  | None -> None
  | Some g ->
    if t.scale.(v) = 1.0 then Some g
    else Some (Clocktree.Tech.scale_gate g t.scale.(v))

let edge_probability t v =
  let g = t.governing.(v) in
  if g = -1 then 1.0
  else if t.test_en && t.bypass.(g) then 1.0
  else t.shared_enables.(g).Enable.p

let node_probability t v =
  if v = Clocktree.Topo.root t.topo then 1.0 else edge_probability t v

let node_load t v =
  match Clocktree.Topo.children t.topo v with
  | None -> t.sinks.(v).Clocktree.Sink.cap
  | Some (a, b) ->
    let side c =
      match gate_on_edge t c with Some g -> g.Clocktree.Tech.input_cap | None -> 0.0
    in
    side a +. side b

let count k t = Array.fold_left (fun acc x -> if x = k then acc + 1 else acc) 0 t.kind

let gate_count t = count Gated t

let buffer_count t = count Buffered t

let gate_location t v = Clocktree.Embed.gate_location t.embed v

let is_gated t v = t.kind.(v) = Gated

let kinds_copy t = Array.copy t.kind
