let check_sink_modules profile sinks =
  let n_mods = Activity.Profile.n_modules profile in
  Array.iter
    (fun s ->
      let m = s.Clocktree.Sink.module_id in
      if m >= n_mods then
        invalid_arg
          (Printf.sprintf
             "Activity_router: sink module %d outside the %d-module profile" m n_mods))
    sinks

(* Sampled profiles route on instruction-hit signatures (Activity.Signature):
   each root carries the bitset of instructions that touch its subtree, a
   candidate's exact P(EN) is a word-wise OR plus a count-weighted popcount,
   and P's monotonicity under union (P(EN_{u∪v}) >= max(P_u, P_v)) gives
   Greedy.bound_scan an admissible per-root bound, so most candidates are
   dismissed before any probability is evaluated. Leaf signatures are
   independent, so they and the initial best-partner seedings run across
   domains (Util.Parallel); candidate chunks are costed through
   Signature.p_union_batch — one C kernel call and one packed-divide
   sweep per chunk instead of a boxed scalar call per candidate. *)
let signature_topology ~dense (config : Config.t) profile kern sinks =
  let tech = config.Config.tech in
  let n = Array.length sinks in
  let grow =
    Clocktree.Grow.create tech ~edge_gate:(Some tech.Clocktree.Tech.and_gate) sinks
  in
  let n_mods = Activity.Profile.n_modules profile in
  let size = (2 * n) - 1 in
  let sigs =
    Util.Parallel.init n (fun v ->
        Activity.Signature.of_set kern
          (Activity.Module_set.singleton n_mods sinks.(v).Clocktree.Sink.module_id))
  in
  let sigs = Array.append sigs (Array.init (n - 1) (fun _ -> sigs.(0))) in
  let p = Array.make size 0.0 in
  for v = 0 to n - 1 do
    p.(v) <- Activity.Signature.p kern sigs.(v)
  done;
  (* scale so the geometric tie-breaker cannot override an activity
     difference: probabilities differ by >= 1/B when they differ at all *)
  let tie = 1e-6 /. (1.0 +. Geometry.Bbox.width config.Config.die) in
  let cost a b =
    Activity.Signature.p_union kern sigs.(a) sigs.(b)
    +. (tie *. Clocktree.Grow.dist grow a b)
  in
  (* Batched [cost]: same probability (packed division is bit-identical
     per lane to the scalar divide) and the same `p +. tie *. dist`
     float expression, so the engine can mix both paths freely. *)
  let cost_many v us cnt out =
    (* The partner signatures are gathered into a buffer allocated per
       call. Reusing one in domain-local storage looks safe (the initial
       seedings run across domains under par_seed) but is not: whole
       routes also run concurrently on sibling systhreads of one domain
       (the serve daemon's in-process ground-truth checks), and a thread
       switch inside the batched kernel call lets another route clobber
       the shared buffer mid-read. One chunk-sized allocation per call
       is noise next to the kernel sweep it feeds. *)
    let b = Array.init cnt (fun i -> sigs.(us.(i))) in
    Activity.Signature.p_union_batch kern sigs.(v) ~n:cnt b out;
    for i = 0 to cnt - 1 do
      out.(i) <- out.(i) +. (tie *. Clocktree.Grow.dist grow v us.(i))
    done
  in
  let merge a b =
    let k = Clocktree.Grow.merge grow a b in
    sigs.(k) <- Activity.Signature.union sigs.(a) sigs.(b);
    p.(k) <- Activity.Signature.p kern sigs.(k);
    k
  in
  let _root =
    if dense then Clocktree.Greedy.merge_all_dense ~n ~cost ~merge
    else
      Clocktree.Greedy.merge_all_with ~par_seed:true ~cost_many
        (Clocktree.Greedy.bound_scan ~lower:(fun v -> p.(v)))
        ~n ~cost ~merge
  in
  Clocktree.Grow.topology grow

(* Profiles without a signature kernel (analytic, or tables-only) cost a
   candidate by a direct [Profile.p] of the union — an IFT scan or the
   closed-form Markov query — on the exhaustive scan source. *)
let direct_topology ~dense (config : Config.t) profile sinks =
  let tech = config.Config.tech in
  let n = Array.length sinks in
  let grow =
    Clocktree.Grow.create tech ~edge_gate:(Some tech.Clocktree.Tech.and_gate) sinks
  in
  let empty = Activity.Module_set.empty (Activity.Profile.n_modules profile) in
  let mods = Array.make ((2 * n) - 1) empty in
  for v = 0 to n - 1 do
    mods.(v) <- (Enable.of_sink profile sinks.(v)).Enable.mods
  done;
  let tie = 1e-6 /. (1.0 +. Geometry.Bbox.width config.Config.die) in
  let cost a b =
    Activity.Profile.p profile (Activity.Module_set.union mods.(a) mods.(b))
    +. (tie *. Clocktree.Grow.dist grow a b)
  in
  let merge a b =
    let k = Clocktree.Grow.merge grow a b in
    mods.(k) <- Activity.Module_set.union mods.(a) mods.(b);
    k
  in
  let _root =
    if dense then Clocktree.Greedy.merge_all_dense ~n ~cost ~merge
    else Clocktree.Greedy.merge_all ~n ~cost ~merge
  in
  Clocktree.Grow.topology grow

let build_topology ~dense config profile sinks =
  Clocktree.Sink.validate_array sinks;
  check_sink_modules profile sinks;
  match Activity.Profile.signature_kernel profile with
  | Some kern -> signature_topology ~dense config profile kern sinks
  | None -> direct_topology ~dense config profile sinks

let topology config profile sinks = build_topology ~dense:false config profile sinks

let topology_dense config profile sinks =
  build_topology ~dense:true config profile sinks

let route ?skew_budget config profile sinks =
  let topo = topology config profile sinks in
  Gated_tree.build ?skew_budget config profile sinks topo
    ~kind:(fun _ -> Gated_tree.Gated)
