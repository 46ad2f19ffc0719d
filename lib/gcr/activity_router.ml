(* The reference-[5] baseline is the paper's greedy merge with another
   cost, run on the same forest as Router: P(EN_a ∪ EN_b), the merged
   enable's probability, plus the merging-sector distance as a
   tie-breaker. With a signature kernel every root carries its
   instruction-hit signature, so a candidate's P is a word-wise OR plus a
   count-weighted popcount, and P's monotonicity under union
   (P(EN_{u∪v}) >= max(P_u, P_v)) gives Greedy.bound_scan an admissible
   per-root bound: most candidates are dismissed unevaluated, the rest
   are costed a chunk at a time through Signature.p_union_batch, and the
   initial best-partner seedings run across domains (Util.Parallel).
   Without a kernel (analytic or tables-only profiles) a candidate costs
   a direct Profile.p of the union, on the exhaustive scan. *)
let build ~dense (config : Config.t) profile sinks =
  let f = Router.forest config profile sinks in
  let grow = Router.grow f in
  (* scale so the geometric tie-breaker cannot override an activity
     difference: probabilities differ by >= 1/B when they differ at all *)
  let tie = 1e-6 /. (1.0 +. Geometry.Bbox.width config.Config.die) in
  let cost a b = Router.p_union f a b +. (tie *. Clocktree.Grow.dist grow a b) in
  (* The batched P is bit-identical per lane to the scalar one and the
     sum is the same float expression, so the engine mixes both freely. *)
  let cost_many v us cnt out =
    Router.p_union_batch f v us cnt out;
    for i = 0 to cnt - 1 do
      out.(i) <- out.(i) +. (tie *. Clocktree.Grow.dist grow v us.(i))
    done
  in
  let merge a b = Router.merge f a b in
  let n = Array.length sinks in
  let _root =
    if dense then Clocktree.Greedy.merge_all_dense ~n ~cost ~merge
    else
      match Activity.Profile.signature_kernel profile with
      | None -> Clocktree.Greedy.merge_all ~n ~cost ~merge
      | Some _ ->
        Clocktree.Greedy.merge_all_with ~par_seed:true ~cost_many
          (Clocktree.Greedy.bound_scan ~lower:(fun v -> (Router.enable f v).Enable.p))
          ~n ~cost ~merge
  in
  Clocktree.Grow.topology grow

let topology config profile sinks = build ~dense:false config profile sinks

let topology_dense config profile sinks = build ~dense:true config profile sinks

let route ?skew_budget config profile sinks =
  let topo = topology config profile sinks in
  Gated_tree.build ?skew_budget config profile sinks topo
    ~kind:(fun _ -> Gated_tree.Gated)
