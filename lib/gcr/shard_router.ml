(* Sharded region-parallel routing. See shard_router.mli. *)

let regions_counter = Util.Obs.counter "shard.regions"

let region_steps_counter = Util.Obs.counter "shard.region_merge_steps"

let stitch_ns_counter = Util.Obs.counter "shard.stitch_ns"

(* Region sizing: small enough that regions keep a domain pool fed, large
   enough that the stitch — whose merges cannot cross region boundaries —
   decides only a thin top layer of the tree. *)
let target_region = 1024

let min_split = 128

(* Deterministic in the problem alone: the routed tree must not depend
   on how many domains happen to be available (GCR_DOMAINS, machine
   size), so the region count never consults the pool — it just aims to
   keep a typical pool fed when the problem is large enough to split. *)
let min_parallel = 8

let auto_shards ~n =
  if n < 2 * min_split then 1
  else max 1 (min (n / min_split) (max min_parallel (n / target_region)))

let resolve_shards ?shards n =
  match shards with
  | None -> auto_shards ~n
  | Some s ->
    if s < 1 then
      invalid_arg (Printf.sprintf "Shard_router: shards %d must be positive" s);
    min s n

type plan = {
  regions : int array array;
  region_sinks : Clocktree.Sink.t array array;
  region_merges : (int * int) array array;
  topo : Clocktree.Topo.t;
}

(* Greedy-merge the region roots with the same Eq. (3) cost the regions
   used internally, through the same engine — ids are remapped so the
   engine sees a dense 0..r-1 problem over the surviving roots. *)
let stitch_roots forest roots =
  let r = Array.length roots in
  if r > 1 then begin
    let ids = Array.make ((2 * r) - 1) (-1) in
    Array.blit roots 0 ids 0 r;
    let next = ref r in
    let cost i j = Router.cost forest ids.(i) ids.(j) in
    let merge i j =
      let k = Router.merge forest ids.(i) ids.(j) in
      ids.(!next) <- k;
      let meta = !next in
      incr next;
      meta
    in
    ignore (Clocktree.Greedy.merge_all ~n:r ~cost ~merge)
  end

let plan ?shards ?domains (config : Config.t) profile sinks =
  Clocktree.Sink.validate_array sinks;
  let n = Array.length sinks in
  let domains_n =
    match domains with Some d -> max 1 d | None -> Util.Parallel.default_domains ()
  in
  let shards = resolve_shards ?shards n in
  (* The signature kernel is built lazily on first demand; force it here,
     once, before the fan-out — worker domains must only read it. *)
  ignore (Activity.Profile.signature_kernel profile);
  let regions =
    Util.Obs.span ~name:"shard:partition" (fun () ->
        let groups = Array.map (fun s -> s.Clocktree.Sink.module_id) sinks in
        Clocktree.Partition.bisect ~groups ~n_regions:shards sinks)
  in
  Util.Obs.add regions_counter (Array.length regions);
  let region_sinks = Array.map (Clocktree.Sink.subset sinks) regions in
  (* Each worker hands back its merge list and its root's enable with
     its signature (immutable, so safe to read once the pool joins). *)
  let routed =
    Util.Obs.span ~name:"shard:route-regions" (fun () ->
        Util.Parallel.map_dyn ~domains:domains_n
          ~weight:(fun ls -> Array.length ls * Array.length ls)
          (fun ls ->
            let f = Router.forest config profile ls in
            Router.run f;
            let g = Router.grow f in
            (Clocktree.Grow.merges g, Router.grown f (Clocktree.Grow.n_nodes g - 1)))
          region_sinks)
  in
  let region_merges = Array.map fst routed in
  Array.iter
    (fun ms -> Util.Obs.add region_steps_counter (Array.length ms))
    region_merges;
  let topo =
    Util.Obs.span ~name:"shard:stitch" (fun () ->
        let t0 = Util.Obs.Clock.now_ns () in
        let forest = Router.bare config profile sinks in
        (* Replay each region's merge list into the global forest. The
           zero-skew split of a merge depends only on the two subtrees
           being merged (their regions, delays, caps), so replaying the
           same merges over the same sinks rebuilds the same subtree the
           region router built — the global arena ends up holding every
           region tree side by side, children always created before
           parents. The replay is geometry only: no enable below a region
           root is ever read again, and each root adopts the enable and
           signature its region computed, bit for bit what replaying its
           merges through Router.merge would recompute over the same
           sinks — so the stitch merges OR signatures too. *)
        let grow = Router.grow forest in
        let roots =
          Array.map2
            (fun leaves merges ->
              Clocktree.Topo.replay ~leaves ~merges ~merge:(Clocktree.Grow.merge grow))
            regions region_merges
        in
        Array.iteri (fun i r -> Router.adopt_enable forest r (snd routed.(i))) roots;
        stitch_roots forest roots;
        let topo = Clocktree.Grow.topology (Router.grow forest) in
        Util.Obs.add stitch_ns_counter
          (Int64.to_int (Int64.sub (Util.Obs.Clock.now_ns ()) t0));
        topo)
  in
  { regions; region_sinks; region_merges; topo }

let route_topology ?shards ?domains config profile sinks =
  (plan ?shards ?domains config profile sinks).topo

let route ?skew_budget ?shards ?domains config profile sinks =
  let topo = route_topology ?shards ?domains config profile sinks in
  Gated_tree.build ?skew_budget config profile sinks topo
    ~kind:(fun _ -> Gated_tree.Gated)
