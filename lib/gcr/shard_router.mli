(** Sharded region-parallel gated-clock routing.

    The flat route answers each Eq. (3) query from a spatial index
    (~O(n log n) cost evaluations), but one forest still runs on one
    domain. This router trades a bounded amount of cost optimality for
    region parallelism:

    + {b Partition} the die into regions by recursive bisection
      ({!Clocktree.Partition}), cluster-aware when the sinks carry
      floorplan group labels (module ids);
    + {b Route} each region with the existing NN-heap greedy engine, in
      parallel on the {!Util.Parallel} Domains pool
      ({!Util.Parallel.map_dyn}, largest region first). Each region owns
      its own {!Router.forest} — arena, enables, scratch — so domains
      share nothing mutable;
    + {b Stitch}: replay every region's merge list into one global forest
      (a merge's split depends only on the two subtrees, so the replayed
      regions are exactly the trees the regions built; the replay is
      geometry only, and each region root adopts the enable and
      signature its region computed), then greedy-merge the surviving region roots with the
      same Eq. (3) cost — a top-level zero-skew merge meeting the same
      skew budget as a flat route, since skew is enforced by construction
      in {!Clocktree.Zskew}/{!Mseg}.

    Merges never cross a region boundary below the stitch, which is where
    the cost tolerance vs the flat route comes from (measured in
    EXPERIMENTS.md); zero skew is exact regardless. [shards = 1]
    reproduces the flat {!Router.route} bit-for-bit.

    Obs: spans [shard:partition]/[shard:route-regions]/[shard:stitch],
    counters [shard.regions], [shard.region_merge_steps],
    [shard.stitch_ns]. *)

type plan = {
  regions : int array array;
      (** global sink ids per region (ascending within a region) *)
  region_sinks : Clocktree.Sink.t array array;
      (** each region's sinks re-indexed to local ids [0..k-1] *)
  region_merges : (int * int) array array;
      (** each region's merge list in local ids, as its forest built it *)
  topo : Clocktree.Topo.t;  (** the stitched global topology *)
}

val auto_shards : n:int -> int
(** The shard count [--shards auto] resolves to: enough regions to keep a
    typical domain pool fed and regions near a target size (~1024 sinks),
    and 1 when the problem is too small to be worth splitting. A function
    of the sink count alone — never of the available domains — so the
    routed tree is identical whatever [GCR_DOMAINS] says. *)

val plan :
  ?shards:int ->
  ?domains:int ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  plan
(** Partition, route regions in parallel, stitch; returns the full plan
    (for conformance replay) including the final topology. [shards]
    defaults to {!auto_shards}; it is clamped to the sink count. Raises
    [Invalid_argument] on bad inputs ([shards < 1], mis-indexed sinks, a
    sink module outside the profile). *)

val route_topology :
  ?shards:int ->
  ?domains:int ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  Clocktree.Topo.t
(** Just the stitched topology. *)

val route :
  ?skew_budget:float ->
  ?shards:int ->
  ?domains:int ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  Gated_tree.t
(** The sharded counterpart of {!Router.route}: stitched topology, then
    the standard {!Gated_tree.build} (global enables, DME embedding,
    optional bounded skew) — so every {!Verify} invariant applies to the
    result exactly as to a flat route. *)
