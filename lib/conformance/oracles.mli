(** Differential oracles: two independent implementations of the same
    quantity, run on one scenario and compared.

    Each oracle raises [Util.Gcr_error.Error] with an [Engine_mismatch]
    whose stage names the oracle and whose detail describes the first
    disagreement; {!Fuzz} runs them (together with
    {!Gcr.Verify.structural}) on every scenario. *)

val same_tree : what:string -> Gcr.Gated_tree.t -> Gcr.Gated_tree.t -> unit
(** Bit-for-bit structural identity of two gated trees built over the
    same sinks: topology, hardware kinds, size factors, governing gates,
    enable sets and probabilities, embedded locations, edge lengths and
    skew budget. Exact float equality — used where determinism is the
    claim, not accuracy. *)

val analytic_vs_simulated : Gcr.Gated_tree.t -> unit
(** {!Gsim.Gate_sim.run} replay of the tree's own stream vs. the analytic
    {!Gcr.Cost} model (IFT/IMATT tables): both switched-capacitance
    averages must agree to 1e-9 relative. *)

val test_mode_bypass : Gcr.Gated_tree.t -> Activity.Instr_stream.t -> unit
(** Forces [test_en] on ({!Gcr.Gated_tree.with_test_en}) and replays the
    stream through {!Gsim.Gate_sim.clock_waveforms}: every edge must see
    the clock on every cycle — bit-for-bit the waveform of the ungated
    tree. Catches mis-shared enables that leak into test mode and stuck
    bypass bits. *)

val signature_vs_tables : Gcr.Gated_tree.t -> unit
(** The {!Activity.Signature} kernel vs. direct {!Activity.Ift.p_any} /
    {!Activity.Imatt.ptr} table scans, on every node's enable set and on
    every internal node's child-set union ([p_union]/[ptr_union], the
    greedy fast path). Exact equality — the kernel documents bit-for-bit
    agreement. Fails when a sampled profile has no kernel: the check
    rejected a correct one. No-op on analytic profiles (no tables). *)

val greedy_optimal :
  what:string ->
  Gcr.Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  Clocktree.Topo.t ->
  unit
(** Per-step greedy optimality of one merge engine's output: the
    topology's merge sequence (ascending internal-node ids) is replayed
    and every chosen pair must achieve the exact brute-force minimum of
    the activity-merge cost over the roots active at that step. Any
    min-achieving choice passes, so the exact cost ties on which the
    engines legally diverge cannot produce false alarms. No-op on
    profiles without a signature kernel. *)

val sharded_regions_optimal :
  ?shards:int ->
  Gcr.Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  unit
(** Per-region counterpart of {!greedy_optimal} for the sharded router:
    builds a {!Gcr.Shard_router.plan} and requires every region's merge
    list to be greedy-optimal — under the router's own Eq. (3) switched
    capacitance, replayed bit-exactly through a fresh
    {!Gcr.Router.forest} — over that region's sinks in isolation (the
    stitch above the regions trades optimality for scaling by design and
    is not asserted). [shards] as in {!Gcr.Shard_router.plan}. *)

val router_matches_scan :
  Gcr.Config.t -> Activity.Profile.t -> Clocktree.Sink.t array -> unit
(** Step-by-step exactness of the flat router: {!Gcr.Router.run}'s merge
    list (each query answered by the spatial cost-distance index) must
    equal, merge for merge, that of {!Clocktree.Greedy.merge_all} — the
    exhaustive scan source — over [Gcr.Router.cost] on a fresh forest.
    Exact, ties included: both keep the first minimum in active order. *)

val nn_matches_scan : Clocktree.Tech.t -> Clocktree.Sink.t array -> unit
(** Step-by-step exactness of the nearest-neighbor topology, with no
    edge gate and with [tech]'s buffer on every edge:
    {!Clocktree.Nn.topology}'s merge list must equal, merge for merge,
    that of
    {!Clocktree.Greedy.merge_all} — the exhaustive scan source — over
    {!Clocktree.Grow.dist} on a fresh forest. Exact, ties included: both
    keep the first minimum in active order. *)

val engine_vs_dense : Scenario.t -> unit
(** Per-step greedy optimality of both merge engines —
    {!Gcr.Activity_router.topology} (nearest-neighbor heap with
    {!Clocktree.Greedy.bound_scan} pruning) and
    {!Gcr.Activity_router.topology_dense} (all-pairs scan): each
    engine's merge sequence is replayed and every chosen pair must
    achieve the exact brute-force minimum of the activity-merge cost
    over the roots active at that step. Tie-immune (any min-achieving
    choice passes), unlike a topology diff, on which the engines
    legally diverge whenever saturated enables meet overlapping merge
    regions. *)

val chunked_vs_whole : Scenario.t -> unit
(** Streaming-ingestion determinism: feeds the scenario's trace through
    {!Activity.Stream_update} in deliberately awkward chunks — a
    single-instruction chunk, an empty chunk, and a cut inside a
    NOW/NEXT pair — and requires the accumulated IFT and IMATT to equal
    the whole-trace builds {e bit for bit} (totals, per-instruction
    counts, every pair row), then {!same_tree} on the pipelines routed
    from each. Then ingests two drift chunks, after each requiring the
    patched (or rebuilt) kernel to pass its check. *)

val drift_chunks : Scenario.t -> int array list
(** The deterministic drift workload the ECO oracle (and the fuzz
    replayer) applies on top of a scenario's trace: the trace reversed
    (drifts [Ptr] while preserving every hit count) followed by a
    burst of its first instruction (drifts [P] in both directions). *)

val eco_w_tolerance : float
(** Relative band for {!eco_repair_matches_scratch}'s switched
    capacitance comparison. *)

val eco_repair_matches_scratch : ?threshold:float -> Scenario.t -> unit
(** Routes the scenario, drifts its profile with {!drift_chunks} through
    the streaming accumulator, repairs via {!Gcr.Eco.repair} and
    re-routes from scratch under the drifted profile. The repaired tree
    must pass the structural and analytic-vs-simulated invariants. Its
    [W] may exceed the from-scratch route's by at most
    {!eco_w_tolerance}; below scratch, it must stay within the same
    band of the cheaper of the scratch route and the old topology
    re-embedded under the drifted profile (greedy scratch routes can be
    the outlier). A root-drift full rebuild must equal the scratch route
    bit for bit ({!same_tree}). [threshold] as in {!Gcr.Eco.detect}. *)

val reduce_matches_reference : Gcr.Gated_tree.t -> unit
(** Takes a routed, fully gated tree and requires the kinds that
    {!Gcr.Gate_reduction.reduce_greedy} and
    {!Gcr.Gate_reduction.reduce_count} (at [remove] = 0, half the gates
    rounded down, and all of them) assign to equal, node for node, those
    of {!Reduce_reference}'s whole-tree passes. Exact: both sides rank
    bit-identical gains and break ties to the lower node id. *)

val domains_determinism : Scenario.t -> unit
(** Runs the full {!Gcr.Flow.run} pipeline with [GCR_DOMAINS=1] and with
    [GCR_DOMAINS] at the domain count, and requires {!same_tree}: the
    parallel work-pool must not change a single bit of the result. The
    previous [GCR_DOMAINS] value is restored on exit. *)
