(** One-call routing pipelines.

    Bundles the paper's sequence — route, then the post-route stages
    reduce, share and size — behind a single options record. The stage
    list lives here once: {!run_checked} walks it with a skip-on-failure
    guard, {!optimize} folds it unchecked, and {!run} is the checked run
    made strict. *)

type reduction = No_reduction | Greedy | Rules | Fraction of float

type sizing = No_sizing | Tapered | Uniform of float | Proportional

type shards =
  | Flat  (** single flat greedy merge (the default) *)
  | Auto_shards  (** {!Shard_router} with {!Shard_router.auto_shards} *)
  | Shards of int  (** {!Shard_router} with an explicit region count *)

type gate_share =
  | No_share  (** every gate keeps its own per-subtree enable *)
  | Share of { min_instances : int; eps : int }
      (** run {!Gate_share.share} after reduction: drop gates covering
          fewer than [min_instances] sinks, remove gates within [eps] of
          their governor, group the rest onto shared enables *)

type eco =
  | No_eco  (** workload drift forces a full re-route *)
  | Eco of { threshold : float }
      (** opt into ECO-style local repair under workload drift: when a
          trace update moves some subtree's observed [P(EN)]/[Ptr(EN)]
          past this relative threshold, {!Eco.repair} re-merges only the
          stale subtree (see {!Eco}). The threshold is carried here so
          scenarios, the CLI and the serve layer agree on one knob; the
          batch pipeline ({!run}/{!run_checked}) itself never repairs. *)

type options = {
  skew_budget : float;  (** 0 = exact zero skew *)
  reduction : reduction;
  sizing : sizing;
  shards : shards;  (** region-parallel routing (see {!Shard_router}) *)
  gate_share : gate_share;  (** post-reduction gate sharing *)
  eco : eco;  (** drift-repair policy for streaming updates *)
}

val default : options
(** Zero skew, greedy reduction, no sizing — the configuration behind the
    headline reproduction numbers. *)

val skew_budget : options -> float option
(** [options.skew_budget] as the routers take it: [None] for exact zero
    skew, [Some b] for a positive budget. *)

val route_with_options :
  options ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  Gated_tree.t
(** The routing stage alone, unchecked: {!Router.route} or
    {!Shard_router.route} according to [options.shards], with
    [options.skew_budget] applied — the tree the first ladder rung of
    {!run_checked} builds. *)

val apply_reduction : options -> Gated_tree.t -> Gated_tree.t
(** The gate-reduction stage alone, on an already-routed tree. *)

val apply_share : options -> Gated_tree.t -> Gated_tree.t
(** The gate-sharing stage alone (runs between reduction and sizing). *)

val apply_sizing : options -> Gated_tree.t -> Gated_tree.t
(** The sizing stage alone. *)

val optimize : options -> Gated_tree.t -> Gated_tree.t
(** The post-route stages — reduce, share, size — folded over a routed
    tree, unchecked, each under an {!Util.Obs} span of its stage name.
    The same stage list {!run_checked} walks, so
    [optimize options (route_with_options options ...)] is {!run}'s tree
    on any input the checked run routes without degradation. *)

val label : options -> string
(** Human-readable tag of the pipeline variant, e.g. ["gated+greedy+tapered"]. *)

(** {1 Checked pipeline} *)

type mode =
  | Default  (** cheap finite-float assertions at stage boundaries only *)
  | Paranoid
      (** full {!Verify.structural} re-derivation between every stage;
          measured at well under 2x the default run time *)

type limits = {
  wall_seconds : float option;
      (** time budget for the whole pipeline, measured on the monotonic
          {!Util.Obs.Clock} (immune to NTP wall-clock steps); [Some 0.]
          deterministically exhausts before the first stage *)
  max_merge_steps : int option;
      (** upper bound on greedy merge steps ([n-1] are needed for [n] sinks) *)
}

val no_limits : limits

type event = {
  stage : string;  (** pipeline stage about to run (or being skipped) *)
  action : string;  (** human-readable description of the degradation *)
  error : Util.Gcr_error.t;  (** the failure that triggered it *)
}
(** One graceful-degradation step: emitted through [on_event] every time
    {!run_checked} downgrades an engine or skips an optimisation stage. *)

val pp_event : Format.formatter -> event -> unit

val run_checked :
  ?mode:mode ->
  ?limits:limits ->
  ?on_event:(event -> unit) ->
  ?options:options ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  (Gated_tree.t, Util.Gcr_error.t list) result
(** The full gated pipeline with every stage boundary wrapped: never
    raises.

    Inputs are validated first (empty or mis-indexed sinks, non-finite
    coordinates or loads, module ids outside the profile's universe,
    invalid technology or options) and all problems are reported together
    as [Degenerate_input] errors. Stray exceptions inside a stage are
    converted through {!Util.Gcr_error.of_exn} with the stage attached.

    Routing walks a degradation ladder of at most three rungs, emitting
    an [event] per downgrade: [route:sharded] (the region-parallel
    engine, only when [options] request sharding), then [route] (the
    flat NN-heap engine: the greedy Eq. (3) merge, then the DME
    embedding), then [route:skew-budget] (the topology [route] merged,
    embedded again under a relaxed skew budget; it merges nothing, and
    it is not tried when [route] failed before it had a topology). Only
    when every rung tried fails is [Error] returned, carrying one typed
    error per rung in order. A failing run therefore merges at most
    [n - 1] times per routing rung and never for the retry. Under
    [Paranoid], a signature kernel that disagrees with its own tables
    fails with the [Engine_mismatch] of {!Verify}'s enable check, as the
    serve audit does: no rung re-routes on table scans. The
    post-route stages (reduce, share, size — {!optimize}'s list) degrade
    to "skip the stage": the routed tree is already a correct answer, so
    a failing optimisation pass is dropped with an event rather than
    failing the pipeline.

    [limits] bounds the work: too many required merge steps fail fast as
    [Resource_limit], and an exhausted time budget mid-pipeline returns
    the partial (routed but unoptimised) result with an event, or
    [Resource_limit] when no tree exists yet.

    The wall budget is re-checked before every ladder rung and again
    before each optional stage, so [wall_seconds = Some 0.]
    deterministically yields [Error [Resource_limit _]] without running
    any engine. A rung that succeeds past the deadline still returns its
    tree (a complete answer beats a timeout); only the optional stages
    after it are skipped.

    When {!Util.Obs} tracing is enabled the run records one span per
    stage attempted ([validate], then the ladder rungs, then [reduce]/
    [share]/[size]) plus the [flow.rungs] and [flow.degraded] counters. *)

type checked = {
  tree : Gated_tree.t;
  rung : string;
      (** the ladder rung that produced the routed tree: ["route"],
          ["route:sharded"] or ["route:skew-budget"] *)
  degraded : event list;  (** degradation events, in emission order *)
}
(** {!run_checked}'s result with its provenance attached. *)

val run_checked_info :
  ?mode:mode ->
  ?limits:limits ->
  ?on_event:(event -> unit) ->
  ?options:options ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  (checked, Util.Gcr_error.t list) result
(** Exactly {!run_checked}, additionally reporting which ladder rung won
    and every degradation event taken along the way — the shape a serving
    layer needs to tag each response with its degradation provenance
    without threading a callback through a scheduler. [on_event] still
    fires as events happen (streaming), while [degraded] collects them. *)

val run :
  ?options:options ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  Gated_tree.t
(** {!run_checked_info} in [Default] mode made strict: the tree when the
    run took no degradation, otherwise raises
    [Util.Gcr_error.Error e] with the first typed error — the first
    degradation event's, or the first of the [Error] list (so invalid
    input raises [Degenerate_input]). *)
