(** Activity-driven topology construction in the spirit of the paper's
    reference [5] (Tellez, Farrahi & Sarrafzadeh, ICCAD'95): build the
    clock-tree topology from module activity patterns {e only}, ignoring
    geometry during the merge ordering, then embed with DME.

    Each greedy step merges the pair of subtree roots whose combined
    enable has the smallest expected idle-clocking waste — here, the
    probability of the merged enable (with the merging-sector distance
    only as a tie-breaker). This is the comparison point showing what the
    paper adds over [5]: accounting for the actual routing, the control
    wiring and the chip geometry. *)

val topology :
  Config.t -> Activity.Profile.t -> Clocktree.Sink.t array -> Clocktree.Topo.t
(** Merge ordering by minimum merged-enable probability (geometric
    distance breaks ties at 1e-6 weight), run on a {!Router.forest}: its
    leaves, merges and enables are the Eq. (3) router's, only the cost
    ({!Router.p_union}) differs. With a signature kernel the NN-heap
    engine prunes under the per-root bound [P(EN_v)]
    ({!Clocktree.Greedy.bound_scan}); without one (analytic,
    {!Activity.Profile.tables_only}) it scans. Raises like {!Router.route}. *)

val topology_dense :
  Config.t -> Activity.Profile.t -> Clocktree.Sink.t array -> Clocktree.Topo.t
(** Same ordering on {!Clocktree.Greedy.merge_all_dense} — the all-pairs
    reference oracle, identical merge decisions up to cost ties. For
    validation and baseline benchmarking only. *)

val route :
  ?skew_budget:float ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  Gated_tree.t
(** {!topology} embedded with a masking gate on every edge. *)
