(** Nearest-neighbor zero-skew topology (the Edahiro-style heuristic the
    paper uses for its buffered baseline and cites as [3]).

    Greedily merges the two subtree roots whose merging sectors are
    geometrically closest; with [edge_gate = Some tech.buffer] this yields
    the paper's "buffered clock tree" construction.

    Partners come from {!Spatial.cheapest}, the same pyramid walk the
    Eq. (3) router queries, with the pure distance as the special case
    [K = 0], [P = 1], [c = 1] of its cost-distance bound (~O(n log n)
    construction). Exact distance ties go to the lower active rank, so
    every merge is the one {!Greedy.merge_all}'s scan would make;
    {!topology_dense} runs the same greedy on the all-pairs reference
    oracle instead. *)

val topology : Tech.t -> edge_gate:Tech.gate option -> Sink.t array -> Topo.t
(** Build the complete topology (spatially accelerated). Raises
    [Invalid_argument] on an empty or mis-indexed sink array. *)

val topology_dense :
  Tech.t -> edge_gate:Tech.gate option -> Sink.t array -> Topo.t
(** Same construction on {!Greedy.merge_all_dense} — the O(n^2)-memory
    all-pairs path, kept as the validation oracle and benchmark baseline.
    Identical merge decisions up to cost ties. *)

val embed :
  Tech.t ->
  edge_gate:Tech.gate option ->
  root_anchor:Geometry.Point.t ->
  Sink.t array ->
  Embed.t
(** Topology plus DME embedding with the same uniform gate assignment. *)
