(** Bottom-up merging-segment construction — phase 1 of DME (Deferred Merge
    Embedding) under exact zero skew.

    Given a topology and a gate assignment, computes for every node its
    merging region (the locus of zero-skew placements, a Manhattan arc
    represented as a rotated-frame rectangle), the wire length of the edge
    to its parent, and the subtree delay/capacitance at the node.

    The result is a flat {!Arena.t} — one float column per field instead
    of boxed per-node records — read through the accessors below. The
    arena also carries the topology links and per-subtree wirelength, and
    has room ([px]/[py] columns) for {!Embed} to write the final
    placement into the same storage. *)

type t = Arena.t

val build :
  Tech.t ->
  Topo.t ->
  sinks:Sink.t array ->
  gate_on_edge:(int -> Tech.gate option) ->
  t
(** [gate_on_edge v] is the masking gate or buffer at the head of the edge
    above node [v] (queried for every non-root node). Raises
    [Invalid_argument] when the sink array does not match the topology. *)

val region : t -> int -> Geometry.Rect.t
(** Merging region of node [v]. *)

val cap : t -> int -> float
(** Downstream capacitance at node [v]. *)

val edge_len : t -> int -> float
(** Wire length of the edge above node [v]; 0 at the root. *)

val set_edge_len : t -> int -> float -> unit
(** Overwrite one edge length (fault injection / tamper tests). *)

val snaked : t -> int -> bool
(** Whether the edge above node [v] is elongated (snaked). *)

val total_wirelength : t -> float
(** Sum of all edge lengths (detour wire included). *)

val copy : t -> t
(** Deep copy (no shared columns). *)

val merge_region :
  Geometry.Rect.t -> float -> Geometry.Rect.t -> float -> float -> Geometry.Rect.t
(** [merge_region ra ea rb eb dist] is the merging region of a parent whose
    children occupy regions [ra], [rb] at wire lengths [ea], [eb] with
    [dist] the region distance: the intersection of the two inflated
    regions, with a numerically-robust fallback when rounding makes the
    exact intersection empty. Shared with the incremental {!Grow} state. *)
