(** Top-down embedding — phase 2 of DME.

    Fixes a concrete location for every node inside its merging region:
    the root is placed at the region point nearest to a given anchor
    (typically the clock source at the chip center); every other node at
    the point of its region nearest to its parent's location, which is
    always within the zero-skew wire length.

    Locations are written into the merging-segment arena's [px]/[py]
    columns: an embedding is the arena plus the topology, with no
    separate per-node boxes. {!of_mseg} therefore mutates the arena it is
    given — use {!copy} first when the un-embedded segments must
    survive. *)

type t = { topo : Topo.t; mseg : Mseg.t }

val build :
  Tech.t ->
  Topo.t ->
  sinks:Sink.t array ->
  gate_on_edge:(int -> Tech.gate option) ->
  root_anchor:Geometry.Point.t ->
  t
(** Runs {!Mseg.build} then the top-down placement. *)

val of_mseg :
  Topo.t -> Mseg.t -> root_anchor:Geometry.Point.t -> t
(** Placement only, for callers that already hold the merging segments.
    Writes the locations into the given arena. *)

val loc : t -> int -> Geometry.Point.t
(** Embedded location of node [v]. *)

val edge_len : t -> int -> float
(** Wire length of the edge above the node (detours included). *)

val total_wirelength : t -> float

val copy : t -> t
(** Deep copy: the arena is duplicated, so mutating one embedding (e.g.
    fault injection on an edge length) leaves the other intact. *)

val gate_location : t -> int -> Geometry.Point.t
(** Location of the masking gate on the edge above node [v]: the head of
    the edge, i.e. the parent's embedded location (the node's own location
    at the root). *)

val check_consistency : t -> unit
(** Asserts the embedding invariants: every location lies in its node's
    merging region and every edge's endpoints are no farther apart than its
    assigned wire length, both within a tolerance that grows with the
    coordinates' magnitude. Raises {!Util.Gcr_error.Error}
    ([Engine_mismatch], or [Numerical] for a non-finite coordinate or
    length) naming the first offending node. *)
