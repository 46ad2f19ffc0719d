(** Uniform-grid spatial index over merging regions.

    The greedy merge needs, for an active root, its minimum-cost partner.
    One query, {!cheapest}, answers that from the grid instead of a scan
    of the active set, for any cost-distance cost: the paper's Eq. (3)
    in [Gcr.Router], and the pure region distance of {!Nn} as the special
    case [K = 0], [P = 1], [c = 1]. It walks a quadtree pyramid built
    over the cells best-first. Every cell and every block of 2^l x 2^l
    cells keeps the minimum [K] and minimum [P] of the ids below it and
    the bounding box of their regions. The walk stops once no unvisited
    block can beat the best cost found, up to a relative 1e-9, and costs
    a candidate only after its own lower bound passes. Exact cost ties
    go to the lower rank, the one tie rule of every caller.

    The grid is unbounded (leaves are found through a hash table keyed by
    integer cell coordinates, and the pyramid's root grows upward), so
    regions inflated beyond the initial sink hull by wire snaking are
    handled without any loss of exactness. An index is mutable query
    state: query it from one thread at a time. *)

type t

val create : capacity:int -> cell:float -> unit -> t
(** [create ~capacity ~cell ()] indexes ids in [0..capacity-1] with grid
    cells of side [cell] (rotated coordinates). Raises
    [Invalid_argument] on a non-positive capacity or cell. *)

val insert : ?k:float -> ?p:float -> t -> int -> Geometry.Rect.t -> unit
(** Index a region under the given id, in the cell of its center, with
    the id's weights [k] and [p] (default 0). With [p = 0] every bound
    is [K q + K u], so a pure-distance caller passes [~p:1.0]. Raises [Invalid_argument] if the id is out of
    range or already present, or if the region's center lies some 2^24
    cells away from the cloud the index was made for. *)

val remove : t -> int -> unit
(** Raises [Invalid_argument] if the id is not present. *)

val cheapest :
  t ->
  int ->
  below:int ->
  c:float ->
  dist:(int -> float) ->
  cost:(int -> float) ->
  rank:(int -> int) ->
  (int * float) option
(** [cheapest t q ~below ~c ~dist ~cost ~rank] returns, among the present
    ids [u < below], the one minimizing [cost u], ties going to the
    smallest [rank u], with that cost; [None] when there is no such id.
    That is exactly the answer of a scan that visits the ids in
    ascending [rank] and keeps the first strict minimum.

    Exactness contract, with [K] and [P] the weights registered at insert
    time: every [cost u] must satisfy
    [lb u <= cost u * (1 + 1e-9)] where
    [lb u = K q + K u + c * min (P q) (P u) * dist u], all of [K], [P],
    [c] and [dist] are non-negative, and [dist u] is at least the
    {!Geometry.Rect.distance} of the two registered regions ({!Grow.dist}
    of the indexed forest is exactly that). Every [u] whose [lb u]
    exceeds the best cost found (times 1 + 1e-9) is never costed.

    Obs: [greedy.cells_visited] counts the pyramid nodes the walk
    expands, [greedy.bound_evals] the per-id bounds it evaluates. Raises
    [Invalid_argument] if [q] is not present. *)

val source :
  Grow.t ->
  Sink.t array ->
  k:(int -> float) ->
  p:(int -> float) ->
  c:float ->
  Greedy.source
(** [source grow sinks ~k ~p ~c] is the candidate source that answers
    every best-partner query of a greedy merge over [grow] (a forest of
    [sinks]) from one index: each root [v] is inserted with [k v] and
    [p v] when it becomes active, and [best q] is
    [cheapest idx q ~below:q ~c ~dist:(Grow.dist grow q)
    ~cost:(view.cost q) ~rank:view.rank]. Exact, with the scan's ties,
    whenever the engine's cost meets {!cheapest}'s contract for these
    weights. [Gcr.Router] passes Eq. (3)'s [K], [P] and unit wire
    capacitance; {!Nn} passes [K = 0], [P = 1], [c = 1]. *)
