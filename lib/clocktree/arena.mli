(** Struct-of-arrays flat storage for clock-tree nodes.

    Every per-node quantity the DME pipeline carries — merging region,
    zero-skew delay, downstream capacitance, parent-edge wire length,
    subtree wirelength, embedded location, snake flag, topology links —
    lives in one flat column per field instead of an array of heap-boxed
    records. A million-sink tree is then a handful of contiguous float
    and int buffers: bottom-up and top-down sweeps walk them in stride-1
    order, region sub-arenas are cheap to build and release (no
    per-node boxes for the GC to trace), and hot pairwise queries
    ({!dist}) read four floats per side without materializing a
    {!Geometry.Rect.t}.

    The merging region of node [v] is the rotated-frame rectangle
    [[ulo.(v), uhi.(v)] x [vlo.(v), vhi.(v)]] (see {!Geometry.Rect});
    a capacity of [2 * n_sinks - 1] covers any full merge history.
    [n_nodes] tracks how many ids are currently defined: construction
    ({!Mseg.build}) defines all of them up front, incremental growth
    ({!Grow}) appends one per merge. *)

type t = {
  n_sinks : int;
  mutable n_nodes : int;  (** ids in [0, n_nodes) are defined *)
  ulo : float array;  (** merging-region bounds, rotated frame *)
  uhi : float array;
  vlo : float array;
  vhi : float array;
  delay : float array;  (** zero-skew Elmore delay node -> sinks *)
  cap : float array;  (** downstream capacitance at the node *)
  edge_len : float array;  (** wire length of the edge above the node *)
  px : float array;  (** embedded chip-space location (x) *)
  py : float array;  (** embedded chip-space location (y) *)
  snaked : Bytes.t;  (** 1 when the edge above the node is elongated *)
  left : int array;  (** topology columns; -1 where undefined *)
  right : int array;
  parent : int array;
}

val create : n_sinks:int -> t
(** Columns of capacity [2 * n_sinks - 1], with [n_nodes = 0], floats
    zeroed and topology links [-1]. Raises [Invalid_argument] when
    [n_sinks <= 0]. *)

val capacity : t -> int

val region : t -> int -> Geometry.Rect.t
(** Merging region of one node, materialized. *)

val set_region : t -> int -> Geometry.Rect.t -> unit

val set_region_point : t -> int -> Geometry.Point.t -> unit
(** Degenerate region holding a single chip-space point (a sink pin). *)

val dist : t -> int -> int -> float
(** Manhattan distance between two nodes' merging regions — the
    Chebyshev interval gap over the four bound columns; equals
    [Geometry.Rect.distance (region t a) (region t b)] exactly, without
    allocating either rectangle. *)

val center_point : t -> int -> Geometry.Point.t
(** Chip-space center of the node's merging region
    (= [Geometry.Rect.center_point (region t v)]). *)

val loc : t -> int -> Geometry.Point.t

val set_loc : t -> int -> Geometry.Point.t -> unit

val snaked : t -> int -> bool

val set_snaked : t -> int -> bool -> unit

val copy : t -> t
(** Deep copy — no column is shared with the original. *)

(** {1 Round-trip}

    The boxed-record view of one node, for property tests and
    interchange: {!of_nodes} o {!to_nodes} is the identity on every
    defined node. *)

type node = {
  node_region : Geometry.Rect.t;
  node_delay : float;
  node_cap : float;
  node_edge_len : float;
  node_loc : Geometry.Point.t;
  node_snaked : bool;
  node_left : int;
  node_right : int;
  node_parent : int;
}

val to_nodes : t -> node array
(** The [n_nodes] defined nodes, boxed. *)

val of_nodes : n_sinks:int -> node array -> t
(** Arena holding exactly the given nodes ([n_nodes = length]). Raises
    [Invalid_argument] when more nodes than the [2 * n_sinks - 1]
    capacity are supplied. *)
