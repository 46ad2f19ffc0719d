(** Incremental bottom-up merge state shared by the greedy topology
    constructors.

    Both the nearest-neighbor baseline and the paper's min-switched-
    capacitance router grow a forest of zero-skew subtrees by repeatedly
    merging two roots. This module owns the per-root state (merging region,
    delay, capacitance), evaluates tentative merges without committing, and
    records the merge list from which the final {!Topo.t} is built.

    During growth every prospective edge carries the same [edge_gate]
    (an AND gate for gated construction, a buffer for the buffered
    baseline, or nothing): the paper inserts gates at every node during
    construction and only reduces them afterwards. *)

type t

val create : Tech.t -> edge_gate:Tech.gate option -> Sink.t array -> t
(** Fresh forest with every sink its own root. *)

val n_sinks : t -> int

val n_nodes : t -> int
(** Ids allocated so far ([n_sinks] + merges done). *)

val n_active : t -> int
(** Roots remaining in the forest. *)

val active : t -> int list
(** Current roots, ascending. *)

val region : t -> int -> Geometry.Rect.t

val center_point : t -> int -> Geometry.Point.t
(** Chip-space center of a root's merging region, without materializing
    the rectangle (the paper's controller-distance estimate point). *)

val dist : t -> int -> int -> float
(** Manhattan distance between two roots' merging regions. *)

val peek_split : t -> int -> int -> Zskew.split
(** Zero-skew split for a tentative merge of two roots; no state change.
    Raises [Invalid_argument] if either id is not an active root. *)

val peek_lengths : t -> int -> int -> float array -> unit
(** [peek_lengths t a b lengths] writes {!peek_split}'s [ea] and [eb]
    into [lengths.(0)] and [lengths.(1)], bit for bit, reading the
    delay, cap and region columns without building a branch, a split or
    a rectangle ({!Zskew.lengths_into}). Raises as {!peek_split}. *)

val merge : t -> int -> int -> int
(** Commit a merge; returns the id of the new root. Raises
    [Invalid_argument] if either id is not an active root or both are the
    same. *)

val merges : t -> (int * int) array
(** Merge list so far, in commit order (feed to {!Topo.of_merges} once a
    single root remains). *)

val topology : t -> Topo.t
(** The completed topology. Raises [Invalid_argument] while more than one
    root remains. *)
