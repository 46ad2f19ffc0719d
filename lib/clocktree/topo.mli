(** Full binary clock-tree topologies over [N] sinks.

    Nodes are dense integers: leaves are [0..N-1] (equal to sink ids),
    internal nodes are [N..2N-2], created in merge order so that every
    internal node's id is strictly greater than its children's — ascending
    id order is therefore a valid bottom-up (post) order and descending id
    order a valid top-down order. The root is [2N-2] (or [0] when [N=1]). *)

type t

val of_merges : n_sinks:int -> (int * int) array -> t
(** [of_merges ~n_sinks merges] builds the topology whose [k]-th merge
    creates internal node [n_sinks + k] from the pair of ids in
    [merges.(k)]. Raises [Invalid_argument] unless the merges form a full
    binary tree: exactly [n_sinks - 1] merges, every non-root node a child
    exactly once, children created before parents. *)

val replay :
  leaves:int array -> merges:(int * int) array -> merge:(int -> int -> int) -> int
(** Replay a local merge list (in {!of_merges} numbering over
    [Array.length leaves] local sinks) into an outer id space: local
    sink [i] is [leaves.(i)], and each merge calls [merge a b] on the
    outer ids of its children, in list order, and takes the id it
    returns. Returns the outer id of the local root ([leaves.(0)] for a
    single leaf, with no [merge] call). *)

val n_sinks : t -> int

val n_nodes : t -> int
(** [2 * n_sinks - 1]. *)

val root : t -> int

val is_leaf : t -> int -> bool

val children : t -> int -> (int * int) option
(** [Some (left, right)] for internal nodes, [None] for leaves. *)

val parent : t -> int -> int option
(** [None] for the root. *)

val depth : t -> int -> int
(** Edges from the root down to the node. *)

val leaves_under : t -> int -> int list
(** Sink ids in the subtree rooted at the node, ascending. *)

val fold_postorder : t -> (int -> 'a) -> (int -> 'a -> 'a -> 'a) -> 'a
(** [fold_postorder t leaf node] folds bottom-up: [leaf] on sinks, [node]
    on internal nodes with the children's results. *)

val iter_bottom_up : t -> (int -> unit) -> unit
(** Visit every node, children always before parents. *)

val iter_top_down : t -> (int -> unit) -> unit
(** Visit every node, parents always before children. *)

val internal_nodes : t -> int list
(** Ascending list of internal node ids. *)

val swap : t -> int -> int -> t
(** [swap t u v] exchanges the subtrees rooted at [u] and [v] (each takes
    the other's place under the other's parent). Internal nodes are
    renumbered to restore the children-before-parents id order; leaf ids
    are preserved. Raises [Invalid_argument] if either node is the root or
    one is an ancestor of the other. *)

val is_ancestor : t -> int -> int -> bool
(** [is_ancestor t a v] — is [a] a (strict or equal) ancestor of [v]? *)

val equal : t -> t -> bool
