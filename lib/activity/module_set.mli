(** Immutable bitsets over circuit-module indices.

    Every enable signal [EN_i] of the gated clock tree is characterized by
    the set of modules in its subtree; probabilities are queried as
    intersection tests between these sets and per-instruction used-module
    sets, so the representation is a packed bit vector sized for a fixed
    universe of [n] modules. *)

type t

val universe_size : t -> int
(** The fixed number of modules [n] this set ranges over. *)

val empty : int -> t
(** [empty n] is the empty set over universe [0..n-1]. Raises
    [Invalid_argument] when [n < 0]. *)

val full : int -> t
(** All modules of the universe. *)

val singleton : int -> int -> t
(** [singleton n m] contains just module [m]. Raises [Invalid_argument]
    when [m] is outside [0..n-1]. *)

val of_list : int -> int list -> t

val to_list : t -> int list
(** Ascending member list. *)

val add : t -> int -> t

val mem : t -> int -> bool

val union : t -> t -> t
(** Raises [Invalid_argument] on mismatched universes. *)

val inter : t -> t -> t

val diff : t -> t -> t

val is_empty : t -> bool

val intersects : t -> t -> bool
(** [intersects a b] = [not (is_empty (inter a b))], without allocating.
    This is the hot query of every probability computation. *)

val subset : t -> t -> bool
(** [subset a b] — is [a] contained in [b]? *)

val cardinal : t -> int

val equal : t -> t -> bool

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over members in ascending order. *)

val iter : (int -> unit) -> t -> unit

val pp : Format.formatter -> t -> unit
(** Prints as [{0,3,5}]. *)
