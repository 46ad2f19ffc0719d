(** Planar points in chip coordinates (micrometres, x to the right, y up). *)

type t = { x : float; y : float }

val make : float -> float -> t

val manhattan : t -> t -> float
(** L1 (rectilinear wire-length) distance. *)

val euclidean : t -> t -> float

val chebyshev : t -> t -> float
(** L-infinity distance. *)

val midpoint : t -> t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val lerp : t -> t -> float -> t
(** [lerp a b f] is the point a fraction [f] of the way from [a] to [b]. *)

val equal : ?eps:float -> t -> t -> bool
(** Componentwise comparison with absolute tolerance [eps] (default 1e-9). *)

val compare : t -> t -> int
(** Lexicographic ordering, for use in sorted containers. *)

val pp : Format.formatter -> t -> unit
