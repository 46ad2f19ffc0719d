(** The 45-degree rotated coordinate frame used by all DME geometry.

    With [u = x + y] and [v = x - y], the Manhattan distance between two
    chip-space points equals the Chebyshev (L-infinity) distance between
    their images, so Manhattan discs become axis-aligned squares and
    merging segments (slope +-1 "Manhattan arcs") become axis-aligned
    segments. All tilted-rectangular-region arithmetic in {!Rect} operates
    on this frame. *)

type t = { u : float; v : float }

val of_point : Point.t -> t

val to_point : t -> Point.t
(** Inverse of {!of_point}: [x = (u + v) / 2], [y = (u - v) / 2]. *)

val chebyshev : t -> t -> float
(** L-infinity distance in the rotated frame = Manhattan distance of the
    corresponding chip-space points. *)

val equal : ?eps:float -> t -> t -> bool
