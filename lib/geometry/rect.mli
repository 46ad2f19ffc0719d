(** Axis-aligned rectangles in the rotated frame: the uniform representation
    of DME geometry.

    In the rotated frame of {!Rot}, a tilted rectangular region (TRR), a
    Manhattan arc (a merging segment of slope +-1), and a single point are
    all axis-aligned rectangles — possibly degenerate in one or both
    dimensions. TRR construction is interval inflation, TRR intersection is
    interval intersection, and the Manhattan distance between regions is the
    Chebyshev distance between rectangles. *)

type t = private { ulo : float; uhi : float; vlo : float; vhi : float }
(** Invariant: [ulo <= uhi] and [vlo <= vhi]. *)

val make : ulo:float -> uhi:float -> vlo:float -> vhi:float -> t
(** Raises [Invalid_argument] if an interval is reversed or a bound is not
    finite. *)

val of_rot : Rot.t -> t
(** Degenerate rectangle holding a single rotated-frame point. *)

val of_point : Point.t -> t
(** Degenerate rectangle holding a single chip-space point. *)

val inflate : t -> float -> t
(** [inflate r d] is the tilted rectangular region of radius [d >= 0] around
    [r]: all rotated-frame points within Chebyshev distance [d], i.e. all
    chip-space points within Manhattan distance [d]. Raises
    [Invalid_argument] on a negative radius. *)

val intersect : t -> t -> t option
(** Set intersection; [None] when the rectangles are disjoint. *)

val distance : t -> t -> float
(** Chebyshev distance between the two sets (0 when they intersect) =
    minimum Manhattan distance between the chip-space regions. *)

val nearest_to : t -> Rot.t -> Rot.t
(** Closest point of the rectangle to the given rotated-frame point
    (componentwise clamp; unique for axis-aligned rectangles under L-inf
    up to the standard clamp convention). *)

val nearest_pair : t -> t -> Rot.t * Rot.t
(** [(p, q)] with [p] in the first rectangle and [q] in the second realizing
    {!distance}. *)

val center : t -> Rot.t

val center_point : t -> Point.t
(** Chip-space image of the rectangle center: the "middle point of the
    merging sector" used by the paper's controller-distance estimate. *)

val contains : ?eps:float -> t -> Rot.t -> bool

val contains_rect : ?eps:float -> t -> t -> bool
(** [contains_rect outer inner] — is [inner] a subset of [outer] (within
    [eps])? *)

val is_point : ?eps:float -> t -> bool

val is_segment : ?eps:float -> t -> bool
(** Degenerate in exactly one dimension: a genuine Manhattan arc. *)

val width_u : t -> float

val width_v : t -> float

val corner_points : t -> Point.t list
(** The up-to-four distinct corners mapped back to chip space (a tilted
    rectangle, segment, or point), in drawing order. *)

val sample : Util.Prng.t -> t -> Rot.t
(** Uniform random point of the rectangle, for property tests. *)

val equal : ?eps:float -> t -> t -> bool
