(** Small descriptive-statistics helpers used by reports and benches. *)

val mean : float array -> float
(** Arithmetic mean; 0 on an empty array. *)

val variance : float array -> float
(** Population variance; 0 on arrays shorter than 2. *)

val min_max : float array -> float * float
(** Smallest and largest element. Raises [Invalid_argument] when empty. *)

val median : float array -> float
(** Median (average of the central two for even lengths); input is not
    modified. Raises [Invalid_argument] when empty. *)

val percentile : float array -> float -> float
(** [percentile a p] for [p] in [\[0,100\]], linear interpolation between
    order statistics. Raises [Invalid_argument] when empty. *)

val sum : float array -> float

val geometric_mean : float array -> float
(** Geometric mean of positive values; 0 on an empty array. *)
