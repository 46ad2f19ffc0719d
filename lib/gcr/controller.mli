(** Gate-controller placement and enable-signal star routing.

    The paper's baseline puts one centralized controller at the chip center
    and routes every enable signal as a dedicated (star) wire from the
    controller to its gate. Section 6 sketches the distributed alternative:
    partition the die into [k] equal cells (a [g x g] grid, [k = g^2]) with
    one controller per cell; each gate connects to the controller of its
    cell, shrinking total star length by about [sqrt k]. *)

type t

val centralized : Geometry.Bbox.t -> t
(** One controller at the center of the die. *)

val distributed : Geometry.Bbox.t -> k:int -> t
(** [k] controllers on a square grid; [k] must be a positive perfect
    square. The [k] sites are computed here, once. Raises
    [Invalid_argument] otherwise. *)

val n_controllers : t -> int

val sites : t -> Geometry.Point.t list
(** Controller locations (cell centers for the distributed form). *)

val site_for : t -> Geometry.Point.t -> Geometry.Point.t
(** The controller serving a gate at the given location: a cell lookup,
    with no allocation. *)

val wire_length : t -> Geometry.Point.t -> float
(** Manhattan length of the star wire from a gate at the given location to
    its controller. *)

val pp : Format.formatter -> t -> unit
