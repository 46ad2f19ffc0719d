(** Clock sinks: one per circuit module, at the module's clock-pin location.

    The paper identifies sinks with modules ("the sinks correspond to the
    locations of modules"); [module_id] links the sink to the activity
    model's module universe. *)

type t = {
  id : int;  (** dense index 0..N-1; doubles as the leaf node id in topologies *)
  loc : Geometry.Point.t;
  cap : float;  (** clock-pin load capacitance (fF) *)
  module_id : int;  (** index into the {!Activity.Rtl} module universe *)
}

val make : id:int -> loc:Geometry.Point.t -> cap:float -> module_id:int -> t
(** Raises [Invalid_argument] on a negative id/module id or a non-positive
    or non-finite load capacitance. *)

val validate_array : t array -> unit
(** Checks that [a.(i).id = i] for all [i] and that the array is non-empty;
    raises [Invalid_argument] otherwise. Every tree-construction entry point
    calls this. *)

val subset : t array -> int array -> t array
(** [subset sinks idxs] is the sinks at indices [idxs], re-indexed to
    dense ids [0..k-1] in [idxs] order, as {!validate_array} requires of
    any router input (a shard region, an ECO repair region). *)

val pp : Format.formatter -> t -> unit
