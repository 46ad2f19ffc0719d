(** Signal-probability handle over one profile.

    Stateless: {!p} is exactly {!Profile.p} and memoizes nothing, so one
    handle may serve any number of domains. A memo in front of the query
    did not pay (the serve audit's enable sets hardly repeat, and a
    direct table scan beat hash-and-probe at every size measured); the
    handle is kept because gcrbench's serve-mix probe creates one per
    audit. *)

type t

val create : Profile.t -> t

val p : t -> Module_set.t -> float
(** [p (create profile) s] = [Profile.p profile s]. *)
