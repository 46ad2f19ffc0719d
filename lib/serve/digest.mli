(** Order-sensitive 64-bit digest of a gated tree's identity.

    Hashes {e exactly} the fields {!Conformance.Oracles.same_tree}
    compares — topology, skew budget, sharing parameters, test mode, and
    per node the hardware kind, governing gate, size factor, enable set
    and statistics, embedded location, edge length, share representative,
    shared enable, and bypass flag — so two trees digest equally iff
    [same_tree] accepts them (modulo the astronomically unlikely 64-bit
    collision). This is how a serve client proves a daemon's answer
    bit-identical to a local one-shot run without shipping the tree back
    over the wire. *)

(** {1 FNV-1a core}

    The byte hash behind {!tree} and {!Cache.workload_key}. *)

type state

val start : unit -> state

val byte : state -> int -> unit
(** Hash the low 8 bits. *)

val int : state -> int -> unit
(** 8 bytes, least significant first. *)

val string : state -> string -> unit

val value : state -> int64

(** {1 Tree digest} *)

val tree : Gcr.Gated_tree.t -> int64
(** FNV-1a over the identity fields, in a fixed field order. Floats are
    hashed by IEEE bit pattern with [-0.] canonicalized to [0.] (the
    oracle's [<>] treats them equal). *)

val to_hex : int64 -> string
(** 16 lowercase hex digits, zero-padded. *)

val of_hex : string -> int64 option
(** Inverse of {!to_hex}; [None] unless exactly 16 hex digits. *)
