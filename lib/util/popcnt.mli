(** Population count of a native int's (Sys.int_size)-bit representation.

    Backed by the hardware instruction through a [\@\@noalloc] C stub, with
    a pure-OCaml SWAR fallback. The two agree on {e every} input —
    including negatives, whose intnat sign extension the stub masks off —
    and the active side is picked once at module init: a startup
    self-test confirms the stub against the fallback and prefers it. *)

val count : int -> int
(** Number of set bits in the OCaml-int-width two's-complement
    representation, e.g. [count (-1) = Sys.int_size]. *)

val stub_count : int -> int
(** The C stub directly, for differential tests against {!count_ocaml}. *)

val count_ocaml : int -> int
(** The pure-OCaml fallback directly. *)
