(** Typed error taxonomy of the gated-clock-routing pipeline.

    Every failure a user can provoke — malformed files, degenerate
    geometry, exhausted budgets — and every failure the pipeline can
    detect about itself — a non-finite intermediate, an engine
    disagreeing with its oracle — is one of these constructors, so
    callers (the CLI, {!Gcr.Flow.run_checked}, the fault-injection
    harness) can react per class instead of string-matching exception
    payloads. *)

type t =
  | Parse of { file : string; line : int; col : int; msg : string }
      (** Malformed input text; [col] is 1-based, 0 when unknown. *)
  | Degenerate_input of { what : string; detail : string }
      (** Structurally valid but unusable input: no sinks, zero
          capacitance, module ids outside the profile … *)
  | Numerical of { stage : string; value : float; context : string }
      (** A non-finite or out-of-domain float detected at a stage
          boundary; [value] is the offending number. *)
  | Resource_limit of { stage : string; limit : string; detail : string }
      (** A wall-clock, merge-step, stack or memory budget exhausted. *)
  | Engine_mismatch of { stage : string; detail : string }
      (** An engine's answer failed an independent recomputation — the
          invariant checks, the differential oracles. *)
  | Internal of { stage : string; detail : string }
      (** A stray exception no other class explains. *)

exception Error of t

val raise_t : t -> 'a

val degenerate : what:string -> ('a, unit, string, 'b) format4 -> 'a

val numerical : stage:string -> value:float -> ('a, unit, string, 'b) format4 -> 'a

val mismatch : stage:string -> ('a, unit, string, 'b) format4 -> 'a

val internal : stage:string -> ('a, unit, string, 'b) format4 -> 'a

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val exit_code : t -> int
(** BSD-sysexits mapping: 65 (data) for [Parse]/[Degenerate_input], 70
    (internal) for [Numerical]/[Engine_mismatch]/[Internal], 75
    (temp failure) for [Resource_limit]. Usage errors (64) are the
    CLI's own. *)

val of_exn : stage:string -> exn -> t
(** Classify a stray exception caught at a stage boundary: [Error]
    unwraps, [Invalid_argument] is a data precondition
    ([Degenerate_input]), [Stack_overflow]/[Out_of_memory] are
    resource limits, anything else is [Internal]. *)

val guard : stage:string -> (unit -> 'a) -> ('a, t) result
(** Run a stage, converting any exception through {!of_exn}. *)

val check_finite : stage:string -> context:string -> float -> unit
(** Raise [Error (Numerical …)] when the float is NaN or infinite. *)

val message_of_exn : exn -> string
(** {!to_string} for [Error], [Printexc.to_string] otherwise. *)
