(** Process-global observability: monotonic clock, counters, gauges, and
    nested spans, with run reports rendered as text or stable JSON.

    This is the single instrumentation surface for the repo. Design goals,
    in order:

    - {b Cheap enough to leave compiled in.} With tracing disabled (the
      default) every probe — counter bump, gauge set, span entry — is one
      atomic load and a branch. Hot loops (greedy merges, signature
      queries) keep their handles in top-level lets so the
      enabled path is an atomic increment, never a hashtable lookup.
    - {b One time source.} {!Clock} reads [CLOCK_MONOTONIC] via a local C
      stub; budget and elapsed-time arithmetic anywhere in [lib/] must use
      it, never [Unix.gettimeofday]/[Sys.time], which step under NTP
      adjustment.
    - {b Zero dependencies.} No unix, no JSON library; the JSON codec here
      is a minimal hand-rolled writer/parser whose floats round-trip
      bit-for-bit ([%.17g]).

    Counters and gauges are domain-safe (atomics) and may be bumped from
    {!Parallel} workers. Spans keep an explicit per-process stack and must
    be opened/closed from the driving domain only. Tracing can be turned
    on for any process by setting [GCR_TRACE=1] in the environment. *)

module Clock : sig
  (** Monotonic time. Unrelated to the wall clock: use it only for
      durations and deadlines, never for timestamps shown to humans. *)

  val now_ns : unit -> int64
  (** Nanoseconds since an arbitrary fixed origin; never decreases. *)

  val now : unit -> float
  (** Same clock in seconds. Unboxed and allocation-free, suitable for
      deadline checks inside hot loops. *)
end

(** {1 Enabling} *)

val enabled : unit -> bool
(** Whether probes currently record. Starts [false] unless [GCR_TRACE] is
    set to a non-empty value other than ["0"] in the environment. *)

val set_enabled : bool -> unit

val reset : unit -> unit
(** Zero every counter, mark every gauge untouched, and drop all recorded
    spans. Call at the start of a run whose report should stand alone. *)

(** {1 Counters and gauges} *)

type counter
(** A named monotonic counter. Handles are interned by name: [counter n]
    always returns the same handle for the same [n]. *)

val counter : string -> counter
(** Intern a counter handle. Call once at module-init time and keep the
    handle; do not call inside hot loops. *)

val incr : counter -> unit
(** Add one. No-op while disabled. Domain-safe. *)

val add : counter -> int -> unit
(** Add [n]. No-op while disabled. Domain-safe. *)

val value : counter -> int
(** Current value (0 after {!reset}). Readable even while disabled. *)

type gauge
(** A named last-write-wins measurement (e.g. configured domain count). *)

val gauge : string -> gauge

val set : gauge -> float -> unit
(** Record the gauge's current value. No-op while disabled. Only gauges
    written since the last {!reset} appear in reports. *)

(** {1 Spans} *)

val span : name:string -> (unit -> 'a) -> 'a
(** [span ~name f] runs [f] and, when tracing is enabled, records its wall
    time and calling-domain minor-heap allocation delta under [name],
    nested in the innermost enclosing span. Same-name siblings aggregate
    (their [calls] field counts invocations). The span is closed — and
    the stack unwound — even when [f] raises. While disabled,
    [span ~name f] is [f ()]. *)

(** {1 Reports} *)

type span_report = {
  name : string;
  calls : int;
  time_s : float;  (** total wall time across all [calls] *)
  alloc_words : float;
      (** total words allocated in the calling domain's minor heap across
          all [calls] ({!Gc.minor_words}). Blocks too large for the minor
          heap go straight to the major heap and are not counted: the
          count that would add them moves with GC timing in OCaml 5, so
          it could not be compared from run to run. *)
  children : span_report list;  (** in first-entered order *)
}

type report = {
  spans : span_report list;  (** top-level spans, in first-entered order *)
  counters : (string * int) list;  (** nonzero counters, sorted by name *)
  gauges : (string * float) list;  (** touched gauges, sorted by name *)
}

val snapshot : unit -> report
(** Freeze everything recorded since the last {!reset}. *)

val run : (unit -> 'a) -> 'a * report
(** [run f] = {!reset}, enable tracing, run [f], {!snapshot}, restore the
    previous enabled state (also on exception, though the report is lost
    then since [f] produced no result). *)

(** {1 Sinks} *)

val render : report -> string
(** Pretty multi-table text (via {!Text_table}): span tree with time and
    allocations, counters (plus derived rates such as the greedy
    stale-pop rate when its counters are present), and gauges. *)

val to_json : report -> string
(** Stable single-line JSON document (trailing newline):
    [{"version":1,"spans":[...],"counters":{...},"gauges":{...}}]. Floats
    are printed with enough digits to round-trip exactly. *)

val of_json : string -> (report, string) result
(** Parse a document produced by {!to_json}. [Error msg] on malformed
    input or an unsupported version. [of_json (to_json r) = Ok r]. *)

val of_json_located : string -> (report, string * int) result
(** {!of_json} with the failing byte offset alongside the message (0 when
    the document is well-formed JSON of the wrong shape), so CLI sinks
    can point a caret at the offending byte of the source text. *)

(** Minimal dependency-free JSON reader and writer, shared with the
    tooling that consumes harness artifacts (bench trajectory compare,
    report diffing) and with every emitter ({!to_json}, the serve
    protocol, trajectory rows). Numbers are floats; strings must be ASCII
    after escape processing (the only form the writers emit). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val member : string -> t -> t option
  (** Field of an [Obj], [None] on a missing field or a non-object. *)

  val parse : string -> (t, string) result
  (** Parse one complete JSON document (trailing whitespace allowed). *)

  val parse_located : string -> (t, string * int) result
  (** {!parse} with the failing byte offset alongside the message. *)

  val add_string : Buffer.t -> string -> unit
  (** Append a quoted JSON string: quote, backslash, newline, carriage
      return and tab get their two-character escapes, other control
      characters a [\u00XX] escape; every other byte is copied. *)

  val add_float : Buffer.t -> float -> unit
  (** Append a float at [%.17g], which {!parse} reads back bit for bit
      (finite values only: JSON has no NaN or infinity). *)
end
