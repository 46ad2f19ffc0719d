(** The routing service's request/response messages and their JSON
    codecs.

    One frame payload ({!Frame}) is one single-line JSON document in the
    same hand-rolled stable dialect as {!Util.Obs.to_json} (floats as
    [%.17g], ASCII strings, fixed field order), parsed back with
    {!Util.Obs.Json.parse_located} so a malformed document is rejected
    with the failing byte offset — the server turns that offset into a
    caret diagnostic in the reject message.

    A {b request} carries a whole scenario by value, as the rendered
    {!Conformance.Scenario} text (the exact format [gcr route] and the
    fuzz replay files use): the daemon re-parses it with the same parser
    as the one-shot CLI, which is what makes "bit-identical to one-shot"
    a meaningful contract and makes a poison request fail with the same
    caret-located parse error a poison file would.

    A {b response} is either an [Answer] — the routed tree summarized by
    its {!Digest}, cost figures, and degradation provenance (which
    ladder rung produced it, which stages were skipped) — or a [Reject]
    carrying a typed {!Util.Gcr_error} class, its sysexits code, and for
    backpressure rejects a [retry_after_ms] hint. *)

type kind =
  | Route  (** route the scenario as-is (the default; absent in JSON) *)
  | Update of { chunk : int array }
      (** ingest [chunk] (instruction indices over the scenario's RTL)
          into the workload's streaming profile first — advancing its
          {!Cache} epoch — then route against the drifted profile *)

type request = {
  id : int;  (** client-chosen, echoed in the response *)
  scenario : string;  (** rendered {!Conformance.Scenario} text *)
  budget_ms : float option;
      (** per-request wall budget for {!Gcr.Flow.run_checked_info};
          [None] = the server's default *)
  paranoid : bool;  (** run with {!Gcr.Flow.mode} [Paranoid] *)
  kind : kind;
}

type answer = {
  id : int;
  rung : string;  (** degradation-ladder rung that routed the tree *)
  degraded : string list;
      (** stages downgraded or skipped, in event order; [[]] = clean *)
  digest : string;  (** {!Digest.to_hex} of the resulting tree *)
  w_total : float;  (** switched capacitance per cycle *)
  gates : int;
  buffers : int;
  wirelen : float;
  audit_hits : int;
      (** always 0: the response audit memoizes nothing; the field is
          kept for the wire format *)
  audit_misses : int;  (** tree nodes the response audit re-derived *)
  cache_warm : bool;  (** the workload profile was already resident *)
  epoch : int;
      (** profile epoch the tree was routed (and audited) against — 0
          until the workload's first [Update]; the server re-routes when
          the workload's epoch moved past this one mid-request, so an
          answer can never silently mix tables from two epochs *)
  elapsed_ms : float;  (** service time, queue wait excluded *)
}

type reject = {
  id : int option;  (** [None] when the request itself was unparseable *)
  error_class : string;  (** {!error_class} of the typed error *)
  exit_code : int;  (** {!Util.Gcr_error.exit_code} mapping *)
  message : string;
  retry_after_ms : float option;
      (** backpressure hint: expected queue relief time *)
}

type response = Answer of answer | Reject of reject

val error_class : Util.Gcr_error.t -> string
(** Stable class tag: ["parse"], ["degenerate-input"], ["numerical"],
    ["resource-limit"], ["engine-mismatch"], ["internal"]. *)

val reject_of_error :
  ?id:int -> ?retry_after_ms:float -> Util.Gcr_error.t -> response
(** Package a typed error as a [Reject] (class, sysexits code and
    rendered message filled in). *)

val request_to_json : request -> string

val request_of_json : string -> (request, string * int) result
(** [(message, byte offset)] on failure; offset 0 for well-formed JSON
    of the wrong shape. *)

val response_to_json : response -> string

val response_of_json : string -> (response, string * int) result
