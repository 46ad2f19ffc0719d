(** The conformance fuzzer: generate scenarios, run the whole pipeline,
    check every invariant and oracle, shrink failures to minimal
    reproducers and dump them as re-runnable seed files. *)

val check : Scenario.t -> unit
(** The full conformance check of one scenario:

    - {!Gcr.Flow.run} of the scenario, then {!Gcr.Verify.structural}
      on the result (zero skew by independent Elmore recomputation,
      enable OR-consistency, governing chains, cost accounting);
    - {!Oracles.analytic_vs_simulated} — cycle-accurate replay vs. the
      analytic cost model;
    - {!Oracles.signature_vs_tables} — signature kernel vs. table scans;
    - staged determinism — [run] equals
      [apply_sizing ∘ apply_reduction ∘ Router.route] bit-for-bit;
    - greedy reduction monotonicity — {!Gcr.Gate_reduction.reduce_greedy}
      never increases [W];
    - {!Oracles.reduce_matches_reference} on the routed tree — the
      greedy and count-targeted reducers pick the reference's gates;
    - {!Oracles.router_matches_scan} — the flat router's spatial index
      merges exactly as the exhaustive scan;
    - {!Oracles.nn_matches_scan} — the nearest-neighbor topology merges
      exactly as the exhaustive scan, with and without edge buffers;
    - {!Oracles.engine_vs_dense} and {!Oracles.domains_determinism}.

    Raises [Failure] (or the pipeline's own exception) on violation. *)

val fails : (Scenario.t -> unit) -> Scenario.t -> string option
(** [fails check sc] is [Some message] when [check sc] raises (any
    exception counts as a failure), [None] when it passes. *)

val minimize : ?rounds:int -> (Scenario.t -> unit) -> Scenario.t -> Scenario.t
(** Greedy shrinking: repeatedly try structurally smaller variants of a
    failing scenario (half / one fewer sinks, half the stream, dropped
    unused instructions, defaulted options, tech and controllers) and
    keep the first that still fails, until none does or [rounds]
    (default 100) shrink steps were taken. The result still fails
    [check] whenever the input does. *)

type failure = {
  scenario : Scenario.t;  (** as generated *)
  shrunk : Scenario.t;  (** after {!minimize} *)
  error : string;  (** failure message of the shrunk scenario *)
  seed_file : string option;  (** reproducer path when [out_dir] was given *)
}

type stats = {
  scenarios : int;
  failures : failure list;
  elapsed_s : float;
  coverage : (string * int) list;
      (** scenarios per {!Scenario.label} bucket, sorted by label *)
}

val run :
  ?out_dir:string ->
  ?check:(Scenario.t -> unit) ->
  count:int ->
  seed:int ->
  unit ->
  stats
(** Generate and check [count] scenarios from [seed]. Failures are
    shrunk and — when [out_dir] is given (created if missing) — dumped
    as [fail-seed<seed>-case<i>.scenario] reproducers. Never raises on a
    failing scenario; inspect [failures]. *)

val replay : ?check:(Scenario.t -> unit) -> string -> unit
(** Load a reproducer seed file and run the check on it, letting any
    failure propagate — [gcr fuzz --replay]. *)

val pp_stats : Format.formatter -> stats -> unit
