(** The routing daemon: accept, admit, schedule, answer, drain.

    One process serves many connections; each connection carries a
    pipelined stream of {!Proto} request frames and receives response
    frames {e in completion order} (the echoed [id] matches them up).
    The architecture is a strict pipeline with a typed failure at every
    stage:

    {v
    accept -> frame decode -> request parse -> admission -> pool
           -> Flow.run_checked_info ladder -> audit -> respond
    v}

    - {b Admission} is bounded ({!Pool}): a full queue answers a
      [Resource_limit] reject with a [retry_after_ms] hint immediately.
    - {b Budgets}: each request runs under its own wall budget (its
      [budget_ms], else the server default) riding the degradation
      ladder, so overload produces degraded-but-answered responses —
      the winning rung and skipped stages are tagged in the answer.
    - {b Isolation}: every request is evaluated inside
      {!Util.Gcr_error.guard}; a malformed or crashing request becomes a
      typed reject on its own connection and nothing else.
    - {b Timeouts} ride the monotonic {!Util.Obs.Clock}: a peer stalling
      mid-frame past [read_timeout_s] is rejected and dropped
      (slowloris), an idle connection past [idle_timeout_s] is closed,
      and response writes give up after [write_timeout_s] so a
      non-reading client cannot wedge a connection thread.
    - {b Drain} ([stop ()] turning true — SIGTERM/SIGINT via
      {!install_signal_stop}): the listener closes, admission rejects
      with [`Draining], in-flight work finishes (or degrades under its
      budget), responses flush, worker domains and connection threads
      join, and {!run} returns its {!stats}. *)

type address = Unix_socket of string | Tcp of string * int

val inet_addr : string -> Unix.inet_addr
(** A {!Tcp} host: loopback when empty or unresolvable. *)

type config = {
  address : address;
  workers : int;  (** routing worker domains *)
  queue_cap : int;  (** admission-queue bound *)
  max_frame : int;  (** payload size limit ({!Frame}) *)
  read_timeout_s : float;  (** max silence mid-frame before reject *)
  idle_timeout_s : float;  (** max silence between frames; 0 = none *)
  write_timeout_s : float;  (** per-response write deadline *)
  default_budget_ms : float option;  (** wall budget when unspecified *)
  paranoid : bool;  (** force {!Gcr.Flow.mode} [Paranoid] *)
  cache_capacity : int;  (** resident workloads ({!Cache}) *)
  max_merge_steps : int option;  (** request size limit, as merge steps *)
  hold_workers : bool;
      (** test hook, [false] by default: {!Pool.create}'s [hold], so a
          burst is admitted deterministically *)
}

val default_config : address -> config
(** 2 workers, queue of 64, 16 MiB frames, 10 s read / 300 s idle / 10 s
    write timeouts, no default budget, 32 workloads, no merge-step
    limit. *)

type stats = {
  connections : int;
  requests : int;  (** frames parsed as requests (well- or ill-formed) *)
  answered : int;
  rejected_backpressure : int;
  rejected_other : int;  (** typed rejects other than backpressure *)
  junk_bytes : int;  (** garbage skipped by frame resync *)
  oversized : int;
  midframe_disconnects : int;
  timeouts : int;  (** read-stall and write-stall drops *)
  backstop_errors : int;  (** must be 0: worker-level escape hatch *)
  drained_clean : bool;
      (** every connection thread flushed and exited within the grace
          period *)
}

val pp_stats : Format.formatter -> stats -> unit

val run :
  ?stop:(unit -> bool) -> ?on_ready:(Unix.sockaddr -> unit) -> config -> stats
(** Serve until [stop ()] turns true (polled at ≤0.25 s intervals), then
    drain and return. [on_ready] fires once with the bound address after
    [listen] — TCP port 0 resolves to the kernel-chosen port. Raises
    [Unix.Unix_error] only for listener setup failures; everything after
    is absorbed into per-connection handling. *)

val install_signal_stop : unit -> unit -> bool
(** Install SIGTERM/SIGINT handlers and return the [stop] predicate they
    trip. Also ignores SIGPIPE (a dropped client must surface as
    [EPIPE], not kill the daemon). *)
