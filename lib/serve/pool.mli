(** Bounded-admission Domains worker pool.

    The daemon's scheduling core: a fixed set of worker domains draining
    one FIFO whose depth is capped at admission time. The cap is the
    backpressure mechanism — when the queue is full, {!submit} rejects
    {e immediately} with the current depth and a service-time estimate so
    the caller can answer [Resource_limit] + retry-after instead of
    queueing to death; latency under overload stays bounded by
    [queue_cap x service_time] by construction.

    Isolation: a job that raises never takes a worker down — the
    exception is counted, reported to the job's own error path by the
    submitter's wrapping (workers here are a backstop, not the primary
    boundary), and the domain moves on.

    Shutdown is {!drain}: admission closes ([`Draining] rejects), queued
    and in-flight jobs run to completion, workers exit and are joined.
    Jobs carry no worker identity: any per-request state a job needs is
    created inside the job itself. *)

type t

val create : ?hold:bool -> workers:int -> queue_cap:int -> unit -> t
(** Spawn [workers] domains. [queue_cap] bounds jobs {e waiting} (in
    flight not counted). Raises [Invalid_argument] unless both are
    positive.

    [hold] (default [false]) is a test hook that makes admission under a
    burst deterministic: {!create} returns once every worker waits for a
    job, {!submit} returns only after an idle worker (if any) has taken
    the job it accepted, and a worker that took a job starts it only
    once {!submit} has turned a job away as [`Full] or {!drain} began.
    A burst against [w] idle workers then admits exactly [w + queue_cap]
    jobs before its first rejection. *)

val workers : t -> int

val submit :
  t -> (unit -> unit) -> [ `Accepted | `Full of int | `Draining ]
(** Enqueue a job, or reject: [`Full depth] when the queue is at
    capacity, [`Draining] after {!drain} began. Never blocks. *)

val service_time_ms : t -> float
(** Exponentially-weighted average job time, for retry-after hints; 0
    until the first job completes. *)

val backstop_errors : t -> int
(** Jobs that raised out of their own error boundary (each one is a bug
    in the submitter's wrapping; counted so tests can assert zero). *)

val drain : t -> unit
(** Close admission, run everything already accepted, join the workers.
    Idempotent; safe from any thread except a pool worker itself. *)
