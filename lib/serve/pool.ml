type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  jobs : (unit -> unit) Queue.t;
  queue_cap : int;
  mutable draining : bool;
  domains : unit Domain.t array Lazy.t;
      (* spawned after the record exists so workers can close over it *)
  ewma_ns : float Atomic.t;
  backstop : int Atomic.t;
  hold : bool;
  taken : Condition.t;
      (* [hold] only: a worker went idle or took a job, or admission
         released the held workers *)
  mutable idle : int; (* workers waiting for a job *)
  mutable released : bool; (* [hold]: a job was turned away as full *)
}

let service_time_ms t = Atomic.get t.ewma_ns /. 1e6

let backstop_errors t = Atomic.get t.backstop

let record_time t dt_ns =
  (* Lossy-under-race EWMA update is fine: this is a hint, not an
     accounting invariant. *)
  let prev = Atomic.get t.ewma_ns in
  let next = if prev = 0.0 then dt_ns else (0.8 *. prev) +. (0.2 *. dt_ns) in
  Atomic.set t.ewma_ns next

let worker t =
  let rec loop () =
    Mutex.lock t.mutex;
    t.idle <- t.idle + 1;
    if t.hold then Condition.broadcast t.taken;
    while Queue.is_empty t.jobs && not t.draining do
      Condition.wait t.nonempty t.mutex
    done;
    t.idle <- t.idle - 1;
    if Queue.is_empty t.jobs then begin
      (* draining and nothing left *)
      Mutex.unlock t.mutex;
      ()
    end
    else begin
      let job = Queue.pop t.jobs in
      if t.hold then begin
        Condition.broadcast t.taken;
        while not (t.released || t.draining) do
          Condition.wait t.taken t.mutex
        done
      end;
      Mutex.unlock t.mutex;
      let t0 = Util.Obs.Clock.now_ns () in
      (try job ()
       with _ ->
         (* The submitter's guard is the real boundary; anything landing
            here is a bug there, but it must not kill the worker. *)
         Atomic.incr t.backstop);
      record_time t (Int64.to_float (Int64.sub (Util.Obs.Clock.now_ns ()) t0));
      loop ()
    end
  in
  loop ()

let create ?(hold = false) ~workers ~queue_cap () =
  if workers <= 0 then invalid_arg "Pool.create: non-positive workers";
  if queue_cap <= 0 then invalid_arg "Pool.create: non-positive queue_cap";
  let rec t =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Queue.create ();
      queue_cap;
      draining = false;
      domains =
        lazy (Array.init workers (fun _ -> Domain.spawn (fun () -> worker t)));
      ewma_ns = Atomic.make 0.0;
      backstop = Atomic.make 0;
      hold;
      taken = Condition.create ();
      idle = 0;
      released = false;
    }
  in
  ignore (Lazy.force t.domains);
  if hold then begin
    (* Every worker is waiting before the first job can arrive. *)
    Mutex.lock t.mutex;
    while t.idle < workers do
      Condition.wait t.taken t.mutex
    done;
    Mutex.unlock t.mutex
  end;
  t

let workers t = Array.length (Lazy.force t.domains)

let submit t job =
  Mutex.lock t.mutex;
  let verdict =
    if t.draining then `Draining
    else begin
      let d = Queue.length t.jobs in
      if d >= t.queue_cap then begin
        if t.hold then begin
          t.released <- true;
          Condition.broadcast t.taken
        end;
        `Full d
      end
      else begin
        Queue.push job t.jobs;
        Condition.signal t.nonempty;
        (* [hold]: an idle worker takes the job before admission goes on. *)
        if t.hold then
          while t.idle > 0 && not (Queue.is_empty t.jobs) do
            Condition.wait t.taken t.mutex
          done;
        `Accepted
      end
    end
  in
  Mutex.unlock t.mutex;
  verdict

let drain t =
  Mutex.lock t.mutex;
  let first = not t.draining in
  t.draining <- true;
  Condition.broadcast t.nonempty;
  Condition.broadcast t.taken;
  Mutex.unlock t.mutex;
  if first then Array.iter Domain.join (Lazy.force t.domains)
