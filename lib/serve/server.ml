type address = Unix_socket of string | Tcp of string * int

type config = {
  address : address;
  workers : int;
  queue_cap : int;
  max_frame : int;
  read_timeout_s : float;
  idle_timeout_s : float;
  write_timeout_s : float;
  default_budget_ms : float option;
  paranoid : bool;
  cache_capacity : int;
  max_merge_steps : int option;
  hold_workers : bool;
}

let default_config address =
  {
    address;
    workers = 2;
    queue_cap = 64;
    max_frame = Frame.default_max_frame;
    read_timeout_s = 10.0;
    idle_timeout_s = 300.0;
    write_timeout_s = 10.0;
    default_budget_ms = None;
    paranoid = false;
    cache_capacity = 32;
    max_merge_steps = None;
    hold_workers = false;
  }

type stats = {
  connections : int;
  requests : int;
  answered : int;
  rejected_backpressure : int;
  rejected_other : int;
  junk_bytes : int;
  oversized : int;
  midframe_disconnects : int;
  timeouts : int;
  backstop_errors : int;
  drained_clean : bool;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>connections          %6d@,\
     requests             %6d@,\
     answered             %6d@,\
     rejected backpressure %5d@,\
     rejected other       %6d@,\
     junk bytes skipped   %6d@,\
     oversized frames     %6d@,\
     mid-frame disconnects %5d@,\
     stalled-peer drops   %6d@,\
     backstop errors      %6d@,\
     drained clean        %6b@]"
    s.connections s.requests s.answered s.rejected_backpressure
    s.rejected_other s.junk_bytes s.oversized s.midframe_disconnects s.timeouts
    s.backstop_errors s.drained_clean

(* Obs mirrors of the stats record: visible in traced runs and flushed
   with the rest of the counters on drain. *)
let obs_requests = Util.Obs.counter "serve.requests"

let obs_answered = Util.Obs.counter "serve.answered"

let obs_rejected = Util.Obs.counter "serve.rejected"

let obs_junk = Util.Obs.counter "serve.junk_bytes"

let obs_oversized = Util.Obs.counter "serve.oversized"

let obs_disconnects = Util.Obs.counter "serve.disconnects"

let obs_timeouts = Util.Obs.counter "serve.timeouts"

let now = Util.Obs.Clock.now

exception Write_timeout

type acc = {
  a_connections : int Atomic.t;
  a_requests : int Atomic.t;
  a_answered : int Atomic.t;
  a_backpressure : int Atomic.t;
  a_rejected : int Atomic.t;
  a_junk : int Atomic.t;
  a_oversized : int Atomic.t;
  a_midframe : int Atomic.t;
  a_timeouts : int Atomic.t;
}

type conn = {
  fd : Unix.file_descr;
  wake_rd : Unix.file_descr;
  wake_wr : Unix.file_descr;  (* self-pipe: workers nudge the IO thread *)
  dec : Frame.decoder;
  m : Mutex.t;
  out : string Queue.t;  (* encoded response frames awaiting write *)
  mutable in_flight : int;  (* admitted requests not yet enqueued back *)
  mutable closed : bool;
}

type t = {
  cfg : config;
  pool : Pool.t;
  cache : Cache.t;
  acc : acc;
  draining : bool Atomic.t;
  live : int Atomic.t;  (* connection threads still running *)
  conns_m : Mutex.t;
  mutable conns : conn list;
}

let mark_closed conn =
  Mutex.lock conn.m;
  let first = not conn.closed in
  conn.closed <- true;
  Mutex.unlock conn.m;
  if first then begin
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    (try Unix.close conn.wake_rd with Unix.Unix_error _ -> ());
    try Unix.close conn.wake_wr with Unix.Unix_error _ -> ()
  end

let wake conn =
  try ignore (Unix.write conn.wake_wr (Bytes.make 1 'w') 0 1)
  with Unix.Unix_error _ -> ()

(* Enqueue a response frame for the connection's IO thread. [finishing]
   releases one in-flight count (the job path); admission rejects are not
   in flight. Responses for a connection that died meanwhile are
   dropped — the client is gone, there is nobody to tell. *)
let enqueue srv conn ?(finishing = false) resp =
  (match resp with
  | Proto.Answer _ ->
    Atomic.incr srv.acc.a_answered;
    Util.Obs.incr obs_answered
  | Proto.Reject { retry_after_ms = Some _; _ } ->
    Atomic.incr srv.acc.a_backpressure;
    Util.Obs.incr obs_rejected
  | Proto.Reject _ ->
    Atomic.incr srv.acc.a_rejected;
    Util.Obs.incr obs_rejected);
  let frame = Frame.encode ~max_frame:max_int (Proto.response_to_json resp) in
  Mutex.lock conn.m;
  if finishing then conn.in_flight <- conn.in_flight - 1;
  let alive = not conn.closed in
  if alive then Queue.push frame conn.out;
  Mutex.unlock conn.m;
  if alive then wake conn

(* Render a byte-offset failure as a caret excerpt by round-tripping it
   through the located parse-error machinery. *)
let caret_message ~source ~text ~offset msg =
  match Formats.Parse.fail_at_offset ~source ~text ~offset "%s" msg with
  | (_ : unit) -> msg
  | exception e -> Option.value (Formats.Parse.error_to_string e) ~default:msg

(* ------------------------------------------------------------------ *)
(* Request evaluation (worker domain)                                 *)
(* ------------------------------------------------------------------ *)

let evaluate cfg cache (req : Proto.request) =
  let t0 = now () in
  let result =
    Util.Gcr_error.guard ~stage:"serve:request" (fun () ->
        let scenario =
          let source = Printf.sprintf "request:%d" req.id in
          try Conformance.Scenario.parse ~source req.scenario
          with Formats.Parse.Error _ as e ->
            (* Keep the caret excerpt: the typed Parse error's message is
               replaced by the fully rendered diagnostic, so the client
               sees the same thing a one-shot CLI run would print. *)
            let rendered =
              Option.value
                (Formats.Parse.error_to_string e)
                ~default:"malformed scenario"
            in
            (* [error_to_string] leads with the "<file>:<line>:<col>: "
               location that [Gcr_error.to_string] will prefix again, so
               drop it here and keep only the message + caret excerpt. *)
            let strip_location s =
              let n = String.length s and p = String.length source in
              if n > p && String.sub s 0 p = source && s.[p] = ':' then begin
                let i = ref (p + 1) in
                while
                  !i < n
                  && (match s.[!i] with '0' .. '9' | ':' -> true | _ -> false)
                do
                  incr i
                done;
                if !i < n && s.[!i] = ' ' then String.sub s (!i + 1) (n - !i - 1)
                else s
              end
              else s
            in
            Util.Gcr_error.raise_t
              (match Formats.Parse.to_gcr_error e with
              | Some (Util.Gcr_error.Parse { file; line; col; msg = _ }) ->
                Util.Gcr_error.Parse
                  { file; line; col; msg = strip_location rendered }
              | Some ge -> ge
              | None -> assert false)
        in
        let budget_ms =
          match req.budget_ms with
          | Some _ as b -> b
          | None -> cfg.default_budget_ms
        in
        (match budget_ms with
        | Some b when not (Float.is_finite b && b >= 0.0) ->
          Util.Gcr_error.degenerate ~what:"budget_ms"
            "wall budget %g ms must be finite and non-negative" b
        | _ -> ());
        (* An update request advances the workload's profile epoch first
           (atomically swapping the profile), then routes like any other
           request — the route below picks up the drifted tables through
           the ordinary lookup. *)
        (match req.kind with
        | Proto.Route -> ()
        | Proto.Update { chunk } ->
          ignore (Cache.update cache scenario ~chunk));
        let config = Conformance.Scenario.config scenario in
        let limits =
          {
            Gcr.Flow.wall_seconds = Option.map (fun ms -> ms /. 1000.0) budget_ms;
            max_merge_steps = cfg.max_merge_steps;
          }
        in
        let mode =
          if req.paranoid || cfg.paranoid then Gcr.Flow.Paranoid
          else Gcr.Flow.Default
        in
        (* When a concurrent update advances the workload's epoch
           mid-route, the tree in hand no longer reflects the workload's
           tables: re-route against the fresh profile (bounded — each
           retry needs another update to land inside the route window).
           Otherwise — including when the workload was evicted, which
           publishes no newer epoch — the tree is audited against the
           profile it was routed with. *)
        let rec routed attempt =
          let key, profile, epoch, warm = Cache.profile cache scenario in
          match
            Gcr.Flow.run_checked_info ~mode ~limits
              ~options:scenario.Conformance.Scenario.options config profile
              scenario.Conformance.Scenario.sinks
          with
          | Error errs -> `Errs errs
          | Ok checked -> (
            let tree = checked.Gcr.Flow.tree in
            match Cache.epoch cache ~key with
            | Some current when current > epoch && attempt < 3 ->
              routed (attempt + 1)
            | Some current when current > epoch ->
              Util.Gcr_error.mismatch ~stage:"serve:audit"
                "workload profile kept advancing under evaluation (epoch %d \
                 -> %d after %d attempts)"
                epoch current attempt
            | Some _ | None ->
              let audit_hits, audit_misses =
                Cache.audit (Activity.Pcache.create profile) tree
              in
              `Answer
                {
                  Proto.id = req.id;
                  rung = checked.Gcr.Flow.rung;
                  degraded =
                    List.map
                      (fun (e : Gcr.Flow.event) -> e.Gcr.Flow.stage)
                      checked.Gcr.Flow.degraded;
                  digest = Digest.to_hex (Digest.tree tree);
                  w_total = Gcr.Cost.w_total tree;
                  gates = Gcr.Gated_tree.gate_count tree;
                  buffers = Gcr.Gated_tree.buffer_count tree;
                  wirelen =
                    Clocktree.Embed.total_wirelength tree.Gcr.Gated_tree.embed;
                  audit_hits;
                  audit_misses;
                  cache_warm = warm;
                  epoch;
                  elapsed_ms = (now () -. t0) *. 1000.0;
                })
        in
        routed 0)
  in
  match result with
  | Ok (`Answer a) -> Proto.Answer a
  | Ok (`Errs (first :: _ as errs)) ->
    Proto.Reject
      {
        id = Some req.id;
        error_class = Proto.error_class first;
        exit_code = Util.Gcr_error.exit_code first;
        message = String.concat "; " (List.map Util.Gcr_error.to_string errs);
        retry_after_ms = None;
      }
  | Ok (`Errs []) ->
    Proto.reject_of_error ~id:req.id
      (Util.Gcr_error.Internal
         { stage = "serve:request"; detail = "empty error list" })
  | Error e -> Proto.reject_of_error ~id:req.id e

(* ------------------------------------------------------------------ *)
(* Per-connection IO thread                                           *)
(* ------------------------------------------------------------------ *)

let retry_after_hint srv depth =
  let per_ms = Float.max (Pool.service_time_ms srv.pool) 1.0 in
  per_ms *. float_of_int (depth + 1) /. float_of_int (Pool.workers srv.pool)

let handle_frame srv conn payload =
  Atomic.incr srv.acc.a_requests;
  Util.Obs.incr obs_requests;
  match Proto.request_of_json payload with
  | Error (msg, offset) ->
    let message =
      caret_message ~source:"request-frame" ~text:payload ~offset msg
    in
    enqueue srv conn
      (Proto.Reject
         {
           id = None;
           error_class = "parse";
           exit_code = 65;
           message;
           retry_after_ms = None;
         })
  | Ok req -> (
    Mutex.lock conn.m;
    conn.in_flight <- conn.in_flight + 1;
    Mutex.unlock conn.m;
    let job () = enqueue srv conn ~finishing:true (evaluate srv.cfg srv.cache req) in
    match Pool.submit srv.pool job with
    | `Accepted -> ()
    | (`Full _ | `Draining) as why ->
      Mutex.lock conn.m;
      conn.in_flight <- conn.in_flight - 1;
      Mutex.unlock conn.m;
      let retry_after_ms, detail =
        match why with
        | `Full depth ->
          ( Some (retry_after_hint srv depth),
            Printf.sprintf "admission queue full (%d waiting)" depth )
        | `Draining -> (None, "server is draining")
      in
      enqueue srv conn
        (Proto.reject_of_error ~id:req.id ?retry_after_ms
           (Util.Gcr_error.Resource_limit
              {
                stage = "serve:admission";
                limit = Printf.sprintf "queue_cap = %d" srv.cfg.queue_cap;
                detail;
              })))

let write_frame srv conn frame =
  let deadline = now () +. srv.cfg.write_timeout_s in
  let n = String.length frame in
  let pos = ref 0 in
  while !pos < n do
    let remain = deadline -. now () in
    if remain <= 0.0 then raise Write_timeout;
    let _, w, _ = Unix.select [] [ conn.fd ] [] (Float.min remain 0.25) in
    if w <> [] then
      pos := !pos + Unix.write_substring conn.fd frame !pos (n - !pos)
  done

let drain_wake_pipe conn =
  let buf = Bytes.create 64 in
  try
    ignore
      (Unix.read conn.wake_rd buf 0 64 : int)
  with Unix.Unix_error _ -> ()

let timeout_reject stage detail =
  Util.Gcr_error.Resource_limit { stage; limit = "peer timeout"; detail }

let conn_loop srv conn =
  let tick = 0.25 in
  let last_activity = ref (now ()) in
  let close_after_flush = ref false in
  let oversize_reported = ref false in
  let buf = Bytes.create 65536 in
  let rec pump () =
    match Frame.next conn.dec with
    | Ok None -> ()
    | Ok (Some (Frame.Frame payload)) ->
      handle_frame srv conn payload;
      pump ()
    | Ok (Some (Frame.Junk { skipped; _ })) ->
      Atomic.fetch_and_add srv.acc.a_junk skipped |> ignore;
      Util.Obs.add obs_junk skipped;
      pump ()
    | Error (`Oversized n) ->
      if not !oversize_reported then begin
        oversize_reported := true;
        Atomic.incr srv.acc.a_oversized;
        Util.Obs.incr obs_oversized;
        enqueue srv conn
          (Proto.reject_of_error
             (Util.Gcr_error.Resource_limit
                {
                  stage = "serve:frame";
                  limit = Printf.sprintf "max_frame = %d bytes" srv.cfg.max_frame;
                  detail =
                    Printf.sprintf
                      "frame header claims a %d-byte payload; dropping the \
                       connection (resynchronization inside an oversized \
                       frame is unsound)"
                      n;
                }));
        close_after_flush := true
      end
  in
  let running = ref true in
  (* The peer shut down its write side cleanly: no more requests, but
     everything admitted is still owed a response (a half-closed socket
     reads fine from the client's end — this is how batch clients
     pipeline-then-wait). *)
  let eof = ref false in
  while !running do
    (* 1. Flush responses queued by the workers. *)
    let pending =
      Mutex.lock conn.m;
      let l = List.of_seq (Queue.to_seq conn.out) in
      Queue.clear conn.out;
      Mutex.unlock conn.m;
      l
    in
    (try List.iter (write_frame srv conn) pending with
    | Write_timeout ->
      Atomic.incr srv.acc.a_timeouts;
      Util.Obs.incr obs_timeouts;
      running := false
    | Unix.Unix_error _ -> running := false);
    if !running then begin
      let draining = Atomic.get srv.draining in
      (* 2. Exit conditions: poisoned links close once their reject is
         flushed; draining links close once all admitted work answered. *)
      Mutex.lock conn.m;
      let out_empty = Queue.is_empty conn.out in
      let in_flight = conn.in_flight in
      Mutex.unlock conn.m;
      if !close_after_flush && out_empty then running := false
      else if (draining || !eof) && out_empty && in_flight = 0 then
        running := false
      else begin
        (* 3. Wait for input, a worker nudge, or a tick. During drain,
           after poisoning, and past EOF we stop reading: no new work is
           admitted. *)
        let read_fds =
          if draining || !close_after_flush || !eof then [ conn.wake_rd ]
          else [ conn.fd; conn.wake_rd ]
        in
        match Unix.select read_fds [] [] tick with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error _ -> running := false
        | r, _, _ ->
          if List.mem conn.wake_rd r then drain_wake_pipe conn;
          if List.mem conn.fd r then begin
            match Unix.read conn.fd buf 0 (Bytes.length buf) with
            | exception Unix.Unix_error _ -> running := false
            | 0 ->
              (* EOF. Disconnecting mid-frame is a fault (truncated
                 request) diagnosed by counter, and nothing is owed: drop
                 the link. A clean EOF at a frame boundary instead enters
                 flush mode — finish in-flight work, write every pending
                 response, then close. *)
              if Frame.awaiting conn.dec > 0 then begin
                Atomic.incr srv.acc.a_midframe;
                Util.Obs.incr obs_disconnects;
                running := false
              end
              else eof := true
            | k ->
              last_activity := now ();
              Frame.feed conn.dec ~len:k (Bytes.unsafe_to_string buf);
              pump ()
          end;
          (* 4. Stall detection on the monotonic clock. *)
          if !running && not draining && not !close_after_flush then begin
            let silent = now () -. !last_activity in
            if Frame.awaiting conn.dec > 0 && silent > srv.cfg.read_timeout_s
            then begin
              Atomic.incr srv.acc.a_timeouts;
              Util.Obs.incr obs_timeouts;
              enqueue srv conn
                (Proto.reject_of_error
                   (timeout_reject "serve:read"
                      (Printf.sprintf
                         "no bytes for %.1f s inside a frame (limit %.1f s)"
                         silent srv.cfg.read_timeout_s)));
              close_after_flush := true
            end
            else if
              srv.cfg.idle_timeout_s > 0.0
              && silent > srv.cfg.idle_timeout_s
              && in_flight = 0 && out_empty
            then running := false
          end
      end
    end
  done;
  mark_closed conn

(* ------------------------------------------------------------------ *)
(* Accept loop and drain                                              *)
(* ------------------------------------------------------------------ *)

let make_conn srv fd =
  let wake_rd, wake_wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_wr;
  {
    fd;
    wake_rd;
    wake_wr;
    dec = Frame.decoder ~max_frame:srv.cfg.max_frame ();
    m = Mutex.create ();
    out = Queue.create ();
    in_flight = 0;
    closed = false;
  }

let inet_addr host =
  if host = "" then Unix.inet_addr_loopback
  else
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } -> Unix.inet_addr_loopback
      | h -> h.Unix.h_addr_list.(0)
      | exception Not_found -> Unix.inet_addr_loopback)

let listener_of_address = function
  | Unix_socket path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (inet_addr host, port));
    Unix.listen fd 64;
    (fd, fun () -> ())

let install_signal_stop () =
  let stop = Atomic.make false in
  let trip = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  Sys.set_signal Sys.sigterm trip;
  Sys.set_signal Sys.sigint trip;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  fun () -> Atomic.get stop

let run ?(stop = fun () -> false) ?on_ready cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listener, cleanup_addr = listener_of_address cfg.address in
  let pool =
    Pool.create ~hold:cfg.hold_workers ~workers:cfg.workers
      ~queue_cap:cfg.queue_cap ()
  in
  let cache = Cache.create ~capacity:cfg.cache_capacity () in
  let srv =
    {
      cfg;
      pool;
      cache;
      acc =
        {
          a_connections = Atomic.make 0;
          a_requests = Atomic.make 0;
          a_answered = Atomic.make 0;
          a_backpressure = Atomic.make 0;
          a_rejected = Atomic.make 0;
          a_junk = Atomic.make 0;
          a_oversized = Atomic.make 0;
          a_midframe = Atomic.make 0;
          a_timeouts = Atomic.make 0;
        };
      draining = Atomic.make false;
      live = Atomic.make 0;
      conns_m = Mutex.create ();
      conns = [];
    }
  in
  (match on_ready with
  | Some f -> f (Unix.getsockname listener)
  | None -> ());
  while not (stop ()) do
    match Unix.select [ listener ] [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept ~cloexec:true listener with
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
        Atomic.incr srv.acc.a_connections;
        Atomic.incr srv.live;
        let conn = make_conn srv fd in
        Mutex.lock srv.conns_m;
        srv.conns <- conn :: srv.conns;
        Mutex.unlock srv.conns_m;
        ignore
          (Thread.create
             (fun () ->
               Fun.protect
                 ~finally:(fun () -> Atomic.decr srv.live)
                 (fun () ->
                   try conn_loop srv conn with _ -> mark_closed conn))
             ()))
  done;
  (* Drain: stop accepting, answer everything admitted, flush, join. *)
  Atomic.set srv.draining true;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  cleanup_addr ();
  Pool.drain pool;
  Mutex.lock srv.conns_m;
  let conns = srv.conns in
  Mutex.unlock srv.conns_m;
  List.iter wake conns;
  let grace = now () +. Float.max 1.0 (2.0 *. cfg.write_timeout_s) in
  while Atomic.get srv.live > 0 && now () < grace do
    Thread.yield ();
    Unix.sleepf 0.02
  done;
  let drained_clean = Atomic.get srv.live = 0 in
  if not drained_clean then
    (* Force the stragglers' fds shut so their threads error out; the
       process is exiting and a stuck peer must not hold it hostage. *)
    List.iter mark_closed conns;
  {
    connections = Atomic.get srv.acc.a_connections;
    requests = Atomic.get srv.acc.a_requests;
    answered = Atomic.get srv.acc.a_answered;
    rejected_backpressure = Atomic.get srv.acc.a_backpressure;
    rejected_other = Atomic.get srv.acc.a_rejected;
    junk_bytes = Atomic.get srv.acc.a_junk;
    oversized = Atomic.get srv.acc.a_oversized;
    midframe_disconnects = Atomic.get srv.acc.a_midframe;
    timeouts = Atomic.get srv.acc.a_timeouts;
    backstop_errors = Pool.backstop_errors pool;
    drained_clean;
  }
