(* serve-mix: a `gcr serve` daemon in its own process (the default
   config but for one worker domain: 32-entry workload cache, no
   budgets) driven by this process over one closed-loop connection.

   The traffic: [n_designs] designs of 50-400 sinks with Zipf popularity
   (s = 1), each its own workload, so the working set is larger than the
   daemon's cache — a hot head stays warm while the tail churns. One
   request in 8 is an [Update] carrying a drift chunk. Requests are dealt
   from decks holding each design in proportion to its popularity, in a
   fixed shuffled order; the seed moves the sinks and draws the drift
   chunks. Options vary across reduction, sizing and gate share, with no
   budgets and no shards, so every answer is deterministic and is checked
   after timing against a one-shot Flow.run_checked_info at the same
   epoch. *)

open Common

type size = Inproc.size = Full | Shrunk

(* One worker behind one connection keeps the daemon within one vCPU
   (run.py also pins this workload to one CPU). On a shared 2-vCPU host
   the second vCPU comes and goes: with the default two workers behind
   two connections, ten runs spread 0.35 (p50 latency) to 0.55
   (throughput), following how much of the second vCPU the host
   granted. *)
let workers = 1

let update_share = 8 (* one request in [update_share] is an Update *)

let n_designs = function Full -> 40 | Shrunk -> 6

let stream_length = 2_000

(* The shape is fixed by rank, so runs on different seeds carry the same
   load; the seed moves the sinks and draws the drift chunks.

   Size and options both follow [r mod 8] (the design's kind), so each
   kind is one latency class, and a deck of 73 cards holds, from fast to
   slow: kinds 2, 5, 6, 7 (27 cards, 50-100 sinks), kind 0 (20 cards,
   150 sinks, the hottest design), kinds 3 and 4 (15 cards, 200 sinks)
   and kind 1 (11 cards, 400 sinks). Since the timed window holds whole
   decks, the median falls 9 cards inside kind 0 and the 90th percentile
   4 cards inside kind 1. Quantiles that fall on a class boundary jump
   between two classes from run to run: with the sizes
   [50 + 50 * (5r mod 8)] the 90th percentile sat 0.8% of the requests
   above the edge of its class, and ten runs spread 0.26 in p90. *)
let sinks_of_kind = [| 150; 400; 50; 200; 200; 100; 100; 50 |]

let sinks_of_rank size r =
  match size with Full -> sinks_of_kind.(r mod 8) | Shrunk -> 30 + (10 * (r mod 3))

let options_of_rank r =
  {
    Gcr.Flow.default with
    reduction =
      [| Gcr.Flow.Greedy; Gcr.Flow.Rules; Gcr.Flow.No_reduction; Gcr.Flow.Fraction 0.5 |].(r mod 4);
    sizing = [| Gcr.Flow.No_sizing; Gcr.Flow.Tapered; Gcr.Flow.Proportional |].(r mod 3);
    gate_share =
      (if r / 2 mod 2 = 0 then Gcr.Flow.No_share
       else Gcr.Flow.Share { min_instances = 1; eps = 0 });
  }

(* Scenario sinks sit on a 0.25 grid so the rendered text is exact. *)
let quant x = Float.round (x *. 4.0) /. 4.0

let design size ~seed r =
  let spec = Inproc.r1_scaled (sinks_of_rank size r) in
  let c =
    Inproc.case ~stream_length ~seed { spec with Benchmarks.Rbench.seed = 100 + r }
  in
  let st = Activity.Profile.stream c.profile in
  Conformance.Scenario.render
    {
      Conformance.Scenario.tag = Printf.sprintf "serve-mix %d" r;
      die_side = spec.Benchmarks.Rbench.die_side;
      k_controllers = 1;
      control_weight = 1.0;
      tech = Clocktree.Tech.default;
      sinks =
        Array.map
          (fun (s : Clocktree.Sink.t) ->
            {
              s with
              loc = Geometry.Point.make (quant s.loc.x) (quant s.loc.y);
              cap = quant s.cap;
            })
          c.sinks;
      rtl = Activity.Profile.rtl c.profile;
      stream = Array.init (Activity.Instr_stream.length st) (Activity.Instr_stream.get st);
      options = options_of_rank r;
      test_en = false;
    }

(* ------------------------------------------------------------------ *)
(* The daemon process                                                 *)
(* ------------------------------------------------------------------ *)

(* Entry point of the daemon subprocess: serve with the default config
   but [workers] until SIGTERM, then print what the run checks of the
   drain as one JSON line. *)
let daemon_main socket =
  Util.Obs.set_enabled false;
  let stop = Serve.Server.install_signal_stop () in
  let s =
    Serve.Server.run ~stop
      ~on_ready:(fun _ -> print_endline "ready")
      { (Serve.Server.default_config (Serve.Server.Unix_socket socket)) with workers }
  in
  Printf.printf
    "{\"backstop_errors\": %d, \"drained_clean\": %b, \"major_collections\": %d}\n%!"
    s.backstop_errors s.drained_clean (Gc.quick_stat ()).Gc.major_collections

type daemon = { pid : int; out : in_channel; socket : string }

let start_daemon socket =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "daemon"; "--socket"; socket |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  (match input_line out with
  | "ready" -> ()
  | line -> failwith ("daemon did not start: " ^ line)
  | exception End_of_file -> failwith "daemon exited before listening");
  { pid; out; socket }

(* SIGTERM, wait for the drain, and parse its statistics line. *)
let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  let line = try Some (input_line d.out) with End_of_file -> None in
  close_in d.out;
  let _, status = Unix.waitpid [] d.pid in
  let stats =
    match Option.map Util.Obs.Json.parse line with
    | Some (Ok j) -> Some j
    | _ -> None
  in
  (stats, status)

(* ------------------------------------------------------------------ *)
(* The load                                                           *)
(* ------------------------------------------------------------------ *)

type design = { text : string; n_instr : int }

type sent = {
  rank : int;
  updates : int;  (* updates sent for this design so far, this one included *)
  latency_ms : float;
  traced_req : bool;
  response : response;
}

and response =
  | Answer of Serve.Proto.answer
  | Rejected of string  (* a typed reject: the connection carries on *)
  | Broken of string  (* transport failure: the connection is done *)

let deck_size = 64

(* One shuffled deck: each design [max 1 (round (deck_size *
   popularity))] times, one card in [update_share] marked as an update.
   Every deck has the same length. *)
let deck prng n =
  let weights = Array.init n (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cards =
    Array.concat
      (List.init n (fun r ->
           let k = Float.round (float_of_int deck_size *. weights.(r) /. total) in
           Array.make (max 1 (Float.to_int k)) r))
  in
  Util.Prng.shuffle prng cards;
  let updates = Array.init (Array.length cards) (fun i -> i mod update_share = 0) in
  Util.Prng.shuffle prng updates;
  Array.map2 (fun r u -> (r, u)) cards updates

(* The connection and its schedule: decks dealt in a fixed shuffled
   order, drift chunks drawn from the seed. [history.(r)] collects the
   chunks sent for design [r], newest first. *)
type client = {
  conn : Serve.Client.t;
  designs : design array;
  history : int array list array;
  order : Util.Prng.t;
  drift : Util.Prng.t;
  mutable cards : (int * bool) array;
  mutable next : int;  (* requests sent so far *)
  mutable broken : bool;
}

let connect address designs ~seed =
  let order = Util.Prng.create (derive ~seed:0 200) in
  {
    conn = Serve.Client.connect address;
    designs;
    history = Array.make (Array.length designs) [];
    cards = deck order (Array.length designs);
    order;
    drift = Util.Prng.create (derive ~seed 300);
    next = 0;
    broken = false;
  }

(* The closed loop: send the next request, wait for its answer, repeat.
   At every deck boundary [more ()] decides whether to deal another deck,
   so a phase always carries whole decks and its mix does not depend on
   where it ends ([max_requests] cuts that short for the self-test). In a
   traced run the requests of every other deck are split-timed (send and
   receive apart) from this side of the socket: the daemon's Obs span
   stack is not domain-safe, so it runs untraced. *)
let play ?(max_requests = max_int) ~trace ~more cl =
  let len = Array.length cl.cards in
  let log = ref [] and sends = ref [] and count = ref 0 in
  let rec go () =
    let boundary = cl.next mod len = 0 in
    if (not cl.broken) && !count < max_requests && ((not boundary) || more ())
    then begin
      if boundary && cl.next > 0 then cl.cards <- deck cl.order (Array.length cl.designs);
      let rank, update = cl.cards.(cl.next mod len) in
      let kind =
        if update then begin
          let chunk =
            Array.make (stream_length / 20)
              (Util.Prng.int cl.drift cl.designs.(rank).n_instr)
          in
          cl.history.(rank) <- chunk :: cl.history.(rank);
          Serve.Proto.Update { chunk }
        end
        else Serve.Proto.Route
      in
      (* every other deck, so both halves carry the same mix *)
      let traced_req = trace && cl.next / len mod 2 = 1 in
      let t0 = now () in
      let response =
        match
          Serve.Client.send cl.conn
            { Serve.Proto.id = cl.next; scenario = cl.designs.(rank).text;
              budget_ms = None; paranoid = false; kind };
          if traced_req then sends := (now () -. t0) *. 1000.0 :: !sends;
          Serve.Client.recv ~timeout_s:60.0 cl.conn
        with
        | Ok (Some (Serve.Proto.Answer a)) -> Answer a
        | Ok (Some (Serve.Proto.Reject r)) -> Rejected r.Serve.Proto.message
        | Ok None -> Broken "daemon closed the connection"
        | Error e -> Broken e
        | exception e -> Broken (Printexc.to_string e)
      in
      let latency_ms = (now () -. t0) *. 1000.0 in
      log :=
        { rank; updates = List.length cl.history.(rank); latency_ms; traced_req; response }
        :: !log;
      (* A broken connection cannot carry the rest of the schedule. *)
      (match response with Broken _ -> cl.broken <- true | Answer _ | Rejected _ -> ());
      cl.next <- cl.next + 1;
      incr count;
      go ()
    end
  in
  go ();
  (List.rev !log, !sends)

(* ------------------------------------------------------------------ *)
(* Checking the answers                                               *)
(* ------------------------------------------------------------------ *)

(* The profile state an answer was routed against: the design's own
   trace plus the [epoch] newest of its first [updates] chunks (an
   evicted workload restarts from its scenario trace, so the epoch
   counts chunks since it was last resident). *)
type state = { s_rank : int; s_updates : int; s_epoch : int }

let state_of (s : sent) (a : Serve.Proto.answer) =
  if a.epoch = 0 then { s_rank = s.rank; s_updates = 0; s_epoch = 0 }
  else { s_rank = s.rank; s_updates = s.updates; s_epoch = a.epoch }

type oneshot = {
  o_digest : string;
  o_w : float;  (* pF *)
  parse_ms : float;
  profile_ms : float;  (* Profile.of_stream / Stream_update, with kernel *)
  route_ms : float;
  audit_ms : float;
  digest_ms : float;
}

(* A one-shot route of [st] through the same public calls the daemon
   makes, each timed from outside. *)
let oneshot designs history st =
  let scn, parse_s =
    time (fun () -> Conformance.Scenario.parse ~source:"serve-mix" designs.(st.s_rank).text)
  in
  let chunks =
    (* history is newest first: drop the chunks sent after this request,
       keep the [epoch] before them, oldest first *)
    let h = history.(st.s_rank) in
    let after = List.length h - st.s_updates in
    List.filteri (fun i _ -> i >= after && i < after + st.s_epoch) h |> List.rev
  in
  if List.length chunks <> st.s_epoch then failwith "epoch beyond the chunks sent";
  let profile, profile_s =
    time (fun () ->
        let p =
          if chunks = [] then Conformance.Scenario.profile scn
          else begin
            let acc =
              Activity.Stream_update.of_stream (Conformance.Scenario.instr_stream scn)
            in
            List.iter (Activity.Stream_update.ingest acc) chunks;
            Activity.Stream_update.profile ~patch:false acc
          end
        in
        ignore (Activity.Profile.signature_kernel p);
        p)
  in
  let routed, route_s =
    time (fun () ->
        Gcr.Flow.run_checked_info ~options:scn.Conformance.Scenario.options
          (Conformance.Scenario.config scn) profile scn.Conformance.Scenario.sinks)
  in
  match routed with
  | Error errs ->
    failwith (String.concat "; " (List.map Util.Gcr_error.to_string errs))
  | Ok checked ->
    let tree = checked.Gcr.Flow.tree in
    let d, digest_s = time (fun () -> digest tree) in
    let (), audit_s =
      time (fun () -> ignore (Serve.Cache.audit (Activity.Pcache.create profile) tree))
    in
    {
      o_digest = d;
      o_w = w_pf tree;
      parse_ms = parse_s *. 1000.0;
      profile_ms = profile_s *. 1000.0;
      route_ms = route_s *. 1000.0;
      audit_ms = audit_s *. 1000.0;
      digest_ms = digest_s *. 1000.0;
    }

(* ------------------------------------------------------------------ *)
(* The run                                                            *)
(* ------------------------------------------------------------------ *)

let socket_dir = ".gcrbench"

let run ?(max_requests = max_int) size ~seed ~seconds ~trace =
  Util.Obs.set_enabled false;
  (try Unix.mkdir socket_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let setups = ref 0 in
  let setup () =
    incr setups;
    let socket =
      Filename.concat socket_dir
        (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) !setups)
    in
    let designs =
      Array.init (n_designs size) (fun r ->
          let text = design size ~seed r in
          let scn = Conformance.Scenario.parse ~source:"serve-mix" text in
          { text; n_instr = Activity.Rtl.n_instructions scn.Conformance.Scenario.rtl })
    in
    (designs, start_daemon socket)
  in
  (* Only the last set-up's daemon serves; the others are stopped. *)
  let (designs, daemon), setup_s =
    repeated_setup ~release:(fun (_, d) -> ignore (stop_daemon d)) setup
  in
  let tally = new_tally () in
  let pid = string_of_int daemon.pid in
  let cl = connect (Serve.Server.Unix_socket daemon.socket) designs ~seed in
  (* The first deck warms the daemon up (heap growth, first sight of
     every design); it is checked like the rest but not timed. *)
  let warmup, _ =
    let decks = ref 0 in
    play cl ~trace:false ~more:(fun () -> incr decks; !decks = 1)
  in
  let cpu0 = cpu_seconds pid and t0 = now () in
  let deadline = t0 +. seconds in
  let timed, sends = play cl ~max_requests ~trace ~more:(fun () -> now () < deadline) in
  let wall = now () -. t0 in
  let cpu_util = ratio (cpu_seconds pid -. cpu0) wall in
  let peak = peak_rss_mb pid in
  Serve.Client.close cl.conn;
  let stats, status = stop_daemon daemon in
  let history = cl.history in
  let sent = warmup @ timed in
  tally.attempted <- List.length sent;
  (* Drain: clean exit, no backstop errors. *)
  let stat name =
    match Option.bind stats (Util.Obs.Json.member name) with
    | Some (Util.Obs.Json.Num v) -> v
    | Some (Util.Obs.Json.Bool b) -> if b then 1.0 else 0.0
    | _ -> nan
  in
  if status <> Unix.WEXITED 0 || stat "drained_clean" <> 1.0 || stat "backstop_errors" <> 0.0
  then begin
    tally.attempted <- tally.attempted + 1;
    fail tally "daemon did not drain cleanly"
  end;
  (* Check every answer against a one-shot route of its state, and take
     w_pf over every design at epoch 0. *)
  let shots = Hashtbl.create 64 in
  let shot st =
    match Hashtbl.find_opt shots st with
    | Some o -> o
    | None ->
      let o = try Ok (oneshot designs history st) with e -> Error (Printexc.to_string e) in
      Hashtbl.replace shots st o;
      o
  in
  let verify =
    List.filter_map
      (fun s ->
        match s.response with
        | Rejected msg | Broken msg ->
          fail tally msg;
          None
        | Answer a -> (
          match shot (state_of s a) with
          | Error msg ->
            fail tally ("one-shot: " ^ msg);
            None
          | Ok o when o.o_digest <> a.digest ->
            fail tally
              (Printf.sprintf "design %d epoch %d: digest %s, one-shot %s" s.rank
                 a.epoch a.digest o.o_digest);
            None
          | Ok o -> Some (s, a, o)))
  in
  let warmed = verify warmup in
  let answered = verify timed in
  let base =
    List.init (Array.length designs) (fun r ->
        shot { s_rank = r; s_updates = 0; s_epoch = 0 })
  in
  let w =
    mean (List.map (function Ok o -> o.o_w | Error _ -> 0.0) base)
  in
  let fingerprint =
    Digest.to_hex (Digest.string (String.concat "" (Array.to_list (Array.map (fun d -> d.text) designs))))
    :: List.map (function Ok o -> o.o_digest | Error e -> e) base
    @ [ Printf.sprintf "%h" w ]
    @ List.map
        (fun (s, a, _) ->
          Printf.sprintf "%d:%d:%d:%s" s.rank s.updates a.Serve.Proto.epoch a.digest)
        (warmed @ answered)
  in
  let lat = List.map (fun s -> s.latency_ms) timed in
  let over f = List.map f answered in
  let n_ans = float_of_int (List.length answered) in
  let count p = float_of_int (List.length (List.filter p answered)) in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 answered in
  let metrics =
    if not trace then
      [
        ("setup_s", setup_s);
        ("latency_p50_ms", median lat);
        ("latency_p90_ms", quantile 0.9 lat);
        ("throughput_rps", ratio n_ans wall);
        ("peak_rss_mb", peak);
        ("w_pf", w);
      ]
    else
      let wait = over (fun (s, a, _) -> s.latency_ms -. a.Serve.Proto.elapsed_ms) in
      let traced_lat, plain_lat =
        List.partition (fun s -> s.traced_req) timed
      in
      let hits = sum (fun (_, a, _) -> float_of_int a.Serve.Proto.audit_hits) in
      let probes =
        sum (fun (_, a, _) -> float_of_int (a.Serve.Proto.audit_hits + a.Serve.Proto.audit_misses))
      in
      let cold_states =
        List.filter_map
          (fun (_, a, o) -> if a.Serve.Proto.epoch = 0 then Some o.profile_ms else None)
          answered
      in
      let updated =
        List.filter_map
          (fun (_, a, o) -> if a.Serve.Proto.epoch > 0 then Some o.profile_ms else None)
          answered
      in
      [
        ("activity.profile_build_ms", median cold_states);
        ("activity.ingest_ms", median updated);
        ( "gc.major_collections",
          ratio (stat "major_collections") (float_of_int (List.length sent)) );
        ("serve.service_p50_ms", median (over (fun (_, a, _) -> a.Serve.Proto.elapsed_ms)));
        ("serve.wait_p50_ms", median wait);
        ("serve.wait_p90_ms", quantile 0.9 wait);
        ("serve.send_ms", median sends);
        ("serve.direct_route_ms", median (over (fun (_, _, o) -> o.route_ms)));
        ( "serve.overhead_ms",
          median (over (fun (_, a, o) -> a.Serve.Proto.elapsed_ms -. o.route_ms)) );
        ("formats.scenario_parse_ms", median (over (fun (_, _, o) -> o.parse_ms)));
        ("serve.audit_ms", median (over (fun (_, _, o) -> o.audit_ms)));
        ("serve.digest_ms", median (over (fun (_, _, o) -> o.digest_ms)));
        ("serve.warm_share", ratio (count (fun (_, a, _) -> a.Serve.Proto.cache_warm)) n_ans);
        ("serve.audit_hit_rate", ratio hits probes);
        ( "serve.rejects",
          float_of_int
            (List.length
               (List.filter
                  (fun s -> match s.response with Rejected _ -> true | _ -> false)
                  sent)) );
        ( "serve.degraded_share",
          ratio (count (fun (_, a, _) -> a.Serve.Proto.degraded <> [])) n_ans );
        ("proc.cpu_util", cpu_util);
        ( "trace.overhead_ratio",
          ratio
            (median (List.map (fun s -> s.latency_ms) traced_lat))
            (median (List.map (fun s -> s.latency_ms) plain_lat)) );
      ]
  in
  ( {
      attempted = tally.attempted;
      failed = tally.failed;
      failures = List.rev tally.msgs;
      metrics;
      notes =
        [
          Printf.sprintf "proc.cpu_util %.3f (daemon CPU over the window)" cpu_util;
          Printf.sprintf "serve-mix: %d warm-up and %d timed requests, %d one-shot checks"
            (List.length warmup) (List.length timed) (Hashtbl.length shots);
        ];
    },
    fingerprint )
