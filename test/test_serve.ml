(* The routing service: wire framing under hostile byte streams, protocol
   codecs, tree digests, the bounded pool, the workload cache, and the
   daemon itself over real loopback sockets — smoke, poison isolation,
   backpressure, budget degradation, and the fault campaign. *)

let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Frame                                                              *)
(* ------------------------------------------------------------------ *)

(* Feed a byte string to a decoder in chunks chosen by the prng and
   collect every event until the decoder wants more input. *)
let drain_decoder dec =
  let rec go acc =
    match Serve.Frame.next dec with
    | Ok (Some e) -> go (e :: acc)
    | Ok None -> List.rev acc
    | Error (`Oversized _) -> List.rev acc
  in
  go []

let feed_chunked prng dec s =
  let n = String.length s in
  let pos = ref 0 in
  let events = ref [] in
  while !pos < n do
    let k = 1 + Util.Prng.int prng (min 911 (n - !pos)) in
    Serve.Frame.feed dec ~off:!pos ~len:k s;
    events := !events @ drain_decoder dec;
    pos := !pos + k
  done;
  !events

let payload_gen =
  QCheck.Gen.(
    list_size (int_bound 6)
    (string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 2000)))

let prop_frame_roundtrip_chunked =
  QCheck.Test.make ~count:100
    ~name:"frames survive arbitrary chunking"
    QCheck.(pair (make payload_gen) (int_range 1 100_000))
    (fun (payloads, seed) ->
      let prng = Util.Prng.create seed in
      let stream = String.concat "" (List.map Serve.Frame.encode payloads) in
      let dec = Serve.Frame.decoder () in
      let events = feed_chunked prng dec stream in
      let got =
        List.filter_map
          (function Serve.Frame.Frame p -> Some p | Serve.Frame.Junk _ -> None)
          events
      in
      got = payloads
      && not (List.exists (function Serve.Frame.Junk _ -> true | _ -> false) events))

(* junk that can never begin a frame header: no 'G' anywhere *)
let junk_gen =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'x'; '{'; '"'; ' '; '\n'; '7'; 'g'; 'R' ])
      (int_range 1 200))

let prop_frame_junk_recovery =
  QCheck.Test.make ~count:100
    ~name:"junk before a frame is skipped, counted, and survived"
    QCheck.(pair (make junk_gen) (int_range 1 100_000))
    (fun (junk, seed) ->
      let prng = Util.Prng.create seed in
      let payload = "{\"hello\":1}" in
      let stream = junk ^ Serve.Frame.encode payload in
      let dec = Serve.Frame.decoder () in
      let events = feed_chunked prng dec stream in
      let skipped =
        List.fold_left
          (fun acc -> function
            | Serve.Frame.Junk { skipped; _ } -> acc + skipped
            | Serve.Frame.Frame _ -> acc)
          0 events
      in
      skipped = String.length junk
      && List.exists (function Serve.Frame.Frame p -> p = payload | _ -> false)
           events)

let test_frame_max_size_boundary () =
  let max_frame = 4096 in
  (* exactly at the limit: round-trips *)
  let at = String.make max_frame 'a' in
  let dec = Serve.Frame.decoder ~max_frame () in
  Serve.Frame.feed dec (Serve.Frame.encode ~max_frame at);
  (match Serve.Frame.next dec with
  | Ok (Some (Serve.Frame.Frame p)) ->
    Alcotest.(check int) "limit-sized payload intact" max_frame
      (String.length p);
    Alcotest.(check bool) "bytes intact" true (p = at)
  | _ -> Alcotest.fail "limit-sized frame rejected");
  (* one past: the encoder refuses *)
  Alcotest.check_raises "encode past the limit"
    (Invalid_argument "Frame.encode: 4097-byte payload exceeds the 4096-byte limit")
    (fun () -> ignore (Serve.Frame.encode ~max_frame (String.make (max_frame + 1) 'a')));
  (* a crafted header claiming one past: sticky Oversized *)
  let b = Buffer.create 16 in
  Buffer.add_string b Serve.Frame.magic;
  Buffer.add_int32_be b (Int32.of_int (max_frame + 1));
  let dec = Serve.Frame.decoder ~max_frame () in
  Serve.Frame.feed dec (Buffer.contents b);
  (match Serve.Frame.next dec with
  | Error (`Oversized n) -> Alcotest.(check int) "claimed size" (max_frame + 1) n
  | _ -> Alcotest.fail "oversized header accepted");
  (* sticky: feeding a perfectly good frame afterwards changes nothing *)
  Serve.Frame.feed dec (Serve.Frame.encode ~max_frame "ok");
  match Serve.Frame.next dec with
  | Error (`Oversized _) -> ()
  | _ -> Alcotest.fail "oversized error was not sticky"

let test_frame_truncated () =
  let frame = Serve.Frame.encode "a payload long enough to cut" in
  let dec = Serve.Frame.decoder () in
  Serve.Frame.feed dec ~len:(String.length frame - 5) frame;
  (match Serve.Frame.next dec with
  | Ok None -> ()
  | _ -> Alcotest.fail "truncated frame yielded an event");
  Alcotest.(check bool) "mid-frame bytes counted" true
    (Serve.Frame.awaiting dec > 0);
  (* the tail completes it *)
  Serve.Frame.feed dec ~off:(String.length frame - 5) frame;
  match Serve.Frame.next dec with
  | Ok (Some (Serve.Frame.Frame p)) ->
    Alcotest.(check string) "completed" "a payload long enough to cut" p
  | _ -> Alcotest.fail "completed frame not decoded"

(* ------------------------------------------------------------------ *)
(* Proto                                                              *)
(* ------------------------------------------------------------------ *)

let scenario_of_seed seed =
  Conformance.Scenario.generate
    (Util.Prng.create seed)
    ~tag:(Printf.sprintf "serve-test #%d" seed)

let test_proto_request_roundtrip () =
  List.iter
    (fun req ->
      match Serve.Proto.request_of_json (Serve.Proto.request_to_json req) with
      | Ok r -> Alcotest.(check bool) "request round-trips" true (r = req)
      | Error (msg, off) ->
        Alcotest.failf "round-trip failed: %s at %d" msg off)
    [
      { Serve.Proto.id = 0; scenario = Conformance.Scenario.render (scenario_of_seed 1);
        budget_ms = None; paranoid = false;
        kind = Serve.Proto.Route };
      { Serve.Proto.id = 42; scenario = "not even\na scenario\x01";
        budget_ms = Some 12.5; paranoid = true;
        kind = Serve.Proto.Update { chunk = [| 0; 1; 0 |] } };
    ]

let test_proto_response_roundtrip () =
  List.iter
    (fun resp ->
      match Serve.Proto.response_of_json (Serve.Proto.response_to_json resp) with
      | Ok r -> Alcotest.(check bool) "response round-trips" true (r = resp)
      | Error (msg, off) ->
        Alcotest.failf "round-trip failed: %s at %d" msg off)
    [
      Serve.Proto.Answer
        { id = 7; rung = "route"; degraded = [ "reduce"; "size" ];
          digest = "00ff00ff00ff00ff"; w_total = 1234.5; gates = 7; buffers = 2;
          wirelen = 314.25; audit_hits = 10; audit_misses = 3;
          cache_warm = true; epoch = 2; elapsed_ms = 1.75 };
      Serve.Proto.Reject
        { id = Some 9; error_class = "parse"; exit_code = 65;
          message = "scenario:3:1: bad"; retry_after_ms = None };
      Serve.Proto.Reject
        { id = None; error_class = "resource-limit"; exit_code = 75;
          message = "queue full"; retry_after_ms = Some 40.0 };
    ]

let test_proto_malformed () =
  (match Serve.Proto.request_of_json "{\"version\":1,\"id\":oops}" with
  | Ok _ -> Alcotest.fail "malformed JSON accepted"
  | Error (_, off) -> Alcotest.(check bool) "located past zero" true (off > 0));
  match Serve.Proto.request_of_json "{\"version\":1}" with
  | Ok _ -> Alcotest.fail "shapeless request accepted"
  | Error (_, off) -> Alcotest.(check int) "shape errors at offset 0" 0 off

(* ------------------------------------------------------------------ *)
(* Digest                                                             *)
(* ------------------------------------------------------------------ *)

let route_scenario scn =
  Gcr.Flow.run
    ~options:scn.Conformance.Scenario.options
    (Conformance.Scenario.config scn)
    (Conformance.Scenario.profile scn)
    scn.Conformance.Scenario.sinks

let test_digest_deterministic () =
  let scn = scenario_of_seed 5 in
  let a = Serve.Digest.tree (route_scenario scn) in
  let b = Serve.Digest.tree (route_scenario scn) in
  Alcotest.(check bool) "same route, same digest" true (Int64.equal a b);
  let other = Serve.Digest.tree (route_scenario (scenario_of_seed 6)) in
  Alcotest.(check bool) "different tree, different digest" false
    (Int64.equal a other)

(* Fixed vectors: the published FNV-1a 64 test strings, then workload
   keys and tree digests, which are wire-visible, so their bytes must
   never move. The last two groups were recorded when [Cache] and
   [Digest] still hashed through two separate FNV-1a loops. *)
let test_digest_fixed_vectors () =
  List.iter
    (fun (s, want) ->
      let st = Serve.Digest.start () in
      Serve.Digest.string st s;
      Alcotest.(check string) (Printf.sprintf "FNV-1a 64 of %S" s) want
        (Serve.Digest.to_hex (Serve.Digest.value st)))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ];
  List.iter
    (fun (seed, want) ->
      Alcotest.(check string)
        (Printf.sprintf "workload key, seed %d" seed)
        want
        (Serve.Digest.to_hex (Serve.Cache.workload_key (scenario_of_seed seed))))
    [ (1, "403b9989d90f7fcf"); (2, "0ff0cd0c72c17ed4"); (3, "5415c5625351a35b") ];
  List.iter
    (fun (seed, want) ->
      Alcotest.(check string)
        (Printf.sprintf "tree digest, seed %d" seed)
        want
        (Serve.Digest.to_hex (Serve.Digest.tree (route_scenario (scenario_of_seed seed)))))
    [ (1, "4c97f6556d130069"); (2, "886e19397cf76cb4") ]

(* Regression for the domain-local gather-scratch race: whole routes on
   sibling systhreads of one domain (exactly what the campaign's local
   ground-truth checks do while the daemon shares the process) used to
   clobber each other's candidate buffers in Greedy/Activity_router,
   crashing with "not an active root" or silently routing a different
   tree. Eight threads re-route the same scenarios concurrently; every
   digest must equal the sequential one and nothing may raise. *)
let test_concurrent_routes_identical () =
  (* Scenarios big enough that a route spans several systhread ticks:
     with sub-tick routes the threads never interleave and the old
     shared-scratch code passes by luck. *)
  let big seed =
    let base = scenario_of_seed seed in
    let n = 600 in
    let prng = Util.Prng.create (seed * 7 + 1) in
    let n_modules = Activity.Rtl.n_modules base.Conformance.Scenario.rtl in
    let die = 200.0 in
    let sinks =
      Array.init n (fun id ->
          Clocktree.Sink.make ~id
            ~loc:
              (Geometry.Point.make
                 (0.25
                 *. float_of_int (Util.Prng.int prng (int_of_float (die /. 0.25))))
                 (0.25
                 *. float_of_int (Util.Prng.int prng (int_of_float (die /. 0.25)))))
            ~cap:1.0
            ~module_id:(id mod n_modules))
    in
    { base with
      Conformance.Scenario.tag = Printf.sprintf "serve-test race #%d" seed;
      die_side = die;
      sinks;
      options = Gcr.Flow.default;
      test_en = false }
  in
  let scenarios = Array.init 3 (fun i -> big (500 + i)) in
  let expected =
    Array.map (fun s -> Serve.Digest.tree (route_scenario s)) scenarios
  in
  let failures = Atomic.make [] in
  let push e =
    let rec go () =
      let old = Atomic.get failures in
      if not (Atomic.compare_and_set failures old (e :: old)) then go ()
    in
    go ()
  in
  let worker t =
    Array.iteri
      (fun i scn ->
        match Serve.Digest.tree (route_scenario scn) with
        | d ->
          if not (Int64.equal d expected.(i)) then
            push
              (Printf.sprintf "thread %d scn %d: digest %Lx <> %Lx" t i d
                 expected.(i))
        | exception e ->
          push
            (Printf.sprintf "thread %d scn %d: %s" t i (Printexc.to_string e)))
      scenarios
  in
  let threads = Array.init 8 (fun t -> Thread.create worker t) in
  Array.iter Thread.join threads;
  match Atomic.get failures with
  | [] -> ()
  | fs ->
    Alcotest.failf "%d concurrent-route failures: %s" (List.length fs)
      (String.concat "; " fs)

let test_digest_hex_roundtrip () =
  List.iter
    (fun v ->
      let hex = Serve.Digest.to_hex v in
      Alcotest.(check int) "16 digits" 16 (String.length hex);
      Alcotest.(check (option int64)) "of_hex inverts" (Some v)
        (Serve.Digest.of_hex hex))
    [ 0L; 1L; -1L; 0xdeadbeefL; Int64.min_int; 0x0123456789abcdefL ];
  Alcotest.(check (option int64)) "junk rejected" None
    (Serve.Digest.of_hex "00ff00ff00ff00fg");
  Alcotest.(check (option int64)) "underscores rejected" None
    (Serve.Digest.of_hex "0_ff00ff00ff00ff");
  Alcotest.(check (option int64)) "short rejected" None
    (Serve.Digest.of_hex "00ff")

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

let spin_until ?(timeout_s = 10.0) pred =
  let deadline = Util.Obs.Clock.now () +. timeout_s in
  while (not (pred ())) && Util.Obs.Clock.now () < deadline do
    Thread.yield ()
  done;
  Alcotest.(check bool) "condition reached before timeout" true (pred ())

let test_pool_backpressure () =
  let pool = Serve.Pool.create ~workers:1 ~queue_cap:2 () in
  let gate = Atomic.make false in
  let started = Atomic.make false in
  let ran = Atomic.make 0 in
  let blocker () =
    Atomic.set started true;
    while not (Atomic.get gate) do Thread.yield () done;
    Atomic.incr ran
  in
  (match Serve.Pool.submit pool blocker with
  | `Accepted -> ()
  | _ -> Alcotest.fail "empty pool rejected a job");
  (* wait until the worker holds the blocker so the queue is truly empty *)
  spin_until (fun () -> Atomic.get started);
  let fill () = Atomic.incr ran in
  (match (Serve.Pool.submit pool fill, Serve.Pool.submit pool fill) with
  | `Accepted, `Accepted -> ()
  | _ -> Alcotest.fail "queue refused jobs under its cap");
  (match Serve.Pool.submit pool fill with
  | `Full depth -> Alcotest.(check int) "reported depth" 2 depth
  | _ -> Alcotest.fail "full queue accepted a job");
  Atomic.set gate true;
  Serve.Pool.drain pool;
  Alcotest.(check int) "accepted jobs all ran" 3 (Atomic.get ran);
  (match Serve.Pool.submit pool fill with
  | `Draining -> ()
  | _ -> Alcotest.fail "drained pool accepted a job");
  Alcotest.(check int) "no backstop errors" 0 (Serve.Pool.backstop_errors pool)

(* The hold hook: the idle worker takes the first job before admission
   goes on, and runs nothing until a job is turned away, so a burst
   admits exactly workers + queue_cap jobs. *)
let test_pool_hold () =
  let pool = Serve.Pool.create ~hold:true ~workers:1 ~queue_cap:2 () in
  let ran = Atomic.make 0 in
  let job () = Atomic.incr ran in
  for i = 1 to 3 do
    match Serve.Pool.submit pool job with
    | `Accepted -> ()
    | _ -> Alcotest.failf "burst job %d rejected before the queue filled" i
  done;
  Alcotest.(check int) "held: nothing ran" 0 (Atomic.get ran);
  (match Serve.Pool.submit pool job with
  | `Full depth -> Alcotest.(check int) "reported depth" 2 depth
  | _ -> Alcotest.fail "fourth job admitted past workers + queue_cap");
  Serve.Pool.drain pool;
  Alcotest.(check int) "accepted jobs all ran" 3 (Atomic.get ran)

let test_pool_backstop_counts_raises () =
  let pool = Serve.Pool.create ~workers:2 ~queue_cap:8 () in
  (match Serve.Pool.submit pool (fun () -> failwith "escaped") with
  | `Accepted -> ()
  | _ -> Alcotest.fail "job rejected");
  spin_until (fun () -> Serve.Pool.backstop_errors pool = 1);
  (* the worker survived: it still runs jobs *)
  let ok = Atomic.make false in
  (match Serve.Pool.submit pool (fun () -> Atomic.set ok true) with
  | `Accepted -> ()
  | _ -> Alcotest.fail "job rejected after a backstop error");
  Serve.Pool.drain pool;
  Alcotest.(check bool) "worker survived the raise" true (Atomic.get ok)

(* ------------------------------------------------------------------ *)
(* Cache                                                              *)
(* ------------------------------------------------------------------ *)

let test_cache_warm_and_audit () =
  let cache = Serve.Cache.create () in
  let scn = scenario_of_seed 11 in
  let key1, prof1, epoch1, warm1 = Serve.Cache.profile cache scn in
  Alcotest.(check bool) "first sight is cold" false warm1;
  Alcotest.(check int) "base epoch" 0 epoch1;
  let key2, prof2, _, warm2 = Serve.Cache.profile cache scn in
  Alcotest.(check bool) "second sight is warm" true warm2;
  Alcotest.(check bool) "same key" true (Int64.equal key1 key2);
  Alcotest.(check bool) "same shared profile" true (prof1 == prof2);
  Alcotest.(check int) "one workload resident" 1 (Serve.Cache.resident cache);
  Alcotest.(check (option int)) "epoch by key" (Some epoch1)
    (Serve.Cache.epoch cache ~key:key1);
  Alcotest.(check (option int)) "unknown key has no epoch" None
    (Serve.Cache.epoch cache ~key:0xbadL);
  (* the audit over a tree routed with the shared profile passes and
     re-derives every node *)
  let tree =
    Gcr.Flow.run ~options:scn.Conformance.Scenario.options
      (Conformance.Scenario.config scn) prof1 scn.Conformance.Scenario.sinks
  in
  Alcotest.(check (pair int int)) "every node audited"
    (0, Clocktree.Topo.n_nodes tree.Gcr.Gated_tree.topo)
    (Serve.Cache.audit (Activity.Pcache.create prof1) tree)

(* An update atomically swaps the shared profile and advances the epoch
   that [Cache.epoch] reports for the key — what the server compares
   against the epoch a request routed with to decide on a re-route — and
   a fresh lookup routes and audits cleanly against the drifted
   profile. *)
let test_cache_update_epoch () =
  let cache = Serve.Cache.create () in
  let scn = scenario_of_seed 12 in
  let key, prof0, epoch0, _ = Serve.Cache.profile cache scn in
  Alcotest.(check int) "base epoch" 0 epoch0;
  (* Drift the workload: replay the scenario's own trace reversed. *)
  let stream = Conformance.Scenario.instr_stream scn in
  let n = Activity.Instr_stream.length stream in
  let chunk = Array.init n (fun i -> Activity.Instr_stream.get stream (n - 1 - i)) in
  let epoch1, prof1 = Serve.Cache.update cache scn ~chunk in
  Alcotest.(check int) "epoch advanced" (epoch0 + 1) epoch1;
  Alcotest.(check bool) "profile replaced" true (not (prof0 == prof1));
  Alcotest.(check (option int)) "epoch visible by key" (Some epoch1)
    (Serve.Cache.epoch cache ~key);
  let key', prof', epoch', warm' = Serve.Cache.profile cache scn in
  Alcotest.(check bool) "same workload key" true (Int64.equal key key');
  Alcotest.(check bool) "lookup sees drifted profile" true (prof' == prof1);
  Alcotest.(check int) "lookup sees new epoch" epoch1 epoch';
  Alcotest.(check bool) "still warm" true warm';
  let tree =
    Gcr.Flow.run ~options:scn.Conformance.Scenario.options
      (Conformance.Scenario.config scn) prof' scn.Conformance.Scenario.sinks
  in
  Alcotest.(check (pair int int)) "audit over drifted profile"
    (0, Clocktree.Topo.n_nodes tree.Gcr.Gated_tree.topo)
    (Serve.Cache.audit (Activity.Pcache.create prof') tree);
  (* A second update on top of the first keeps accumulating. *)
  let epoch2, _ = Serve.Cache.update cache scn ~chunk:[| 0 |] in
  Alcotest.(check int) "second update" (epoch1 + 1) epoch2

(* The audit tripwire: a tree routed on one profile, audited against a
   drifted one, is a typed [Engine_mismatch] from [serve:audit] rather
   than an answer. The drift parks the trace on its first instruction:
   the reversed trace would double every instruction count and leave
   every enable probability bit-identical. *)
let test_cache_audit_tripwire () =
  let cache = Serve.Cache.create () in
  let scn = scenario_of_seed 12 in
  let _, prof, _, _ = Serve.Cache.profile cache scn in
  let tree =
    Gcr.Flow.run ~options:scn.Conformance.Scenario.options
      (Conformance.Scenario.config scn) prof scn.Conformance.Scenario.sinks
  in
  let chunk =
    Array.make
      (Activity.Instr_stream.length (Conformance.Scenario.instr_stream scn))
      0
  in
  let _, drifted = Serve.Cache.update cache scn ~chunk in
  match Serve.Cache.audit (Activity.Pcache.create drifted) tree with
  | (_ : int * int) -> Alcotest.fail "audit passed across a profile drift"
  | exception
      Util.Gcr_error.Error (Util.Gcr_error.Engine_mismatch { stage; _ }) ->
    Alcotest.(check string) "typed audit mismatch" "serve:audit" stage

(* ------------------------------------------------------------------ *)
(* The daemon over a real socket                                      *)
(* ------------------------------------------------------------------ *)

let with_server ?(workers = 2) ?(queue_cap = 64) ?default_budget_ms
    ?(cache_capacity = 32) ?(hold_workers = false) f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcr-test-%d-%d.sock" (Unix.getpid ()) (Thread.id (Thread.self ())))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let cfg =
    {
      (Serve.Server.default_config (Serve.Server.Unix_socket path)) with
      Serve.Server.workers;
      queue_cap;
      default_budget_ms;
      cache_capacity;
      hold_workers;
      read_timeout_s = 2.0;
    }
  in
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let stats = ref None in
  let th =
    Thread.create
      (fun () ->
        stats :=
          Some
            (Serve.Server.run
               ~stop:(fun () -> Atomic.get stop)
               ~on_ready:(fun _ -> Atomic.set ready true)
               cfg))
      ()
  in
  spin_until (fun () -> Atomic.get ready);
  let addr = Serve.Server.Unix_socket path in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join th)
      (fun () -> f addr)
  in
  match !stats with
  | None -> Alcotest.fail "server returned no stats"
  | Some s -> (result, s)

(* The CI smoke contract, in-process: 50 pipelined requests of which 2
   are poison — 48 answered bit-identically to one-shot routing, 2
   rejected with a typed parse error, nothing silent, clean drain. *)
let test_server_smoke_50 () =
  let scenarios = Array.init 48 (fun i -> scenario_of_seed (100 + i)) in
  let poison_at = [ 13; 37 ] in
  let (answers, rejects), stats =
    with_server (fun addr ->
        let c = Serve.Client.connect addr in
        Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
        let next_scn = ref 0 in
        for id = 0 to 49 do
          if List.mem id poison_at then
            Serve.Client.send c
              { Serve.Proto.id; scenario = "die-side 1.0\nnot a scenario [";
                budget_ms = None; paranoid = false;
        kind = Serve.Proto.Route }
          else begin
            Serve.Client.send c
              { Serve.Proto.id;
                scenario = Conformance.Scenario.render scenarios.(!next_scn);
                budget_ms = None; paranoid = false;
        kind = Serve.Proto.Route };
            incr next_scn
          end
        done;
        Serve.Client.close_half c;
        let answers = ref [] and rejects = ref [] in
        let rec drain () =
          match Serve.Client.recv ~timeout_s:120.0 c with
          | Ok (Some (Serve.Proto.Answer a)) ->
            answers := a :: !answers;
            drain ()
          | Ok (Some (Serve.Proto.Reject r)) ->
            rejects := r :: !rejects;
            drain ()
          | Ok None -> ()
          | Error e -> Alcotest.failf "transport error: %s" e
        in
        drain ();
        (!answers, !rejects))
  in
  Alcotest.(check int) "48 answered" 48 (List.length answers);
  Alcotest.(check int) "2 rejected" 2 (List.length rejects);
  List.iter
    (fun r ->
      Alcotest.(check bool) "poison ids attributed" true
        (match r.Serve.Proto.id with
        | Some id -> List.mem id poison_at
        | None -> false);
      Alcotest.(check string) "typed as parse" "parse" r.Serve.Proto.error_class;
      Alcotest.(check int) "sysexit 65" 65 r.Serve.Proto.exit_code;
      Alcotest.(check bool) "caret-located message" true
        (Astring.String.is_infix ~affix:":" r.Serve.Proto.message))
    rejects;
  (* every answer is bit-identical to a local one-shot of the same id *)
  let scenario_of_id =
    let tbl = Hashtbl.create 48 in
    let next = ref 0 in
    for id = 0 to 49 do
      if not (List.mem id poison_at) then begin
        Hashtbl.add tbl id scenarios.(!next);
        incr next
      end
    done;
    Hashtbl.find tbl
  in
  List.iter
    (fun (a : Serve.Proto.answer) ->
      let local =
        Serve.Digest.to_hex
          (Serve.Digest.tree (route_scenario (scenario_of_id a.Serve.Proto.id)))
      in
      Alcotest.(check string)
        (Printf.sprintf "answer %d bit-identical" a.Serve.Proto.id)
        local a.Serve.Proto.digest)
    answers;
  Alcotest.(check bool) "drained clean" true stats.Serve.Server.drained_clean;
  Alcotest.(check int) "no backstop errors" 0 stats.Serve.Server.backstop_errors;
  Alcotest.(check int) "server counted the answers" 48
    stats.Serve.Server.answered

(* Overload: one worker, a 2-deep queue, and a burst of requests
   submitted faster than any route completes — some must be rejected
   immediately with resource-limit + a retry-after hint, and every
   request must still get exactly one response. The pool's hold hook
   makes the worker take the first request before the queue fills and
   start it only once a request was turned away, so at least three are
   admitted and at least one rejected whatever the scheduling. *)
let test_server_backpressure () =
  let scn = scenario_of_seed 200 in
  let burst = 20 in
  let (answered, backpressured), stats =
    with_server ~workers:1 ~queue_cap:2 ~hold_workers:true (fun addr ->
        let c = Serve.Client.connect addr in
        Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
        let text = Conformance.Scenario.render scn in
        for id = 0 to burst - 1 do
          Serve.Client.send c
            { Serve.Proto.id; scenario = text; budget_ms = None; paranoid = false;
        kind = Serve.Proto.Route }
        done;
        Serve.Client.close_half c;
        let answered = ref 0 and backpressured = ref 0 in
        let rec drain () =
          match Serve.Client.recv ~timeout_s:120.0 c with
          | Ok (Some (Serve.Proto.Answer _)) ->
            incr answered;
            drain ()
          | Ok (Some (Serve.Proto.Reject r)) ->
            Alcotest.(check string) "rejects are resource-limit"
              "resource-limit" r.Serve.Proto.error_class;
            Alcotest.(check bool) "retry-after hint present" true
              (r.Serve.Proto.retry_after_ms <> None);
            incr backpressured;
            drain ()
          | Ok None -> ()
          | Error e -> Alcotest.failf "transport error: %s" e
        in
        drain ();
        (!answered, !backpressured))
  in
  Alcotest.(check int) "one response per request" burst
    (answered + backpressured);
  Alcotest.(check bool) "overload visibly rejected" true (backpressured > 0);
  Alcotest.(check bool) "admitted requests answered" true (answered >= 3);
  Alcotest.(check int) "server agrees" backpressured
    stats.Serve.Server.rejected_backpressure

(* [n] sinks on a quarter-unit grid (so the rendered scenario re-parses
   to the same coordinates) over the workload of [scenario_of_seed
   seed]. *)
let grid_scenario ~seed ~n ~tag =
  let base = scenario_of_seed seed in
  let prng = Util.Prng.create (seed + 1) in
  let n_modules = Activity.Rtl.n_modules base.Conformance.Scenario.rtl in
  let die = 400.0 in
  let sinks =
    Array.init n (fun id ->
        Clocktree.Sink.make ~id
          ~loc:
            (Geometry.Point.make
               (0.25 *. float_of_int (Util.Prng.int prng (int_of_float (die /. 0.25))))
               (0.25 *. float_of_int (Util.Prng.int prng (int_of_float (die /. 0.25)))))
          ~cap:1.0
          ~module_id:(id mod n_modules))
  in
  { base with
    Conformance.Scenario.tag;
    die_side = die;
    sinks;
    options = Gcr.Flow.default;
    test_en = false }

(* A large request under a ~1 ms budget: the first rung completes past
   its deadline (a finished tree beats a timeout) and the optional
   stages are skipped — degraded-but-answered, with the provenance
   tagged in the response. *)
let test_server_budget_degrades () =
  let scn = grid_scenario ~seed:300 ~n:3000 ~tag:"serve-test budget" in
  let resp, stats =
    with_server (fun addr ->
        let c = Serve.Client.connect addr in
        Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
        Serve.Client.send c
          { Serve.Proto.id = 0; scenario = Conformance.Scenario.render scn;
            budget_ms = Some 1.0; paranoid = false;
            kind = Serve.Proto.Route };
        match Serve.Client.recv ~timeout_s:300.0 c with
        | Ok (Some r) -> r
        | Ok None -> Alcotest.fail "no response"
        | Error e -> Alcotest.failf "transport error: %s" e)
  in
  (match resp with
  | Serve.Proto.Answer a ->
    Alcotest.(check string) "first rung still wins" "route" a.Serve.Proto.rung;
    Alcotest.(check bool) "optional stages reported skipped" true
      (a.Serve.Proto.degraded <> [])
  | Serve.Proto.Reject r ->
    Alcotest.failf "expected a degraded answer, got reject %s: %s"
      r.Serve.Proto.error_class r.Serve.Proto.message);
  Alcotest.(check bool) "drained clean" true stats.Serve.Server.drained_clean

(* A one-workload cache and two workers: a second connection's
   different workload evicts the first request's workload while it is
   still routing. Eviction publishes no newer epoch, so both requests
   must be audited against the profiles they routed with and answered,
   the large one bit-identical to a one-shot route. *)
let test_server_eviction_mid_route () =
  let large = grid_scenario ~seed:500 ~n:800 ~tag:"serve-test eviction" in
  let small = scenario_of_seed 502 in
  Alcotest.(check bool) "two workloads" false
    (Int64.equal (Serve.Cache.workload_key large) (Serve.Cache.workload_key small));
  let request id scn =
    { Serve.Proto.id; scenario = Conformance.Scenario.render scn;
      budget_ms = None; paranoid = false; kind = Serve.Proto.Route }
  in
  let recv c =
    match Serve.Client.recv ~timeout_s:300.0 c with
    | Ok (Some r) -> r
    | Ok None -> Alcotest.fail "no response"
    | Error e -> Alcotest.failf "transport error: %s" e
  in
  let (large_resp, small_resp), stats =
    with_server ~workers:2 ~cache_capacity:1 (fun addr ->
        let ca = Serve.Client.connect addr in
        let cb = Serve.Client.connect addr in
        Fun.protect
          ~finally:(fun () ->
            Serve.Client.close ca;
            Serve.Client.close cb)
        @@ fun () ->
        Serve.Client.send ca (request 0 large);
        (* long enough for the large request to look up its workload,
           far shorter than its route *)
        Unix.sleepf 0.05;
        Serve.Client.send cb (request 1 small);
        let small_resp = recv cb in
        (recv ca, small_resp))
  in
  let digest_of what = function
    | Serve.Proto.Answer a -> a.Serve.Proto.digest
    | Serve.Proto.Reject r ->
      Alcotest.failf "%s request rejected (%s): %s" what
        r.Serve.Proto.error_class r.Serve.Proto.message
  in
  Alcotest.(check string) "large answer bit-identical to one-shot"
    (Serve.Digest.to_hex (Serve.Digest.tree (route_scenario large)))
    (digest_of "large" large_resp);
  Alcotest.(check string) "small answer bit-identical to one-shot"
    (Serve.Digest.to_hex (Serve.Digest.tree (route_scenario small)))
    (digest_of "small" small_resp);
  Alcotest.(check bool) "drained clean" true stats.Serve.Server.drained_clean

let test_server_zero_budget_rejects () =
  let scn = scenario_of_seed 400 in
  let resp, _stats =
    with_server (fun addr ->
        let c = Serve.Client.connect addr in
        Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
        Serve.Client.send c
          { Serve.Proto.id = 0; scenario = Conformance.Scenario.render scn;
            budget_ms = Some 0.0; paranoid = false;
            kind = Serve.Proto.Route };
        match Serve.Client.recv ~timeout_s:60.0 c with
        | Ok (Some r) -> r
        | Ok None -> Alcotest.fail "no response"
        | Error e -> Alcotest.failf "transport error: %s" e)
  in
  match resp with
  | Serve.Proto.Reject r ->
    Alcotest.(check string) "resource-limit" "resource-limit"
      r.Serve.Proto.error_class;
    Alcotest.(check int) "sysexit 75" 75 r.Serve.Proto.exit_code
  | Serve.Proto.Answer _ ->
    Alcotest.fail "zero budget answered instead of rejecting"

(* ------------------------------------------------------------------ *)
(* Campaign (the gcr fuzz --serve engine), smoke-sized                 *)
(* ------------------------------------------------------------------ *)

let test_campaign_smoke () =
  let stats = Serve.Campaign.run ~count:35 ~seed:7 ~clients:3 () in
  if not (Serve.Campaign.passed stats) then
    Alcotest.failf "campaign failed:@.%a" Serve.Campaign.pp_stats stats;
  Alcotest.(check int) "every case judged" 35
    (stats.Serve.Campaign.diagnosed + stats.Serve.Campaign.absorbed
    + stats.Serve.Campaign.identical);
  Alcotest.(check int) "all seven families exercised" 7
    (List.length stats.Serve.Campaign.coverage)

let () =
  Alcotest.run "serve"
    [
      ( "frame",
        [
          qt prop_frame_roundtrip_chunked;
          qt prop_frame_junk_recovery;
          Alcotest.test_case "max-size boundary" `Quick
            test_frame_max_size_boundary;
          Alcotest.test_case "truncated then completed" `Quick
            test_frame_truncated;
        ] );
      ( "proto",
        [
          Alcotest.test_case "request round-trip" `Quick
            test_proto_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick
            test_proto_response_roundtrip;
          Alcotest.test_case "malformed located" `Quick test_proto_malformed;
        ] );
      ( "digest",
        [
          Alcotest.test_case "deterministic" `Quick test_digest_deterministic;
          Alcotest.test_case "hex round-trip" `Quick test_digest_hex_roundtrip;
          Alcotest.test_case "fixed vectors" `Quick test_digest_fixed_vectors;
          Alcotest.test_case "concurrent routes race-free" `Slow
            test_concurrent_routes_identical;
        ] );
      ( "pool",
        [
          Alcotest.test_case "bounded admission" `Quick test_pool_backpressure;
          Alcotest.test_case "hold hook admits a burst exactly" `Quick
            test_pool_hold;
          Alcotest.test_case "backstop counts raises" `Quick
            test_pool_backstop_counts_raises;
        ] );
      ( "cache",
        [ Alcotest.test_case "warm flag and audit" `Quick test_cache_warm_and_audit;
          Alcotest.test_case "update advances epoch" `Quick
            test_cache_update_epoch;
          Alcotest.test_case "audit trips on a drifted profile" `Quick
            test_cache_audit_tripwire ] );
      ( "daemon",
        [
          Alcotest.test_case "smoke: 48 ok + 2 poison" `Slow
            test_server_smoke_50;
          Alcotest.test_case "backpressure under overload" `Slow
            test_server_backpressure;
          Alcotest.test_case "budget degrades, still answers" `Slow
            test_server_budget_degrades;
          Alcotest.test_case "zero budget rejects" `Quick
            test_server_zero_budget_rejects;
          Alcotest.test_case "workload evicted mid-route" `Slow
            test_server_eviction_mid_route;
        ] );
      ( "campaign",
        [ Alcotest.test_case "35-fault smoke" `Slow test_campaign_smoke ] );
    ]
