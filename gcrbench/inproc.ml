(* The in-process workloads: sharded-20k (one checked pipeline run per
   operation, always over the same input) and eco-drift (one streaming
   chunk ingest plus Eco.repair per operation). *)

open Common

type size = Full | Shrunk

let span = Util.Obs.span

(* ------------------------------------------------------------------ *)
(* Inputs                                                             *)
(* ------------------------------------------------------------------ *)

(* A suite exactly as Suite.case builds it, except that every sink is
   moved by a seeded offset of at most 0.5% of the die side: another
   seed is another placement of the same chip, so the inputs change
   while the work per operation and W stay close across seeds. *)
let case ?(grouped = false) ~stream_length ~seed (spec : Benchmarks.Rbench.spec) =
  let c =
    (if grouped then Benchmarks.Suite.case_grouped else Benchmarks.Suite.case)
      ~stream_length spec
  in
  let prng = Util.Prng.create (derive ~seed spec.seed) in
  let box = Benchmarks.Rbench.die spec in
  let j = 0.005 *. spec.die_side in
  let jitter (s : Clocktree.Sink.t) =
    let dx = Util.Prng.range prng (-.j) j in
    let dy = Util.Prng.range prng (-.j) j in
    {
      s with
      loc = Geometry.Bbox.clamp box (Geometry.Point.make (s.loc.x +. dx) (s.loc.y +. dy));
    }
  in
  { c with sinks = Array.map jitter c.sinks }

let r1_scaled n = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:n

(* Grouped r1 scaled up: the module universe is the functional groups,
   as Suite.case_grouped sizes it for 10^4+ sinks. *)
let sharded_case size ~seed =
  let n = match size with Full -> 20_000 | Shrunk -> 1_500 in
  let spec = r1_scaled n in
  case ~grouped:true ~stream_length:1_000 ~seed
    { spec with Benchmarks.Rbench.n_groups = max 4 (min 1024 (n / 96)) }

let eco_case size ~seed =
  case ~stream_length:2_000 ~seed
    (r1_scaled (match size with Full -> 2_000 | Shrunk -> 400))

let sharded_options =
  {
    Gcr.Flow.default with
    shards = Gcr.Flow.Auto_shards;
    reduction = Gcr.Flow.Rules;
  }

(* Every stage does work: greedy reduction, gate share (1,0), tapered
   sizing. *)
let eco_options =
  {
    Gcr.Flow.default with
    gate_share = Gcr.Flow.Share { min_instances = 1; eps = 0 };
    sizing = Gcr.Flow.Tapered;
    eco = Gcr.Flow.Eco { threshold = Gcr.Eco.default_threshold };
  }

(* Every input a workload generates, hashed: the self-test's proof that
   a different seed changes the inputs. *)
let input_digest (c : Benchmarks.Suite.case) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (s : Clocktree.Sink.t) ->
      Buffer.add_string b
        (Printf.sprintf "%h %h %h %d;" s.loc.x s.loc.y s.cap s.module_id))
    c.sinks;
  let st = Activity.Profile.stream c.profile in
  for i = 0 to Activity.Instr_stream.length st - 1 do
    Buffer.add_string b (string_of_int (Activity.Instr_stream.get st i));
    Buffer.add_char b ','
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let force_kernel profile = ignore (Activity.Profile.signature_kernel profile)

(* [activity.profile_build_ms]: one Profile.of_stream over the case's
   stream, including the signature kernel build. *)
let probe_profile_build tr (c : Benchmarks.Suite.case) =
  let (), dt =
    time (fun () ->
        force_kernel (Activity.Profile.of_stream (Activity.Profile.stream c.profile)))
  in
  sample tr "activity.profile_build_ms" (dt *. 1000.0)

let checked options (c : Benchmarks.Suite.case) =
  match Gcr.Flow.run_checked_info ~options c.config c.profile c.sinks with
  | Ok { Gcr.Flow.tree; degraded = []; _ } -> Ok tree
  | Ok { Gcr.Flow.degraded = e :: _; _ } ->
    Error (Format.asprintf "degraded: %a" Gcr.Flow.pp_event e)
  | Error errs ->
    Error (String.concat "; " (List.map Util.Gcr_error.to_string errs))

(* The staged pipeline of a traced operation: one span around each
   public stage call, in Flow.run's order. *)
let staged options (c : Benchmarks.Suite.case) =
  let tree =
    span ~name:"gcr.route" (fun () ->
        Gcr.Flow.route_with_options options c.config c.profile c.sinks)
  in
  let tree = span ~name:"gcr.reduce" (fun () -> Gcr.Flow.apply_reduction options tree) in
  let tree = span ~name:"gcr.share" (fun () -> Gcr.Flow.apply_share options tree) in
  span ~name:"gcr.size" (fun () -> Gcr.Flow.apply_sizing options tree)

(* What a run reports besides its latencies; filled by each workload. *)
type run = {
  tally : tally;
  tr : trace;
  mutable untraced : float list;  (* operation latencies, seconds *)
  mutable traced_lat : float list;
  mutable ws : float list;  (* W of the first [w_ops] operations, pF *)
  mutable majors : int list;  (* major collections per operation *)
  mutable fingerprint : string list;  (* digests and counts, in order *)
}

let new_run () =
  {
    tally = new_tally ();
    tr = new_trace ();
    untraced = [];
    traced_lat = [];
    ws = [];
    majors = [];
    fingerprint = [];
  }

let w_ops = 3

let record run ~k ~traced_op ~dt ~majors tree =
  if traced_op then run.traced_lat <- dt :: run.traced_lat
  else run.untraced <- dt :: run.untraced;
  run.majors <- majors :: run.majors;
  if k < w_ops then run.ws <- w_pf tree :: run.ws

let majors () = (Gc.quick_stat ()).Gc.major_collections

(* End-to-end metrics from the untraced operations. *)
let e2e run ~setup_s ~peak =
  let ms = List.map (fun s -> s *. 1000.0) run.untraced in
  [
    ("setup_s", setup_s);
    ("latency_p50_ms", median ms);
    ("latency_p90_ms", quantile 0.9 ms);
    (* operations per second of operation time: the window also holds
       the checks, which a user of the pipeline does not wait for *)
    ("throughput_rps", ratio (float_of_int (List.length run.untraced)) (List.fold_left ( +. ) 0.0 run.untraced));
    ("peak_rss_mb", peak);
    ("w_pf", mean run.ws);
  ]

(* Layer metrics every in-process workload reports the same way. *)
let common_layers run ~cpu_util =
  let tr = run.tr in
  let pops = counter tr "greedy.heap_pops" in
  [
    ("activity.profile_build_ms", median (samples tr "activity.profile_build_ms"));
    ("gc.major_collections", mean (List.map float_of_int run.majors));
    ("greedy.heap_pops", per_op tr pops);
    ("greedy.merge_steps", per_op tr (counter tr "greedy.merge_steps"));
    ("greedy.stale_pop_rate", ratio (counter tr "greedy.stale_discards") pops);
    ("signature.queries", per_op tr (counter tr "signature.queries"));
    ("sig.batch_size", ratio (counter tr "sig.batch_size") (counter tr "sig.batch_calls"));
    ("gcr.verify_ms", span_ms tr "gcr.verify");
    ("proc.cpu_util", cpu_util);
    ( "trace.overhead_ratio",
      ratio (median run.traced_lat) (median run.untraced) );
  ]

let finish run ~trace ~setup_s ~cpu_util ~layers =
  let peak = peak_rss_mb "self" in
  {
    attempted = run.tally.attempted;
    failed = run.tally.failed;
    failures = List.rev run.tally.msgs;
    metrics =
      (if trace then common_layers run ~cpu_util @ layers ()
       else e2e run ~setup_s ~peak);
    notes =
      [
        Printf.sprintf "proc.cpu_util %.3f" cpu_util;
        "operation ms (untraced, in order): "
        ^ String.concat " "
            (List.rev_map (fun s -> Printf.sprintf "%.1f" (s *. 1000.0)) run.untraced);
      ];
  }

(* The self-test's record of a run: digests and W as the operations
   produced them, then the traced operations' exact counts. *)
let fingerprint run =
  run.fingerprint
  @ List.map
      (fun k -> Printf.sprintf "%s=%.0f" k (counter run.tr k))
      [ "greedy.heap_pops"; "greedy.merge_steps"; "greedy.stale_discards";
        "signature.queries"; "sig.batch_size" ]

(* Run the measuring window; returns the process's CPU seconds over its
   wall seconds. *)
let timed_window f =
  let c0 = Unix.times () and t0 = now () in
  f ();
  let c1 = Unix.times () and wall = now () -. t0 in
  let cpu (t : Unix.process_times) = t.tms_utime +. t.tms_stime in
  ratio (cpu c1 -. cpu c0) wall

(* ------------------------------------------------------------------ *)
(* sharded-20k                                                        *)
(* ------------------------------------------------------------------ *)

let sharded ?(fixed_ops = 0) size ~seed ~seconds ~trace =
  Util.Obs.set_enabled false;
  let run = new_run () in
  let options = sharded_options in
  let c, setup_s =
    repeated_setup (fun () ->
        let c = sharded_case size ~seed in
        force_kernel c.Benchmarks.Suite.profile;
        c)
  in
  if trace then probe_profile_build run.tr c;
  run.fingerprint <- [ input_digest c ];
  let reference = ref None in
  let op k =
    run.tally.attempted <- run.tally.attempted + 1;
    let traced_op = trace && k mod 2 = 1 in
    let g0 = majors () in
    let outcome, dt =
      if traced_op then
        time (fun () ->
            traced run.tr (fun () ->
                match staged options c with
                | t -> Ok t
                | exception e -> Error (Printexc.to_string e)))
      else time (fun () -> checked options c)
    in
    let g1 = majors () in
    match outcome with
    | Error msg -> fail run.tally msg
    | Ok tree ->
      record run ~k ~traced_op ~dt ~majors:(g1 - g0) tree;
      check run.tally "verify" (fun () ->
          if traced_op then
            traced ~counts:false run.tr (fun () ->
                span ~name:"gcr.verify" (fun () -> Gcr.Verify.structural tree))
          else Gcr.Verify.structural tree);
      (* The input never changes, so neither may the tree: every
         operation, staged or checked, must repeat the first digest. *)
      let d = digest tree in
      (match !reference with
      | None ->
        reference := Some d;
        run.fingerprint <- run.fingerprint @ [ d; Printf.sprintf "%h" (w_pf tree) ]
      | Some d0 when d0 = d -> ()
      | Some d0 -> fail run.tally (Printf.sprintf "digest %s differs from %s" d d0))
  in
  let cpu_util =
    timed_window (fun () ->
        if fixed_ops > 0 then for k = 0 to fixed_ops - 1 do op k done
        else ignore (loop ~seconds ~min_ops:(if trace then 2 else 1) op))
  in
  run.tr.traced_ops <- List.length run.traced_lat;
  let layers () =
    let tr = run.tr in
    let _, t1 =
      time (fun () ->
          Gcr.Shard_router.route_topology ~domains:1 c.config c.profile c.sinks)
    in
    let _, tp =
      time (fun () ->
          Gcr.Shard_router.route_topology
            ~domains:(max 2 (Domain.recommended_domain_count ()))
            c.config c.profile c.sinks)
    in
    [
      ("gcr.route_ms", span_ms tr "gcr.route");
      ("gcr.route_mw", span_mw tr "gcr.route");
      ("gcr.reduce_ms", span_ms tr "gcr.reduce");
      ("gcr.reduce_mw", span_mw tr "gcr.reduce");
      ("shard.partition_ms", span_ms tr "gcr.route/shard:partition");
      ("shard.route_regions_ms", span_ms tr "gcr.route/shard:route-regions");
      ("shard.stitch_ms", span_ms tr "gcr.route/shard:stitch");
      ("shard.pool_speedup", ratio t1 tp);
    ]
  in
  (finish run ~trace ~setup_s ~cpu_util ~layers, fingerprint run)

(* ------------------------------------------------------------------ *)
(* eco-drift                                                          *)
(* ------------------------------------------------------------------ *)

(* Operation [k]'s drift: a burst of one instruction, long enough to
   push the modules it touches past the repair threshold but short
   against the whole trace, so the drift stays local. The instruction
   follows a fixed order, so every run repairs the same kinds of drift
   and the seed varies only the placement. *)
let burst ~n_instr ~len k = Array.make (max 8 (len / 20)) (k * 7 mod n_instr)

let eco ?(fixed_ops = 0) size ~seed ~seconds ~trace =
  Util.Obs.set_enabled false;
  let run = new_run () in
  let (c, acc, base), setup_s =
    repeated_setup (fun () ->
        let c = eco_case size ~seed in
        let acc =
          Activity.Stream_update.of_stream (Activity.Profile.stream c.profile)
        in
        let base =
          match checked eco_options c with
          | Ok t -> t
          | Error msg -> failwith ("eco-drift base route: " ^ msg)
        in
        (c, acc, base))
  in
  if trace then probe_profile_build run.tr c;
  run.fingerprint <- [ input_digest c; digest base ];
  let n_instr = Activity.Rtl.n_instructions (Activity.Profile.rtl c.profile) in
  let len = Activity.Instr_stream.length (Activity.Profile.stream c.profile) in
  let tree = ref base in
  let rebuilds = ref 0 and resinks = ref [] in
  let op k =
    run.tally.attempted <- run.tally.attempted + 1;
    let traced_op = trace && k mod 2 = 1 in
    let chunk = burst ~n_instr ~len k in
    let step () =
      let profile =
        span ~name:"activity.ingest" (fun () ->
            Activity.Stream_update.ingest acc chunk;
            Activity.Stream_update.profile acc)
      in
      span ~name:"gcr.eco_repair" (fun () ->
          Gcr.Eco.repair ~options:eco_options !tree profile)
    in
    let g0 = majors () in
    let outcome, dt =
      time (fun () ->
          match if traced_op then traced run.tr step else step () with
          | r -> Ok r
          | exception e -> Error (Printexc.to_string e))
    in
    let g1 = majors () in
    match outcome with
    | Error msg -> fail run.tally msg
    | Ok (report : Gcr.Eco.report) ->
      let t = report.tree in
      record run ~k ~traced_op ~dt ~majors:(g1 - g0) t;
      if report.full_rebuild then incr rebuilds;
      resinks := float_of_int report.resinks :: !resinks;
      check run.tally "verify" (fun () ->
          if traced_op then
            traced ~counts:false run.tr (fun () ->
                span ~name:"gcr.verify" (fun () -> Gcr.Verify.structural t))
          else Gcr.Verify.structural t);
      if traced_op then
        traced ~counts:false run.tr (fun () ->
            let profile = t.Gcr.Gated_tree.profile in
            span ~name:"gcr.eco_detect" (fun () ->
                ignore (Gcr.Eco.detect !tree profile));
            (* The repair folds reduce, share and size in; time them from
               outside on the repaired topology rebuilt without hardware
               decisions. *)
            let unreduced =
              Gcr.Gated_tree.build c.config profile c.sinks t.Gcr.Gated_tree.topo
                ~kind:(fun _ -> Gcr.Gated_tree.Gated)
            in
            let reduced =
              span ~name:"gcr.reduce" (fun () ->
                  Gcr.Flow.apply_reduction eco_options unreduced)
            in
            let shared =
              span ~name:"gcr.share" (fun () -> Gcr.Flow.apply_share eco_options reduced)
            in
            span ~name:"gcr.size" (fun () ->
                ignore (Gcr.Flow.apply_sizing eco_options shared)));
      run.fingerprint <-
        run.fingerprint
        @ [ digest t; Printf.sprintf "%h" (w_pf t); string_of_int report.resinks ];
      tree := t
  in
  let cpu_util =
    timed_window (fun () ->
        if fixed_ops > 0 then for k = 0 to fixed_ops - 1 do op k done
        else ignore (loop ~seconds ~min_ops:(if trace then 2 else w_ops) op))
  in
  run.tr.traced_ops <- List.length run.traced_lat;
  let layers () =
    let tr = run.tr in
    (* From-scratch routes of the final profile, timed from outside (the
       median of three each): the route and merge times, and the
       repaired W against the scratch W. *)
    let profile = !tree.Gcr.Gated_tree.profile in
    let thrice f = median (List.init 3 (fun _ -> snd (time f))) in
    let a0 = Gc.allocated_bytes () in
    let routed = Gcr.Flow.route_with_options eco_options c.config profile c.sinks in
    let route_mw = (Gc.allocated_bytes () -. a0) /. 8e6 in
    let route_s =
      thrice (fun () -> Gcr.Flow.route_with_options eco_options c.config profile c.sinks)
    in
    let merge_s =
      thrice (fun () -> Gcr.Router.route_topology_only c.config profile c.sinks)
    in
    let scratch =
      Gcr.Flow.apply_sizing eco_options
        (Gcr.Flow.apply_share eco_options (Gcr.Flow.apply_reduction eco_options routed))
    in
    let ops = float_of_int (max 1 (List.length !resinks)) in
    [
      ("activity.ingest_ms", span_ms tr "activity.ingest");
      ("gcr.route_ms", route_s *. 1000.0);
      ("gcr.route_mw", route_mw);
      ("clocktree.merge_ms", merge_s *. 1000.0);
      ("gcr.reduce_ms", span_ms tr "gcr.reduce");
      ("gcr.reduce_mw", span_mw tr "gcr.reduce");
      ("gcr.share_ms", span_ms tr "gcr.share");
      ("gcr.size_ms", span_ms tr "gcr.size");
      ("gcr.eco_detect_ms", span_ms tr "gcr.eco_detect");
      ("gcr.eco_repair_ms", span_ms tr "gcr.eco_repair");
      ("eco.repaired_sinks", mean !resinks);
      ("eco.full_rebuild_share", float_of_int !rebuilds /. ops);
      ("eco.w_ratio", ratio (Gcr.Cost.w_total !tree) (Gcr.Cost.w_total scratch));
    ]
  in
  (finish run ~trace ~setup_s ~cpu_util ~layers, fingerprint run)
