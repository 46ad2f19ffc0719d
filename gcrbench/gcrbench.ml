(* The gcr benchmark program.

     gcrbench.exe --workload W --seed N --seconds S --trace 0|1
     gcrbench.exe daemon --socket PATH     (serve-mix's daemon process)
     gcrbench.exe selftest                 (determinism check, shrunk)

   A run prints notes, then one JSON result line: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. BENCHMARK.json
   at the repository root lists the same names and units. *)

let e2e_units =
  [
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("throughput_rps", "1/s");
    ("peak_rss_mb", "MiB");
    ("w_pf", "pF");
  ]

(* Every layer metric, in report order. A workload that does not
   exercise a layer reports 0 for it (see README.md for which workload
   each metric belongs to). *)
let layer_units =
  [
    ("activity.profile_build_ms", "ms");
    ("activity.ingest_ms", "ms");
    ("gcr.route_ms", "ms");
    ("gcr.route_mw", "Mw");
    ("clocktree.merge_ms", "ms");
    ("gcr.reduce_ms", "ms");
    ("gcr.reduce_mw", "Mw");
    ("gcr.share_ms", "ms");
    ("gcr.size_ms", "ms");
    ("gcr.verify_ms", "ms");
    ("gc.major_collections", "count");
    ("greedy.heap_pops", "count");
    ("greedy.merge_steps", "count");
    ("greedy.stale_pop_rate", "ratio");
    ("signature.queries", "count");
    ("sig.batch_size", "count");
    ("gcr.eco_detect_ms", "ms");
    ("gcr.eco_repair_ms", "ms");
    ("eco.repaired_sinks", "count");
    ("eco.full_rebuild_share", "ratio");
    ("eco.w_ratio", "ratio");
    ("serve.service_p50_ms", "ms");
    ("serve.wait_p50_ms", "ms");
    ("serve.wait_p90_ms", "ms");
    ("serve.send_ms", "ms");
    ("serve.direct_route_ms", "ms");
    ("serve.overhead_ms", "ms");
    ("formats.scenario_parse_ms", "ms");
    ("serve.audit_ms", "ms");
    ("serve.digest_ms", "ms");
    ("serve.warm_share", "ratio");
    ("serve.audit_hit_rate", "ratio");
    ("serve.rejects", "count");
    ("serve.degraded_share", "ratio");
    ("shard.partition_ms", "ms");
    ("shard.route_regions_ms", "ms");
    ("shard.stitch_ms", "ms");
    ("shard.pool_speedup", "ratio");
    ("proc.cpu_util", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

let workloads = [ "eco-drift"; "serve-mix"; "sharded-20k" ]

let run_workload ?fixed_ops size name ~seed ~seconds ~trace =
  match name with
  | "sharded-20k" -> Inproc.sharded ?fixed_ops size ~seed ~seconds ~trace
  | "eco-drift" -> Inproc.eco ?fixed_ops size ~seed ~seconds ~trace
  | "serve-mix" ->
    Serve_mix.run ?max_requests:fixed_ops size ~seed ~seconds ~trace
  | w -> invalid_arg ("unknown workload " ^ w)

(* Order and complete a run's metrics against the declared list. *)
let complete ~trace (r : Common.result) =
  let units = if trace then layer_units else e2e_units in
  {
    r with
    Common.metrics =
      List.map
        (fun (name, _) ->
          (name, Option.value (List.assoc_opt name r.Common.metrics) ~default:0.0))
        units;
  }

(* Every routing runs on one domain (the trees are the same for any
   domain count). On a shared 2-vCPU host the second vCPU comes and
   goes: sharded-20k on the default two domains spread 0.40 in p50
   latency over ten runs. The pool's speed-up is the per-layer
   [shard.pool_speedup] instead. *)
let bench ~workload ~seed ~seconds ~trace =
  Unix.putenv "GCR_DOMAINS" "1";
  let r, _ = run_workload Inproc.Full workload ~seed ~seconds ~trace in
  let r = complete ~trace r in
  List.iter print_endline r.Common.notes;
  List.iter (fun m -> prerr_endline ("failed: " ^ m)) r.Common.failures;
  print_endline
    (Common.result_line ~units:(if trace then layer_units else e2e_units) r)

(* Shrunk runs with a fixed operation count: the same seed must repeat
   every digest, W and count exactly; another seed must change the
   generated inputs (the first fingerprint entry). *)
let selftest () =
  Common.setup_budget_s := 0.0;
  let ok = ref true in
  List.iter
    (fun w ->
      let fixed_ops = if w = "serve-mix" then 10 else 3 in
      let go seed =
        let r, fp =
          run_workload ~fixed_ops Inproc.Shrunk w ~seed ~seconds:60.0 ~trace:true
        in
        if r.Common.failed > 0 then begin
          ok := false;
          Printf.printf "%s seed %d: %d failed operations: %s\n" w seed r.Common.failed
            (String.concat "; " r.Common.failures)
        end;
        fp
      in
      let a = go 1 and b = go 1 and c = go 2 in
      let same = a = b and differs = List.hd a <> List.hd c in
      Printf.printf "%-12s %d entries  same seed repeats: %b  new seed changes inputs: %b\n" w
        (List.length a) same differs;
      if not (same && differs) then ok := false)
    workloads;
  if not !ok then exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> Ok acc
    | x :: _ -> Error ("unexpected argument " ^ x)
  in
  let usage msg =
    prerr_endline ("gcrbench: " ^ msg);
    exit 2
  in
  match args with
  | [ "selftest" ] -> selftest ()
  | "daemon" :: rest -> (
    match opts [] rest with
    | Ok [ ("socket", path) ] -> Serve_mix.daemon_main path
    | _ -> usage "daemon --socket PATH")
  | rest -> (
    match opts [] rest with
    | Error e -> usage e
    | Ok o -> (
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage ("missing --" ^ k) in
      let workload = get "workload" in
      if not (List.mem workload workloads) then usage ("unknown workload " ^ workload);
      match
        ( int_of_string_opt (get "seed"),
          float_of_string_opt (get "seconds"),
          get "trace" )
      with
      | Some seed, Some seconds, ("0" | "1" as t) when seconds > 0.0 ->
        bench ~workload ~seed ~seconds ~trace:(t = "1")
      | _ -> usage "--seed N --seconds S --trace 0|1"))
