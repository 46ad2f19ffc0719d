let check (sc : Scenario.t) =
  let config = Scenario.config sc in
  let profile = Scenario.profile sc in
  let options = sc.Scenario.options in
  let tree = Gcr.Flow.run ~options config profile sc.Scenario.sinks in
  Gcr.Verify.structural tree;
  Oracles.analytic_vs_simulated tree;
  Oracles.signature_vs_tables tree;
  (* Staged determinism: the bundled pipeline is exactly its three stages
     composed, bit for bit. *)
  let routed = Gcr.Flow.route_with_options options config profile sc.Scenario.sinks in
  let staged =
    Gcr.Flow.apply_sizing options
      (Gcr.Flow.apply_share options (Gcr.Flow.apply_reduction options routed))
  in
  Oracles.same_tree ~what:"Flow.run vs staged composition" tree staged;
  (* Gate sharing is idempotent on the pipeline output, and at the free
     settings (every gate kept, exact-equality grouping) never increases
     the analytic cost beyond re-embedding noise: dropping a
     waveform-equal redundant gate halves that node's input cap, the
     zero-skew DME re-balances around it, and on small trees a shifted
     snake segment moves W by up to ~0.5 % (a real wiring change, not a
     model error — the sharing decisions themselves are provably free). *)
  (match options.Gcr.Flow.gate_share with
  | Gcr.Flow.No_share -> ()
  | Gcr.Flow.Share { min_instances; eps } ->
    Oracles.same_tree ~what:"Gate_share.share idempotence"
      (Gcr.Flow.apply_share options tree)
      tree;
    if min_instances <= 1 && eps = 0 then begin
      let reduced = Gcr.Flow.apply_reduction options routed in
      let before = Gcr.Cost.w_total reduced in
      let after = Gcr.Cost.w_total (Gcr.Flow.apply_share options reduced) in
      if not (Util.Tol.within ~rel:1e-2 ~value:after ~bound:before ()) then
        Util.Gcr_error.mismatch ~stage:"Fuzz.check"
          "exact gate sharing increased W (%.17g -> %.17g)" before after
    end);
  (* Test-mode bypass reproduces the ungated clock on every scenario. *)
  Oracles.test_mode_bypass tree (Scenario.instr_stream sc);
  if sc.Scenario.test_en then begin
    let forced = Gcr.Gated_tree.with_test_en tree true in
    Gcr.Verify.structural forced;
    Oracles.analytic_vs_simulated forced
  end;
  (* Greedy reduction only ever accepts removals whose gain model says W
     falls — on the embedding it was measured on. The rebuild re-runs
     the zero-skew DME with the demoted gates' halved input caps, so the
     final W carries the same re-embedding noise as the sharing bound
     above (seen up to ~0.36 % on 5-sink trees with k=4 controllers). *)
  (match options.Gcr.Flow.reduction with
  | Gcr.Flow.Greedy ->
    let before = Gcr.Cost.w_total routed in
    let after = Gcr.Cost.w_total (Gcr.Flow.apply_reduction options routed) in
    if not (Util.Tol.within ~rel:1e-2 ~value:after ~bound:before ()) then
      Util.Gcr_error.mismatch ~stage:"Fuzz.check"
        "greedy gate reduction increased W (%.17g -> %.17g)" before after
  | Gcr.Flow.No_reduction | Gcr.Flow.Rules | Gcr.Flow.Fraction _ -> ());
  Oracles.reduce_matches_reference routed;
  Oracles.router_matches_scan config profile sc.Scenario.sinks;
  Oracles.nn_matches_scan sc.Scenario.tech sc.Scenario.sinks;
  Oracles.engine_vs_dense sc;
  (match options.Gcr.Flow.shards with
  | Gcr.Flow.Flat -> ()
  | Gcr.Flow.Auto_shards ->
    Oracles.sharded_regions_optimal config profile sc.Scenario.sinks
  | Gcr.Flow.Shards s ->
    Oracles.sharded_regions_optimal ~shards:s config profile sc.Scenario.sinks);
  (* Streaming ingestion replays the same trace chunked; on eco draws the
     drift-repair axis additionally exercises local re-route. *)
  Oracles.chunked_vs_whole sc;
  (match options.Gcr.Flow.eco with
  | Gcr.Flow.No_eco -> ()
  | Gcr.Flow.Eco { threshold } ->
    Oracles.eco_repair_matches_scratch ~threshold sc);
  Oracles.domains_determinism sc

let fails check sc =
  match check sc with
  | () -> None
  | exception e ->
    Some
      (match Formats.Parse.error_to_string e with
      | Some s -> s
      | None -> (
        match e with
        | Util.Gcr_error.Error err -> Util.Gcr_error.to_string err
        | e -> Printexc.to_string e))

(* Structurally smaller variants of a scenario, most aggressive first.
   Every candidate is valid by construction (>= 2 sinks, >= 2 cycles,
   dense sink ids, stream indices inside the RTL), so a candidate that
   raises does so because the bug is still present, not because the
   shrinker broke it. *)
let candidates (sc : Scenario.t) =
  let n = Array.length sc.Scenario.sinks in
  let len = Array.length sc.Scenario.stream in
  let opts = sc.Scenario.options in
  let with_sinks m = { sc with Scenario.sinks = Array.sub sc.Scenario.sinks 0 m } in
  let drop_unused_instructions =
    let k = Activity.Rtl.n_instructions sc.Scenario.rtl in
    let used = Array.make k false in
    Array.iter (fun i -> used.(i) <- true) sc.Scenario.stream;
    if Array.for_all Fun.id used then []
    else begin
      let remap = Array.make k (-1) in
      let next = ref 0 in
      let uses = ref [] in
      for i = 0 to k - 1 do
        if used.(i) then begin
          remap.(i) <- !next;
          incr next;
          uses :=
            Activity.Module_set.to_list (Activity.Rtl.uses sc.Scenario.rtl i)
            :: !uses
        end
      done;
      let rtl =
        Activity.Rtl.of_lists
          ~n_modules:(Activity.Rtl.n_modules sc.Scenario.rtl)
          (List.rev !uses)
      in
      [
        {
          sc with
          Scenario.rtl;
          stream = Array.map (fun i -> remap.(i)) sc.Scenario.stream;
        };
      ]
    end
  in
  List.concat
    [
      (if n > 3 then [ with_sinks (n / 2) ] else []);
      (if len > 4 then
         [ { sc with Scenario.stream = Array.sub sc.Scenario.stream 0 (len / 2) } ]
       else []);
      (if n > 2 then [ with_sinks (n - 1) ] else []);
      drop_unused_instructions;
      (if opts.Gcr.Flow.reduction <> Gcr.Flow.No_reduction then
         [
           {
             sc with
             Scenario.options = { opts with Gcr.Flow.reduction = Gcr.Flow.No_reduction };
           };
         ]
       else []);
      (if opts.Gcr.Flow.sizing <> Gcr.Flow.No_sizing then
         [
           {
             sc with
             Scenario.options = { opts with Gcr.Flow.sizing = Gcr.Flow.No_sizing };
           };
         ]
       else []);
      (if opts.Gcr.Flow.skew_budget > 0.0 then
         [ { sc with Scenario.options = { opts with Gcr.Flow.skew_budget = 0.0 } } ]
       else []);
      (if opts.Gcr.Flow.shards <> Gcr.Flow.Flat then
         [
           {
             sc with
             Scenario.options = { opts with Gcr.Flow.shards = Gcr.Flow.Flat };
           };
         ]
       else []);
      (if opts.Gcr.Flow.gate_share <> Gcr.Flow.No_share then
         [
           {
             sc with
             Scenario.options =
               { opts with Gcr.Flow.gate_share = Gcr.Flow.No_share };
           };
         ]
       else []);
      (if opts.Gcr.Flow.eco <> Gcr.Flow.No_eco then
         [
           {
             sc with
             Scenario.options = { opts with Gcr.Flow.eco = Gcr.Flow.No_eco };
           };
         ]
       else []);
      (if sc.Scenario.test_en then [ { sc with Scenario.test_en = false } ]
       else []);
      (if sc.Scenario.k_controllers <> 1 then
         [ { sc with Scenario.k_controllers = 1 } ]
       else []);
      (if sc.Scenario.control_weight <> 1.0 then
         [ { sc with Scenario.control_weight = 1.0 } ]
       else []);
      (if sc.Scenario.tech <> Clocktree.Tech.default then
         [ { sc with Scenario.tech = Clocktree.Tech.default } ]
       else []);
    ]

let minimize ?(rounds = 100) check sc =
  let rec go sc round =
    if round >= rounds then sc
    else
      match
        List.find_opt (fun c -> fails check c <> None) (candidates sc)
      with
      | None -> sc
      | Some smaller -> go smaller (round + 1)
  in
  go sc 0

type failure = {
  scenario : Scenario.t;
  shrunk : Scenario.t;
  error : string;
  seed_file : string option;
}

type stats = {
  scenarios : int;
  failures : failure list;
  elapsed_s : float;
  coverage : (string * int) list;
}

let ensure_dir dir =
  try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let scenarios_counter = Util.Obs.counter "fuzz.scenarios"

let failures_counter = Util.Obs.counter "fuzz.failures"

let run ?out_dir ?(check = check) ~count ~seed () =
  let t0 = Util.Obs.Clock.now () in
  let prng = Util.Prng.create seed in
  let coverage = Hashtbl.create 16 in
  let failures = ref [] in
  for case = 0 to count - 1 do
    let sc =
      Scenario.generate (Util.Prng.split prng)
        ~tag:(Printf.sprintf "seed %d case %d" seed case)
    in
    let bucket = Scenario.label sc in
    Hashtbl.replace coverage bucket
      (1 + Option.value (Hashtbl.find_opt coverage bucket) ~default:0);
    Util.Obs.incr scenarios_counter;
    match fails check sc with
    | None -> ()
    | Some error ->
      Util.Obs.incr failures_counter;
      let shrunk = minimize check sc in
      let error = Option.value (fails check shrunk) ~default:error in
      let seed_file =
        match out_dir with
        | None -> None
        | Some dir ->
          ensure_dir dir;
          let path =
            Filename.concat dir
              (Printf.sprintf "fail-seed%d-case%d.scenario" seed case)
          in
          Scenario.save path shrunk;
          Some path
      in
      failures := { scenario = sc; shrunk; error; seed_file } :: !failures
  done;
  {
    scenarios = count;
    failures = List.rev !failures;
    elapsed_s = Util.Obs.Clock.now () -. t0;
    coverage =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) coverage []);
  }

let replay ?(check = check) path = check (Scenario.load path)

let pp_stats ppf s =
  Format.fprintf ppf "@[<v>%d scenarios in %.2f s (%.1f/s), %d failure%s@,"
    s.scenarios s.elapsed_s
    (float_of_int s.scenarios /. Float.max 1e-9 s.elapsed_s)
    (List.length s.failures)
    (if List.length s.failures = 1 then "" else "s");
  List.iter
    (fun (bucket, count) -> Format.fprintf ppf "  %-44s %4d@," bucket count)
    s.coverage;
  List.iter
    (fun f ->
      Format.fprintf ppf "  FAIL %a@,    %s@," Scenario.pp f.shrunk f.error;
      match f.seed_file with
      | Some p -> Format.fprintf ppf "    reproducer: %s@," p
      | None -> ())
    s.failures;
  Format.fprintf ppf "@]"
