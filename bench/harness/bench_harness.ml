(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) plus the ablations called out in DESIGN.md, then
   times the computational kernels with Bechamel (one Test.make per
   table/figure, plus micro-benchmarks).

   Library form: every experiment is a named section in {!sections}, and
   {!run} executes all of them or a chosen subset, driven by the
   `gcr bench --quick --only SECTION --out FILE` CLI subcommand.
   Sections that produce machine-readable numbers record JSON fragments;
   {!run} assembles them into one document (BENCH_greedy.json by
   default), which bench/compare gates against BENCH_trajectory.jsonl.

   Absolute numbers differ from the paper (synthetic sinks and workloads,
   different process parameters — see DESIGN.md); the comparisons mirror
   the paper's: who wins, by what factor, where the optimum falls.
   EXPERIMENTS.md records paper-vs-measured for every experiment. *)

let quick_mode = ref false

let quick () = !quick_mode

let stream_length () = if quick () then 1_000 else 10_000

let fig3_suites () =
  if quick () then [ "r1"; "r2" ] else [ "r1"; "r2"; "r3"; "r4"; "r5" ]

let section title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 72 '=') title (String.make 72 '=')

let case_cache : (string, Benchmarks.Suite.case) Hashtbl.t = Hashtbl.create 8

let case name =
  match Hashtbl.find_opt case_cache name with
  | Some c -> c
  | None ->
    let c = Benchmarks.Suite.by_name ~stream_length:(stream_length ()) name in
    Hashtbl.add case_cache name c;
    c

let pf = Printf.printf

(* Machine-readable output: sections deposit JSON fragments here (key,
   rendered value); {!run} writes them as one object at the end, so a
   partial run (--only) still yields a well-formed document containing
   exactly the sections that ran. *)
let results : (string * string) list ref = ref []

let record key json = results := (key, json) :: !results

let write_results out =
  if !results <> [] then begin
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (Printf.sprintf "{\n  \"quick\": %b" (quick ()));
    List.iter
      (fun (k, v) -> Buffer.add_string buf (Printf.sprintf ",\n  \"%s\": %s" k v))
      (List.rev !results);
    Buffer.add_string buf "\n}\n";
    let oc = open_out out in
    Buffer.output_buffer oc buf;
    close_out oc;
    pf "\nWrote %s.\n" out
  end

(* ------------------------------------------------------------------ *)
(* Table 4: benchmark characteristics                                 *)
(* ------------------------------------------------------------------ *)

let table4 () =
  section "Table 4: benchmark characteristics";
  let cases = List.map case (fig3_suites ()) in
  Util.Text_table.print (Benchmarks.Suite.characteristics_table cases);
  pf "\nPaper: 5 suites of 267/598/862/1903/3101 sinks, streams of thousands\n";
  pf "of instructions, Ave(M(I)) ~= 0.4 across all suites.\n"

(* ------------------------------------------------------------------ *)
(* Figure 3: buffered vs gated vs gate-reduced, switched cap and area  *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section "Figure 3: buffered vs gated vs gated+gate-reduction (r1-r5)";
  let open Util.Text_table in
  let sc =
    create ~title:"Switched capacitance (pF/cycle)"
      [ ("bench", Left); ("Buffered", Right); ("Gated", Right); ("Gate Red.", Right);
        ("Red./Buf.", Right) ]
  in
  let area =
    create ~title:"Area (10^3 um^2)"
      [ ("bench", Left); ("Buffered", Right); ("Gated", Right); ("Gate Red.", Right) ]
  in
  List.iter
    (fun name ->
      let { Benchmarks.Suite.config; profile; sinks; _ } = case name in
      let buffered = Gcr.Buffered.route config profile sinks in
      let gated = Gcr.Router.route config profile sinks in
      let reduced = Gcr.Gate_reduction.reduce_greedy gated in
      let w t = Gcr.Cost.w_total t /. 1000.0 in
      add_row sc
        [
          name;
          Printf.sprintf "%.2f" (w buffered);
          Printf.sprintf "%.2f" (w gated);
          Printf.sprintf "%.2f" (w reduced);
          Printf.sprintf "%.2f" (w reduced /. w buffered);
        ];
      let a t = (Gcr.Area.of_tree t).Gcr.Area.total /. 1000.0 in
      add_row area
        [
          name;
          Printf.sprintf "%.0f" (a buffered);
          Printf.sprintf "%.0f" (a gated);
          Printf.sprintf "%.0f" (a reduced);
        ])
    (fig3_suites ());
  print sc;
  print_newline ();
  print area;
  pf "\nPaper: without reduction the gated tree is WORSE than buffered (the\n";
  pf "star routing dominates); after reduction it consumes ~30%% less power,\n";
  pf "with a remaining area overhead.\n"

(* ------------------------------------------------------------------ *)
(* Figure 4: average module activity vs switched capacitance (r1)     *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "Figure 4: average module activity vs switched capacitance (r1)";
  let spec = Benchmarks.Rbench.by_name "r1" in
  let open Util.Text_table in
  let table =
    create
      [ ("activity", Right); ("measured", Right); ("Gate Red. (pF)", Right);
        ("Buffered (pF)", Right); ("ratio", Right) ]
  in
  List.iter
    (fun usage ->
      let c = Benchmarks.Suite.case ~stream_length:(stream_length ()) ~usage spec in
      let { Benchmarks.Suite.config; profile; sinks; _ } = c in
      let buffered = Gcr.Buffered.route config profile sinks in
      let reduced =
        Gcr.Gate_reduction.reduce_greedy (Gcr.Router.route config profile sinks)
      in
      let wg = Gcr.Cost.w_total reduced and wb = Gcr.Cost.w_total buffered in
      add_row table
        [
          Printf.sprintf "%.1f" usage;
          Printf.sprintf "%.3f" (Activity.Profile.avg_activity profile);
          Printf.sprintf "%.2f" (wg /. 1000.0);
          Printf.sprintf "%.2f" (wb /. 1000.0);
          Printf.sprintf "%.2f" (wg /. wb);
        ])
    [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ];
  print table;
  pf "\nPaper: the two curves converge as activity rises — gating only helps\n";
  pf "when modules idle; the gated tree dissipates at least the activity\n";
  pf "fraction of the ungated one.\n"

(* ------------------------------------------------------------------ *)
(* Figure 5: gate reduction % vs switched capacitance and area (r1)   *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "Figure 5: gate reduction vs switched capacitance and area (r1)";
  let { Benchmarks.Suite.config; profile; sinks; _ } = case "r1" in
  let gated = Gcr.Router.route config profile sinks in
  let open Util.Text_table in
  let table =
    create
      [ ("reduction %", Right); ("gates", Right); ("Controller tree (pF)", Right);
        ("Clock tree (pF)", Right); ("Total (pF)", Right); ("Area (10^3um^2)", Right) ]
  in
  let best = ref (infinity, 0) in
  List.iter
    (fun pct ->
      let tree =
        Gcr.Gate_reduction.reduce_fraction gated ~fraction:(float_of_int pct /. 100.0)
      in
      let w = Gcr.Cost.w_total tree in
      if w < fst !best then best := (w, pct);
      add_row table
        [
          string_of_int pct;
          string_of_int (Gcr.Gated_tree.gate_count tree);
          Printf.sprintf "%.2f" (Gcr.Cost.w_ctrl tree /. 1000.0);
          Printf.sprintf "%.2f" (Gcr.Cost.w_clock tree /. 1000.0);
          Printf.sprintf "%.2f" (w /. 1000.0);
          Printf.sprintf "%.0f" ((Gcr.Area.of_tree tree).Gcr.Area.total /. 1000.0);
        ])
    [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90; 95; 100 ];
  let named name tree =
    add_row table
      [
        name;
        string_of_int (Gcr.Gated_tree.gate_count tree);
        Printf.sprintf "%.2f" (Gcr.Cost.w_ctrl tree /. 1000.0);
        Printf.sprintf "%.2f" (Gcr.Cost.w_clock tree /. 1000.0);
        Printf.sprintf "%.2f" (Gcr.Cost.w_total tree /. 1000.0);
        Printf.sprintf "%.0f" ((Gcr.Area.of_tree tree).Gcr.Area.total /. 1000.0);
      ]
  in
  named "greedy" (Gcr.Gate_reduction.reduce_greedy gated);
  named "rules" (Gcr.Gate_reduction.reduce_rules gated);
  named "optimal(DP)" (Gcr.Gate_reduction.reduce_optimal gated);
  print table;
  pf "\nMeasured optimum at %d%% reduction.\n" (snd !best);
  pf "Paper: controller tree falls and clock tree rises as gates go; the\n";
  pf "total has an interior optimum (55%% on their r1 setup).\n"

(* ------------------------------------------------------------------ *)
(* Figure 6: centralized vs distributed controllers                   *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section "Figure 6 / Section 6: distributed gate controllers";
  let suites = if quick () then [ "r1" ] else [ "r1"; "r2" ] in
  List.iter
    (fun name ->
      let { Benchmarks.Suite.profile; sinks; spec; _ } = case name in
      let die = Benchmarks.Rbench.die spec in
      let open Util.Text_table in
      let table =
        create ~title:(Printf.sprintf "%s (die side %.1f mm)" name
                         (spec.Benchmarks.Rbench.die_side /. 1000.0))
          [ ("k", Right); ("ctrl wire (mm)", Right); ("G*D/(4 sqrt k) (mm)", Right);
            ("W ctrl (pF)", Right); ("W total (pF)", Right) ]
      in
      List.iter
        (fun k ->
          let controller = Gcr.Controller.distributed die ~k in
          let config = Gcr.Config.make ~controller ~die () in
          let tree =
            Gcr.Gate_reduction.reduce_greedy (Gcr.Router.route config profile sinks)
          in
          let g = float_of_int (Gcr.Gated_tree.gate_count tree) in
          let analytic =
            g *. spec.Benchmarks.Rbench.die_side /. (4.0 *. sqrt (float_of_int k))
          in
          add_row table
            [
              string_of_int k;
              Printf.sprintf "%.2f" (Gcr.Cost.control_wirelength_total tree /. 1000.0);
              Printf.sprintf "%.2f" (analytic /. 1000.0);
              Printf.sprintf "%.2f" (Gcr.Cost.w_ctrl tree /. 1000.0);
              Printf.sprintf "%.2f" (Gcr.Cost.w_total tree /. 1000.0);
            ])
        [ 1; 4; 16; 64 ];
      print table;
      print_newline ())
    suites;
  pf "Paper: star routing area shrinks by a factor of sqrt(k) with k\n";
  pf "distributed controllers.\n"

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 6)                                    *)
(* ------------------------------------------------------------------ *)

let ablate_cost () =
  section
    "Ablation 1: merge ordering — Eq.(3) vs geometry-only (NN) vs\n\
     activity-only (Tellez-style, the paper's ref [5])";
  let suites = if quick () then [ "r1" ] else [ "r1"; "r2" ] in
  let open Util.Text_table in
  let table =
    create
      [ ("bench", Left); ("Eq.(3) W (pF)", Right); ("geometry W (pF)", Right);
        ("activity W (pF)", Right); ("Eq.(3) wire (mm)", Right);
        ("geometry wire (mm)", Right); ("activity wire (mm)", Right) ]
  in
  List.iter
    (fun name ->
      let { Benchmarks.Suite.config; profile; sinks; _ } = case name in
      let sc_tree =
        Gcr.Gate_reduction.reduce_greedy (Gcr.Router.route config profile sinks)
      in
      (* same gating machinery on a purely geometric topology *)
      let nn_topo =
        Clocktree.Nn.topology config.Gcr.Config.tech
          ~edge_gate:(Some config.Gcr.Config.tech.Clocktree.Tech.and_gate)
          sinks
      in
      let nn_tree =
        Gcr.Gate_reduction.reduce_greedy
          (Gcr.Gated_tree.build config profile sinks nn_topo ~kind:(fun _ ->
               Gcr.Gated_tree.Gated))
      in
      (* ... and on an activity-only topology *)
      let act_tree =
        Gcr.Gate_reduction.reduce_greedy
          (Gcr.Activity_router.route config profile sinks)
      in
      let w t = Gcr.Cost.w_total t /. 1000.0 in
      let wire t = Gcr.Cost.clock_wirelength t /. 1000.0 in
      add_row table
        [
          name;
          Printf.sprintf "%.2f" (w sc_tree);
          Printf.sprintf "%.2f" (w nn_tree);
          Printf.sprintf "%.2f" (w act_tree);
          Printf.sprintf "%.1f" (wire sc_tree);
          Printf.sprintf "%.1f" (wire nn_tree);
          Printf.sprintf "%.1f" (wire act_tree);
        ])
    suites;
  print table;
  pf "\nEq.(3) sits between the extremes: geometry-only cannot see masking\n";
  pf "opportunity, activity-only pays ruinous wirelength.\n"

let ablate_ctrl_terms () =
  section
    "Ablation 2: controller-star terms in the merge cost (the paper's\n\
     extension over its prior work [4])";
  let suites = if quick () then [ "r1" ] else [ "r1"; "r2" ] in
  let open Util.Text_table in
  let table =
    create
      [ ("bench", Left); ("with star terms (pF)", Right);
        ("without star terms (pF)", Right); ("with/without", Right) ]
  in
  List.iter
    (fun name ->
      let { Benchmarks.Suite.config; profile; sinks; _ } = case name in
      let with_tree =
        Gcr.Gate_reduction.reduce_greedy (Gcr.Router.route config profile sinks)
      in
      (* route blind to the controller, then cost fairly with it *)
      let blind_config = { config with Gcr.Config.control_weight = 0.0 } in
      let topo = Gcr.Router.route_topology_only blind_config profile sinks in
      let without_tree =
        Gcr.Gate_reduction.reduce_greedy
          (Gcr.Gated_tree.build config profile sinks topo ~kind:(fun _ ->
               Gcr.Gated_tree.Gated))
      in
      let ww = Gcr.Cost.w_total with_tree and wo = Gcr.Cost.w_total without_tree in
      add_row table
        [
          name;
          Printf.sprintf "%.2f" (ww /. 1000.0);
          Printf.sprintf "%.2f" (wo /. 1000.0);
          Printf.sprintf "%.3f" (ww /. wo);
        ])
    suites;
  print table

let ablate_forced_insertion () =
  section "Ablation 3: forced gate insertion (phase-delay guard)";
  let { Benchmarks.Suite.config; profile; sinks; _ } = case "r1" in
  let gated = Gcr.Router.route config profile sinks in
  let aggressive limit =
    {
      Gcr.Gate_reduction.default_thresholds with
      Gcr.Gate_reduction.activity_high = 0.0 (* rules want to drop everything *);
      force_cap_multiple = limit;
    }
  in
  let open Util.Text_table in
  let table =
    create
      [ ("force multiple", Left); ("gates kept", Right); ("W total (pF)", Right);
        ("phase delay (ps)", Right) ]
  in
  List.iter
    (fun (label, limit) ->
      let tree = Gcr.Gate_reduction.reduce_rules ~thresholds:(aggressive limit) gated in
      let r = Gcr.Report.of_tree tree in
      add_row table
        [
          label;
          string_of_int r.Gcr.Report.gate_count;
          Printf.sprintf "%.2f" (r.Gcr.Report.w_total /. 1000.0);
          Printf.sprintf "%.1f" (r.Gcr.Report.phase_delay /. 1000.0);
        ])
    [ ("off (inf)", infinity); ("20 x Cg", 20.0); ("5 x Cg", 5.0); ("2 x Cg", 2.0) ];
  print table;
  pf "\nForcing gates back in bounds the capacitance a single driver must\n";
  pf "push, trading switched capacitance for drive granularity.\n"

let ablate_sizing () =
  section "Ablation 4: gate sizing policies (the paper's 'gates can be sized')";
  let { Benchmarks.Suite.config; profile; sinks; _ } = case "r1" in
  let tree = Gcr.Gate_reduction.reduce_greedy (Gcr.Router.route config profile sinks) in
  let open Util.Text_table in
  let table =
    create
      [ ("policy", Left); ("W (pF)", Right); ("clock wire (mm)", Right);
        ("phase delay (ps)", Right); ("cell area (10^3um^2)", Right) ]
  in
  let row name t =
    let r = Gcr.Report.of_tree t in
    add_row table
      [
        name;
        Printf.sprintf "%.2f" (r.Gcr.Report.w_total /. 1000.0);
        Printf.sprintf "%.1f" (r.Gcr.Report.clock_wirelength /. 1000.0);
        Printf.sprintf "%.1f" (r.Gcr.Report.phase_delay /. 1000.0);
        Printf.sprintf "%.1f"
          ((r.Gcr.Report.area.Gcr.Area.gates +. r.Gcr.Report.area.Gcr.Area.buffers)
          /. 1000.0);
      ]
  in
  row "unsized" tree;
  row "tapered (per level)" (Gcr.Sizing.tapered ~min_scale:1.0 tree);
  row "proportional (per gate)" (Gcr.Sizing.proportional tree);
  row "uniform 2x" (Gcr.Sizing.uniform tree 2.0);
  print table;
  pf "\nNaive per-gate sizing mixes sibling drive strengths; zero skew then\n";
  pf "demands balancing wire, inflating W. Tapered (one size per level)\n";
  pf "cuts delay while leaving the balance untouched.\n"

let ablate_skew_budget () =
  section "Ablation 5: bounded-skew routing (zero skew as a purchased constraint)";
  let { Benchmarks.Suite.config; profile; sinks; _ } = case "r1" in
  let open Util.Text_table in
  let table =
    create
      [ ("budget (ps)", Right); ("clock wire (mm)", Right); ("measured skew (ps)", Right);
        ("W (pF)", Right) ]
  in
  List.iter
    (fun ps ->
      let skew_budget = ps *. 1000.0 in
      let tree =
        if skew_budget > 0.0 then
          Gcr.Gate_reduction.reduce_greedy
            (Gcr.Router.route ~skew_budget config profile sinks)
        else Gcr.Gate_reduction.reduce_greedy (Gcr.Router.route config profile sinks)
      in
      let r = Gcr.Report.of_tree tree in
      add_row table
        [
          Printf.sprintf "%.0f" ps;
          Printf.sprintf "%.2f" (r.Gcr.Report.clock_wirelength /. 1000.0);
          Printf.sprintf "%.3f" (r.Gcr.Report.skew /. 1000.0);
          Printf.sprintf "%.2f" (r.Gcr.Report.w_total /. 1000.0);
        ])
    [ 0.0; 1.0; 5.0; 20.0; 100.0 ];
  print table;
  pf "\nMeasured skew always stays within the budget; wire savings appear\n";
  pf "where exact zero skew would have snaked.\n"

let ablate_refinement () =
  section "Ablation 6: NNI topology refinement on top of the greedy merge";
  let sizes = if quick () then [ 64 ] else [ 64; 128 ] in
  let open Util.Text_table in
  let table =
    create
      [ ("sinks", Right); ("greedy W (pF)", Right); ("refined W (pF)", Right);
        ("moves", Right); ("after reduction: greedy (pF)", Right);
        ("after reduction: refined (pF)", Right) ]
  in
  List.iter
    (fun n ->
      let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:n in
      let { Benchmarks.Suite.config; profile; sinks; _ } =
        Benchmarks.Suite.case ~stream_length:2_000 spec
      in
      let tree = Gcr.Router.route config profile sinks in
      let refined, stats = Gcr.Refine.nni ~max_passes:2 tree in
      let red t = Gcr.Cost.w_total (Gcr.Gate_reduction.reduce_greedy t) /. 1000.0 in
      add_row table
        [
          string_of_int n;
          Printf.sprintf "%.2f" (stats.Gcr.Refine.w_before /. 1000.0);
          Printf.sprintf "%.2f" (stats.Gcr.Refine.w_after /. 1000.0);
          string_of_int stats.Gcr.Refine.moves;
          Printf.sprintf "%.2f" (red tree);
          Printf.sprintf "%.2f" (red refined);
        ])
    sizes;
  print table;
  pf "\nHill-climbing repairs local mistakes of the greedy merge order; the\n";
  pf "residual advantage after gate reduction shows how much of it the\n";
  pf "reduction pass would have recovered anyway.\n"

let stream_sensitivity () =
  section "Stream-length sensitivity (the paper's Sec. 3.2 cost argument)";
  let n = 96 in
  let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:n in
  let sinks = Benchmarks.Rbench.sinks spec in
  let rtl =
    Benchmarks.Workload.make_rtl ~n_modules:n ~n_instructions:32 ~usage:0.4
      ~n_groups:spec.Benchmarks.Rbench.n_groups
      ~seed:(spec.Benchmarks.Rbench.seed * 13) ()
  in
  let model = Benchmarks.Workload.cpu_model rtl in
  let config = Gcr.Config.make ~die:(Benchmarks.Rbench.die spec) () in
  let exact_profile = Activity.Profile.of_model model in
  let tree = Gcr.Router.route config exact_profile sinks in
  let w_exact = Gcr.Cost.w_total tree in
  let open Util.Text_table in
  let table =
    create [ ("stream cycles", Right); ("estimated W (pF)", Right); ("error", Right) ]
  in
  List.iter
    (fun cycles ->
      let profile = Activity.Profile.generate model ~seed:71 ~length:cycles in
      let recost =
        Gcr.Gated_tree.build config profile sinks tree.Gcr.Gated_tree.topo
          ~kind:(fun _ -> Gcr.Gated_tree.Gated)
      in
      let w = Gcr.Cost.w_total recost in
      add_row table
        [
          string_of_int cycles;
          Printf.sprintf "%.2f" (w /. 1000.0);
          Printf.sprintf "%+.2f%%" (100.0 *. ((w -. w_exact) /. w_exact));
        ])
    (if quick () then [ 100; 1_000; 10_000 ] else [ 100; 300; 1_000; 3_000; 10_000; 30_000 ]);
  print table;
  pf "\nExact (closed-form Markov) W = %.2f pF. A few thousand cycles give\n"
    (w_exact /. 1000.0);
  pf "percent-level accuracy; the one-scan tables make even very long\n";
  pf "streams cheap, which is the paper's point.\n"

let variation_study () =
  section "Process variation: how robust is the zero-skew guarantee?";
  let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:128 in
  let { Benchmarks.Suite.config; profile; sinks; _ } =
    Benchmarks.Suite.case ~stream_length:2_000 spec
  in
  let tree = Gcr.Router.route config profile sinks in
  let runs = if quick () then 30 else 200 in
  let open Util.Text_table in
  let table =
    create
      [ ("wire sigma", Right); ("mean skew (ps)", Right); ("p95 skew (ps)", Right);
        ("max skew (ps)", Right); ("of phase delay", Right) ]
  in
  List.iter
    (fun sigma ->
      let r = Gsim.Variation.monte_carlo ~seed:3 ~sigma ~runs tree in
      add_row table
        [
          Printf.sprintf "%.0f%%" (100.0 *. sigma);
          Printf.sprintf "%.2f" (r.Gsim.Variation.mean_skew /. 1000.0);
          Printf.sprintf "%.2f" (r.Gsim.Variation.p95_skew /. 1000.0);
          Printf.sprintf "%.2f" (r.Gsim.Variation.max_skew /. 1000.0);
          Printf.sprintf "%.2f%%"
            (100.0 *. r.Gsim.Variation.p95_skew /. r.Gsim.Variation.nominal_delay);
        ])
    [ 0.01; 0.03; 0.05; 0.10 ];
  print table;
  pf "\nNominal zero skew is exactly that — nominal; wire variation turns it\n";
  pf "into a distribution (%d Monte-Carlo runs per row). Any skew budget a\n" runs;
  pf "design signs off must leave this much margin.\n"

(* ------------------------------------------------------------------ *)
(* End-to-end validation spot check                                   *)
(* ------------------------------------------------------------------ *)

let validation () =
  section "Cross-validation: analytic cost vs cycle-accurate simulation (r1)";
  let { Benchmarks.Suite.config; profile; sinks; _ } = case "r1" in
  let reduced =
    Gcr.Gate_reduction.reduce_greedy (Gcr.Router.route config profile sinks)
  in
  let c = Gsim.Check.compare reduced in
  Format.printf "%a@." Gsim.Check.pp c;
  Gsim.Check.validate reduced;
  pf "OK: table-driven probabilities reproduce the simulated switched\n";
  pf "capacitance exactly (same stream, same counts).\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro/kernel benchmarks: one Test.make per experiment     *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  (* small shared instances so each test runs in microseconds-to-millis *)
  let spec64 = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:64 in
  let case64 = Benchmarks.Suite.case ~stream_length:1_000 spec64 in
  let { Benchmarks.Suite.config; profile; sinks; _ } = case64 in
  let routed = Gcr.Router.route config profile sinks in
  let stream = Activity.Profile.stream profile in
  let n_mods = Activity.Profile.n_modules profile in
  let big_set = Activity.Module_set.of_list n_mods [ 0; 13; 27; 41; 63 ] in
  let die = Benchmarks.Rbench.die spec64 in
  let distributed = Gcr.Controller.distributed die ~k:16 in
  let tech = config.Gcr.Config.tech in
  let branch =
    { Clocktree.Zskew.delay = 120.0; cap = 40.0; gate = Some tech.Clocktree.Tech.and_gate }
  in
  [
    (* Table 4 kernel: one-scan table construction *)
    Test.make ~name:"table4/profile-build"
      (Staged.stage (fun () -> ignore (Activity.Profile.of_stream stream)));
    (* Figure 3 kernel: full gated route of a 64-sink suite *)
    Test.make ~name:"fig3/route-64"
      (Staged.stage (fun () -> ignore (Gcr.Router.route config profile sinks)));
    (* Figure 4 kernel: the probability queries behind every enable *)
    Test.make ~name:"fig4/p-any"
      (Staged.stage (fun () -> ignore (Activity.Profile.p profile big_set)));
    Test.make ~name:"fig4/ptr"
      (Staged.stage (fun () -> ignore (Activity.Profile.ptr profile big_set)));
    (* Figure 5 kernel: a half-fraction gate reduction *)
    Test.make ~name:"fig5/reduce-half"
      (Staged.stage (fun () ->
           ignore (Gcr.Gate_reduction.reduce_fraction routed ~fraction:0.5)));
    (* Figure 6 kernel: routing against a 16-way distributed controller *)
    Test.make ~name:"fig6/route-distributed"
      (Staged.stage (fun () ->
           let config = Gcr.Config.make ~controller:distributed ~die () in
           ignore (Gcr.Router.route config profile sinks)));
    (* probability-kernel micro-benchmarks: table scans vs the
       instruction-hit signature kernel, same set *)
    Test.make ~name:"micro/sig-p"
      (let kern =
         match Activity.Profile.signature_kernel profile with
         | Some k -> k
         | None -> assert false
       in
       let s = Activity.Signature.of_set kern big_set in
       Staged.stage (fun () -> ignore (Activity.Signature.p kern s)));
    Test.make ~name:"micro/sig-ptr"
      (let kern =
         match Activity.Profile.signature_kernel profile with
         | Some k -> k
         | None -> assert false
       in
       let s = Activity.Signature.of_set kern big_set in
       Staged.stage (fun () -> ignore (Activity.Signature.ptr kern s)));
    (* substrate micro-benchmarks *)
    Test.make ~name:"micro/zskew-split"
      (Staged.stage (fun () -> ignore (Clocktree.Zskew.split tech branch branch ~dist:300.0)));
    Test.make ~name:"micro/simulate-1k-cycles"
      (Staged.stage (fun () -> ignore (Gsim.Gate_sim.run routed stream)));
    Test.make ~name:"micro/tapered-sizing"
      (Staged.stage (fun () -> ignore (Gcr.Sizing.tapered routed)));
    Test.make ~name:"micro/power-trace"
      (Staged.stage (fun () ->
           ignore (Gsim.Trace.power_trace routed stream ~window:100)));
  ]

let run_bechamel () =
  section "Bechamel kernel timings (one per table/figure + micro)";
  let open Bechamel in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if quick () then 0.25 else 1.0))
      ~kde:None ()
  in
  let tests = Test.make_grouped ~name:"gcr" (bechamel_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns = match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> nan in
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
      rows := (name, ns, r2) :: !rows)
    results;
  let open Util.Text_table in
  let table = create [ ("kernel", Left); ("time/run", Right); ("r^2", Right) ] in
  let pretty ns =
    if ns >= 1.0e9 then Printf.sprintf "%.2f s" (ns /. 1.0e9)
    else if ns >= 1.0e6 then Printf.sprintf "%.2f ms" (ns /. 1.0e6)
    else if ns >= 1.0e3 then Printf.sprintf "%.2f us" (ns /. 1.0e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.iter
    (fun (name, ns, r2) -> add_row table [ name; pretty ns; Printf.sprintf "%.3f" r2 ])
    (List.sort compare !rows);
  print table

(* ------------------------------------------------------------------ *)
(* Scaling: the O(K N^2 log N) construction in practice               *)
(* ------------------------------------------------------------------ *)

let scaling () =
  section "Construction-time scaling (paper Sec. 4.2 complexity)";
  let sizes = if quick () then [ 32; 64; 128 ] else [ 64; 128; 256; 512; 1024 ] in
  let open Util.Text_table in
  let table = create [ ("sinks", Right); ("route (ms)", Right); ("reduce (ms)", Right) ] in
  List.iter
    (fun n ->
      let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:n in
      let { Benchmarks.Suite.config; profile; sinks; _ } =
        Benchmarks.Suite.case ~stream_length:1_000 spec
      in
      let t0 = Util.Obs.Clock.now () in
      let tree = Gcr.Router.route config profile sinks in
      let t1 = Util.Obs.Clock.now () in
      ignore (Gcr.Gate_reduction.reduce_greedy tree);
      let t2 = Util.Obs.Clock.now () in
      add_row table
        [
          string_of_int n;
          Printf.sprintf "%.1f" (1000.0 *. (t1 -. t0));
          Printf.sprintf "%.1f" (1000.0 *. (t2 -. t1));
        ])
    sizes;
  print table

(* ------------------------------------------------------------------ *)
(* Greedy-merge scaling: NN-heap (+ spatial grid) vs all-pairs heap   *)
(* ------------------------------------------------------------------ *)

(* The pre-optimization activity-only merge, replicated inline as the
   baseline: a fresh Module_set.union + Profile.p per candidate
   evaluation (no memoization, no scratch buffers) on the all-pairs
   heap. *)
let old_activity_topology (config : Gcr.Config.t) profile sinks =
  let tech = config.Gcr.Config.tech in
  let n = Array.length sinks in
  let grow =
    Clocktree.Grow.create tech ~edge_gate:(Some tech.Clocktree.Tech.and_gate) sinks
  in
  let enables = Array.make ((2 * n) - 1) None in
  for v = 0 to n - 1 do
    enables.(v) <- Some (Gcr.Enable.of_sink profile sinks.(v))
  done;
  let enable v = match enables.(v) with Some e -> e | None -> assert false in
  let tie = 1e-6 /. (1.0 +. Geometry.Bbox.width config.Gcr.Config.die) in
  let cost a b =
    let u =
      Activity.Module_set.union (enable a).Gcr.Enable.mods (enable b).Gcr.Enable.mods
    in
    Activity.Profile.p profile u +. (tie *. Clocktree.Grow.dist grow a b)
  in
  let merge a b =
    let k = Clocktree.Grow.merge grow a b in
    enables.(k) <- Some (Gcr.Enable.merge profile (enable a) (enable b));
    k
  in
  let _root = Clocktree.Greedy.merge_all_dense ~n ~cost ~merge in
  Clocktree.Grow.topology grow

let greedy_scaling () =
  section "Greedy-merge scaling: NN-heap (+ spatial grid) vs all-pairs heap";
  let geo_sizes = if quick () then [ 100; 250 ] else [ 250; 500; 1000; 2000; 3101; 6000 ] in
  let act_sizes = if quick () then [ 100 ] else [ 250; 500; 1000; 2000; 4000; 6000 ] in
  let geo_dense_cap = if quick () then 250 else 3101 in
  let act_dense_cap = if quick () then 100 else 2000 in
  let time f =
    let t0 = Util.Obs.Clock.now () in
    let r = f () in
    (r, Util.Obs.Clock.now () -. t0)
  in
  let js = Buffer.create 1024 in
  let open Util.Text_table in
  (* geometric: Nn spatial grid vs dense all-pairs heap *)
  let geo =
    create ~title:"Geometric merge (Grow.dist cost)"
      [ ("sinks", Right); ("spatial (s)", Right); ("all-pairs (s)", Right);
        ("speedup", Right); ("wirelength rel err", Right) ]
  in
  Buffer.add_string js "[\n";
  let first = ref true in
  List.iter
    (fun n ->
      let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:n in
      let sinks = Benchmarks.Rbench.sinks spec in
      let tech = Clocktree.Tech.default in
      let wirelength topo =
        Clocktree.Mseg.total_wirelength
          (Clocktree.Mseg.build tech topo ~sinks ~gate_on_edge:(fun _ -> None))
      in
      let fast_topo, fast_t =
        time (fun () -> Clocktree.Nn.topology tech ~edge_gate:None sinks)
      in
      let dense =
        if n <= geo_dense_cap then begin
          let dense_topo, dense_t =
            time (fun () -> Clocktree.Nn.topology_dense tech ~edge_gate:None sinks)
          in
          let wf = wirelength fast_topo and wd = wirelength dense_topo in
          Some (dense_t, Float.abs (wf -. wd) /. (1.0 +. Float.abs wd))
        end
        else None
      in
      (match dense with
      | Some (dense_t, err) ->
        add_row geo
          [ string_of_int n; Printf.sprintf "%.3f" fast_t; Printf.sprintf "%.3f" dense_t;
            Printf.sprintf "%.1fx" (dense_t /. fast_t); Printf.sprintf "%.2e" err ];
        if not !first then Buffer.add_string js ",\n";
        Buffer.add_string js
          (Printf.sprintf
             "    {\"n\": %d, \"spatial_s\": %.6f, \"dense_s\": %.6f, \"speedup\": \
              %.2f, \"wirelength_rel_err\": %.3e}"
             n fast_t dense_t (dense_t /. fast_t) err)
      | None ->
        add_row geo
          [ string_of_int n; Printf.sprintf "%.3f" fast_t; "-"; "-"; "-" ];
        if not !first then Buffer.add_string js ",\n";
        Buffer.add_string js
          (Printf.sprintf
             "    {\"n\": %d, \"spatial_s\": %.6f, \"dense_s\": null, \"speedup\": \
              null, \"wirelength_rel_err\": null}"
             n fast_t));
      first := false)
    geo_sizes;
  Buffer.add_string js "\n  ]";
  record "geometric" (Buffer.contents js);
  Buffer.clear js;
  print geo;
  print_newline ();
  (* activity: signature kernel + bound-pruned NN-heap vs the unmemoized
     all-pairs baseline *)
  let act =
    create ~title:"Activity-only merge (P(union) cost, Tellez-style)"
      [ ("sinks", Right); ("signature (s)", Right); ("old dense (s)", Right);
        ("speedup", Right); ("W_total rel err", Right) ]
  in
  Buffer.add_string js "[\n";
  first := true;
  List.iter
    (fun n ->
      let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:n in
      let { Benchmarks.Suite.config; profile; sinks; _ } =
        Benchmarks.Suite.case ~stream_length:1_000 spec
      in
      let w topo =
        Gcr.Cost.w_total
          (Gcr.Gated_tree.build config profile sinks topo ~kind:(fun _ ->
               Gcr.Gated_tree.Gated))
      in
      let fast_topo, fast_t =
        time (fun () -> Gcr.Activity_router.topology config profile sinks)
      in
      if n <= act_dense_cap then begin
        let old_topo, old_t = time (fun () -> old_activity_topology config profile sinks) in
        let wf = w fast_topo and wo = w old_topo in
        let err = Float.abs (wf -. wo) /. (1.0 +. Float.abs wo) in
        add_row act
          [ string_of_int n; Printf.sprintf "%.3f" fast_t; Printf.sprintf "%.3f" old_t;
            Printf.sprintf "%.1fx" (old_t /. fast_t); Printf.sprintf "%.2e" err ];
        if not !first then Buffer.add_string js ",\n";
        Buffer.add_string js
          (Printf.sprintf
             "    {\"n\": %d, \"signature_s\": %.6f, \"old_dense_s\": %.6f, \
              \"speedup\": %.2f, \"w_total_rel_err\": %.3e}"
             n fast_t old_t (old_t /. fast_t) err)
      end
      else begin
        add_row act
          [ string_of_int n; Printf.sprintf "%.3f" fast_t; "-"; "-"; "-" ];
        if not !first then Buffer.add_string js ",\n";
        Buffer.add_string js
          (Printf.sprintf
             "    {\"n\": %d, \"signature_s\": %.6f, \"old_dense_s\": null, \
              \"speedup\": null, \"w_total_rel_err\": null}"
             n fast_t)
      end;
      first := false)
    act_sizes;
  Buffer.add_string js "\n  ]";
  record "activity" (Buffer.contents js);
  print act;
  print_newline ();
  pf "The all-pairs heap seeds n(n-1)/2 entries (~4.8M at 3101 sinks); the\n";
  pf "NN-heap keeps one entry per active root and asks the grid (geometric)\n";
  pf "or a bound-pruned signature scan (activity) for each root's best\n";
  pf "partner.\n"

(* ------------------------------------------------------------------ *)
(* Sharded region-parallel routing: scaling to 10^5 sinks              *)
(* ------------------------------------------------------------------ *)

(* Sizes beyond the r-benchmarks need the grouped module universe
   (Suite.case_grouped): per-sink modules would cost O(n) bits per
   enable set — gigabytes of bitsets at 10^5 sinks. *)
let shard_case n =
  let spec =
    Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:n
  in
  let spec = { spec with Benchmarks.Rbench.n_groups = max 4 (min 1024 (n / 96)) } in
  Benchmarks.Suite.case_grouped ~stream_length:1_000 spec

let shard_scaling () =
  section "Sharded region-parallel routing (flat arena, 10^4-10^5 sinks)";
  let sizes = if quick () then [ 10_000 ] else [ 10_000; 100_000 ] in
  let time f =
    let t0 = Util.Obs.Clock.now () in
    let r = f () in
    (r, Util.Obs.Clock.now () -. t0)
  in
  let open Util.Text_table in
  let table =
    create ~title:"Sharded topology construction (single domain vs pool)"
      [ ("sinks", Right); ("regions", Right); ("domains", Right);
        ("1 domain (s)", Right); ("pool (s)", Right); ("speedup", Right) ]
  in
  let js = Buffer.create 512 in
  Buffer.add_string js "{";
  let points = Buffer.create 256 in
  List.iteri
    (fun i n ->
      let { Benchmarks.Suite.config; profile; sinks; _ } = shard_case n in
      let domains = Util.Parallel.default_domains () in
      let regions = Gcr.Shard_router.auto_shards ~n in
      let _, t1 =
        time (fun () ->
            Gcr.Shard_router.route_topology ~domains:1 config profile sinks)
      in
      let _, tp =
        time (fun () -> Gcr.Shard_router.route_topology config profile sinks)
      in
      let speedup = t1 /. tp in
      add_row table
        [
          string_of_int n; string_of_int regions; string_of_int domains;
          Printf.sprintf "%.2f" t1; Printf.sprintf "%.2f" tp;
          Printf.sprintf "%.2fx" speedup;
        ];
      (* The first (10^4) point gates the trajectory: per-sink ns keys at
         top level (the compare gate skips lists), both domain settings. *)
      if i = 0 then
        Buffer.add_string js
          (Printf.sprintf
             "\"n\": %d, \"regions\": %d, \"domains\": %d, \
              \"single_domain_per_sink_ns\": %.1f, \"pool_per_sink_ns\": \
              %.1f, \"speedup\": %.3f"
             n regions domains
             (1e9 *. t1 /. float_of_int n)
             (1e9 *. tp /. float_of_int n)
             speedup);
      if i > 0 then Buffer.add_string points ", ";
      Buffer.add_string points
        (Printf.sprintf
           "{\"n\": %d, \"regions\": %d, \"domains\": %d, \"single_s\": %.3f, \
            \"pool_s\": %.3f, \"speedup\": %.3f}"
           n regions domains t1 tp speedup))
    sizes;
  Buffer.add_string js
    (Printf.sprintf ", \"points\": [%s]" (Buffer.contents points));
  print table;
  (* Cost fidelity: the stitch's merges never cross a region boundary, so
     the sharded tree pays a bounded switched-capacitance premium over
     the flat greedy route. Measured where the flat route is affordable. *)
  if not (quick ()) then begin
    let n = 3_000 in
    let { Benchmarks.Suite.config; profile; sinks; _ } = shard_case n in
    let flat, flat_t = time (fun () -> Gcr.Router.route config profile sinks) in
    let sharded, shard_t =
      time (fun () -> Gcr.Shard_router.route config profile sinks)
    in
    let wf = Gcr.Cost.w_total flat and ws = Gcr.Cost.w_total sharded in
    pf "\nCost fidelity at %d sinks: flat W %.2f pF (%.1f s), sharded W %.2f \
        pF (%.1f s), ratio %.4f\n"
      n (wf /. 1000.0) flat_t (ws /. 1000.0) shard_t (ws /. wf);
    Buffer.add_string js
      (Printf.sprintf ", \"cost_n\": %d, \"cost_ratio\": %.6f" n (ws /. wf))
  end;
  Buffer.add_string js "}";
  record "shard_scaling" (Buffer.contents js);
  pf "\nEach region is routed by the flat NN-heap engine on its own arena;\n";
  pf "the stitch replays region merge lists into one forest and greedy-\n";
  pf "merges the region roots (same Eq.(3) cost). Speedup reflects the\n";
  pf "machine: a single-core runner shows ~1.0x regardless of shards.\n"

(* ------------------------------------------------------------------ *)
(* Gate sharing: enable-set minimization on the reduced trees          *)
(* ------------------------------------------------------------------ *)

let gate_share_bench () =
  section "Gate sharing: shared enables vs per-subtree gates (r-benchmarks)";
  (* r4/r5 put the pass at the paper's 1903/3101-sink scale; r1 is the
     quick-mode point the trajectory gates. *)
  let suites = if quick () then [ "r1" ] else [ "r1"; "r4"; "r5" ] in
  let open Util.Text_table in
  let table =
    create ~title:"share pass at the cost-free settings (min_instances=1, eps=0)"
      [ ("bench", Left); ("sinks", Right); ("gates", Right); ("shared", Right);
        ("groups", Right); ("W ratio", Right); ("pass (ms)", Right) ]
  in
  let js = Buffer.create 256 in
  Buffer.add_string js "{";
  let points = Buffer.create 256 in
  List.iteri
    (fun i name ->
      let { Benchmarks.Suite.config; profile; sinks; _ } = case name in
      let reduced =
        Gcr.Gate_reduction.reduce_greedy (Gcr.Router.route config profile sinks)
      in
      let n = Array.length sinks in
      let t0 = Util.Obs.Clock.now () in
      let shared, stats = Gcr.Gate_share.share_with_stats reduced in
      let dt = Util.Obs.Clock.now () -. t0 in
      let { Gcr.Gate_share.gates_before; gates_after; groups; _ } = stats in
      let ratio = Gcr.Cost.w_total shared /. Gcr.Cost.w_total reduced in
      add_row table
        [
          name; string_of_int n; string_of_int gates_before;
          string_of_int gates_after; string_of_int groups;
          Printf.sprintf "%.4f" ratio;
          Printf.sprintf "%.2f" (1e3 *. dt);
        ];
      (* The first point gates the trajectory: scalar per-sink ns at top
         level (the compare gate skips the per-suite points list). *)
      if i = 0 then
        Buffer.add_string js
          (Printf.sprintf
             "\"n\": %d, \"gates_before\": %d, \"gates_after\": %d, \
              \"groups\": %d, \"w_ratio\": %.6f, \"share_per_sink_ns\": %.1f"
             n gates_before gates_after groups ratio
             (1e9 *. dt /. float_of_int n));
      if i > 0 then Buffer.add_string points ", ";
      Buffer.add_string points
        (Printf.sprintf
           "{\"bench\": \"%s\", \"n\": %d, \"gates_before\": %d, \
            \"gates_after\": %d, \"groups\": %d, \"w_ratio\": %.6f, \
            \"pass_s\": %.4f}"
           name n gates_before gates_after groups ratio dt))
    suites;
  Buffer.add_string js
    (Printf.sprintf ", \"points\": [%s]}" (Buffer.contents points));
  record "gate_share" (Buffer.contents js);
  print table;
  pf "\nAt (1,0) the pass only removes gates whose waveform coincides\n";
  pf "cycle-for-cycle with their governor's and groups exact-equal enables,\n";
  pf "so the W ratio stays <= 1 up to embedding re-balancing noise; the\n";
  pf "gates and shared columns are the per-subtree vs merged gate counts.\n"

(* ------------------------------------------------------------------ *)
(* Probability-kernel microbenchmark                                   *)
(* ------------------------------------------------------------------ *)

(* The per-byte count-sum reference kernel: the design the word-parallel
   weight planes replaced. Byte [j]'s table row maps each of the 256
   byte values to the weight sum of its set bits, so a query is one
   table add per byte of the bitset. Kept here (not in lib/) purely for
   a same-run A/B against the popcount kernels — both compute identical
   integer sums, divided identically, so equality is exact. *)
module Byte_ref = struct
  type t = {
    tbl : int array; (* nbytes * 256, [j lsl 8 lor v] -> weight sum *)
    nbytes : int;
    total : int;
  }

  let build n weight_of total =
    let nbytes = max 1 ((n + 7) / 8) in
    let tbl = Array.make (nbytes * 256) 0 in
    for i = 0 to n - 1 do
      let w = weight_of i in
      if w <> 0 then begin
        let j = i lsr 3 and bit = 1 lsl (i land 7) in
        for v = 0 to 255 do
          if v land bit <> 0 then
            tbl.((j lsl 8) lor v) <- tbl.((j lsl 8) lor v) + w
        done
      end
    done;
    { tbl; nbytes; total }

  (* Repack a 62-bit-per-word signature bitset as plain bytes, the shape
     the byte tables index. Done once per signature, outside timing. *)
  let bytes_of_words words n =
    let b = Bytes.make (max 1 ((n + 7) / 8)) '\000' in
    for i = 0 to n - 1 do
      if words.(i / 62) land (1 lsl (i mod 62)) <> 0 then
        Bytes.unsafe_set b (i lsr 3)
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))
    done;
    b

  let sum t bs =
    let acc = ref 0 in
    for j = 0 to t.nbytes - 1 do
      acc :=
        !acc
        + Array.unsafe_get t.tbl
            ((j lsl 8) lor Char.code (Bytes.unsafe_get bs j))
    done;
    !acc

  let query t bs = float_of_int (sum t bs) /. float_of_int t.total

  let sum2_xor t now next =
    let acc = ref 0 in
    for j = 0 to t.nbytes - 1 do
      acc :=
        !acc
        + Array.unsafe_get t.tbl
            ((j lsl 8)
            lor (Char.code (Bytes.unsafe_get now j)
                lxor Char.code (Bytes.unsafe_get next j)))
    done;
    !acc

  let query_xor t now next =
    float_of_int (sum2_xor t now next) /. float_of_int t.total
end

(* The leaf-signature construction [Signature.of_set] replaced: test
   every instruction's used-module set against the set, then read every
   IMATT row's two instructions bit by bit. Kept here (not in lib/) for
   a same-run A/B against the transposed-table build, which must
   produce the same words. *)
module Scan_ref = struct
  let words_for n = max 1 ((n + 61) / 62)

  let set_bit words i = words.(i / 62) <- words.(i / 62) lor (1 lsl (i mod 62))

  let get_bit words i = words.(i / 62) land (1 lsl (i mod 62)) <> 0

  let of_set rtl (rows : Activity.Imatt.row array) set =
    let k = Activity.Rtl.n_instructions rtl and n_rows = Array.length rows in
    let hits = Array.make (words_for k) 0 in
    for i = 0 to k - 1 do
      if Activity.Module_set.intersects (Activity.Rtl.uses rtl i) set then
        set_bit hits i
    done;
    let now = Array.make (words_for n_rows) 0
    and next = Array.make (words_for n_rows) 0 in
    for r = 0 to n_rows - 1 do
      if get_bit hits rows.(r).Activity.Imatt.first then set_bit now r;
      if get_bit hits rows.(r).Activity.Imatt.second then set_bit next r
    done;
    let tog = Array.mapi (fun w x -> x lxor next.(w)) now in
    { Activity.Signature.hits; now; next; tog }
end

let kernel_micro () =
  section "Probability kernels: table scans vs byte tables vs popcount planes";
  let open Util.Text_table in
  let micro_n = if quick () then 100 else 2000 in
  let spec =
    Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:micro_n
  in
  let { Benchmarks.Suite.profile; _ } =
    Benchmarks.Suite.case ~stream_length:1_000 spec
  in
  let ift = Activity.Profile.ift profile and imatt = Activity.Profile.imatt profile in
  let kern =
    match Activity.Profile.signature_kernel profile with
    | Some k -> k
    | None -> assert false
  in
  let n_mods = Activity.Profile.n_modules profile in
  let prng = Util.Prng.create 42 in
  let n_sets = 256 in
  let sets =
    Array.init n_sets (fun _ ->
        let s = ref (Activity.Module_set.empty n_mods) in
        for _ = 1 to 16 do
          s := Activity.Module_set.add !s (Util.Prng.int prng n_mods)
        done;
        !s)
  in
  (* The probe signatures are built in one pass on a freshly collected
     heap, so where they land (which moves the scalar rows) does not
     depend on what the sections before this one left behind. *)
  Gc.compact ();
  let sigs = Array.map (Activity.Signature.of_set kern) sets in
  let k_instr = Activity.Rtl.n_instructions (Activity.Ift.rtl ift) in
  let rows = Activity.Imatt.rows imatt in
  let p_ref =
    Byte_ref.build k_instr (Activity.Ift.count ift) (Activity.Ift.total_cycles ift)
  in
  let r_ref =
    Byte_ref.build (Array.length rows)
      (fun r -> rows.(r).Activity.Imatt.count)
      (Activity.Imatt.total_pairs imatt)
  in
  let hbytes =
    Array.map (fun s -> Byte_ref.bytes_of_words s.Activity.Signature.hits k_instr) sigs
  in
  let nowb =
    Array.map
      (fun s -> Byte_ref.bytes_of_words s.Activity.Signature.now (Array.length rows))
      sigs
  in
  let nextb =
    Array.map
      (fun s -> Byte_ref.bytes_of_words s.Activity.Signature.next (Array.length rows))
      sigs
  in
  (* Same-run honesty check: every kernel on every probe set computes the
     same float as the table scans, bit for bit, and the signatures hold
     the same words as the replaced scan. *)
  let scan_rtl = Activity.Ift.rtl ift in
  Array.iteri
    (fun i set -> assert (sigs.(i) = Scan_ref.of_set scan_rtl rows set))
    sets;
  let outs = Array.make n_sets 0.0 and outs2 = Array.make n_sets 0.0 in
  Activity.Signature.p_batch kern sigs outs;
  Activity.Signature.ptr_batch kern sigs outs2;
  for i = 0 to n_sets - 1 do
    let p_scan = Activity.Ift.p_any ift sets.(i) in
    let ptr_scan = Activity.Imatt.ptr imatt sets.(i) in
    assert (Activity.Signature.p kern sigs.(i) = p_scan);
    assert (outs.(i) = p_scan);
    assert (Byte_ref.query p_ref hbytes.(i) = p_scan);
    assert (Activity.Signature.ptr kern sigs.(i) = ptr_scan);
    assert (outs2.(i) = ptr_scan);
    assert (Byte_ref.query_xor r_ref nowb.(i) nextb.(i) = ptr_scan)
  done;
  (* Timing: each measured function fills out.(0..n_sets-1) for the whole
     probe array — the shape production uses (batch kernels are one call;
     scalar kernels loop without a serial float dependency between
     elements) — repeated [rounds] times, best of [reps] runs. *)
  let out = Array.make n_sets 0.0 in
  let rounds = if quick () then 64 else 1_024 in
  let reps = 3 in
  let per_query f =
    f ();
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Util.Obs.Clock.now () in
      for _ = 1 to rounds do
        f ()
      done;
      let dt = Util.Obs.Clock.now () -. t0 in
      if dt < !best then best := dt
    done;
    ignore (Sys.opaque_identity out.(0));
    1e9 *. !best /. float_of_int (rounds * n_sets)
  in
  let next i = (i + 1) land (n_sets - 1) in
  let fill f =
   fun () ->
    for i = 0 to n_sets - 1 do
      Array.unsafe_set out i (f i)
    done
  in
  let build f =
   fun () ->
    for i = 0 to n_sets - 1 do
      ignore (Sys.opaque_identity (f sets.(i)))
    done
  in
  let kernel_rows =
    [
      ("of_set_scan_ns", "use-set + row scan of_set (replaced design)",
       per_query (build (Scan_ref.of_set scan_rtl rows)));
      ("sig_of_set_ns", "Signature.of_set (transposed tables)",
       per_query (build (Activity.Signature.of_set kern)));
      ("p_any_ns", "Ift.p_any (table scan)",
       per_query (fill (fun i -> Activity.Ift.p_any ift sets.(i))));
      ("ref_p_ns", "byte tables P (replaced design)",
       per_query (fill (fun i -> Byte_ref.query p_ref hbytes.(i))));
      ("sig_p_scalar_ns", "Signature.p (scalar)",
       per_query (fill (fun i -> Activity.Signature.p kern sigs.(i))));
      ("sig_p_ns", "Signature.p_batch",
       per_query (fun () -> Activity.Signature.p_batch kern sigs out));
      ("ptr_ns", "Imatt.ptr (table scan)",
       per_query (fill (fun i -> Activity.Imatt.ptr imatt sets.(i))));
      ("ref_ptr_ns", "byte tables Ptr (replaced design)",
       per_query (fill (fun i -> Byte_ref.query_xor r_ref nowb.(i) nextb.(i))));
      ("sig_ptr_scalar_ns", "Signature.ptr (scalar)",
       per_query (fill (fun i -> Activity.Signature.ptr kern sigs.(i))));
      ("sig_ptr_ns", "Signature.ptr_batch",
       per_query (fun () -> Activity.Signature.ptr_batch kern sigs out));
      ("sig_p_union_scalar_ns", "Signature.p_union (scalar)",
       per_query
         (fill (fun i -> Activity.Signature.p_union kern sigs.(i) sigs.(next i))));
      ("sig_p_union_ns", "Signature.p_union_batch",
       per_query (fun () -> Activity.Signature.p_union_batch kern sigs.(0) sigs out));
    ]
  in
  let micro =
    create
      ~title:
        (Printf.sprintf "Probability kernels (%d-module universe, ns/query)"
           n_mods)
      [ ("kernel", Left); ("ns/query", Right) ]
  in
  List.iter
    (fun (_, label, ns) -> add_row micro [ label; Printf.sprintf "%.1f" ns ])
    kernel_rows;
  print micro;
  let js = Buffer.create 256 in
  Buffer.add_string js (Printf.sprintf "{\"n_modules\": %d" n_mods);
  List.iter
    (fun (key, _, ns) -> Buffer.add_string js (Printf.sprintf ", \"%s\": %.1f" key ns))
    kernel_rows;
  Buffer.add_string js "}";
  record "kernel_micro" (Buffer.contents js);
  pf "\nAll rows answer the same queries over the same %d probe sets;\n" n_sets;
  pf "every kernel's floats were asserted bit-for-bit equal to the table\n";
  pf "scans before timing, and every signature's words to the replaced\n";
  pf "of_set scan's. sig_*_ns rows are the batched entry points the\n";
  pf "router actually calls; *_scalar_ns are the one-query forms.\n"

(* ------------------------------------------------------------------ *)
(* Guard overhead: run_checked Default vs Paranoid                     *)
(* ------------------------------------------------------------------ *)

let guard_overhead () =
  section "Checked-pipeline overhead: run_checked default vs paranoid";
  let n = if quick () then 250 else 2000 in
  let reps = if quick () then 2 else 3 in
  let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:n in
  let { Benchmarks.Suite.sinks; profile; config; _ } =
    Benchmarks.Suite.case ~stream_length:1_000 spec
  in
  let best f =
    let t = ref infinity in
    for _ = 1 to reps do
      let t0 = Util.Obs.Clock.now () in
      Sys.opaque_identity (f ()) |> ignore;
      t := Float.min !t (Util.Obs.Clock.now () -. t0)
    done;
    !t
  in
  let checked mode =
    best (fun () ->
        match Gcr.Flow.run_checked ~mode config profile sinks with
        | Ok tree -> tree
        | Error _ -> assert false)
  in
  let dflt = checked Gcr.Flow.Default in
  let para = checked Gcr.Flow.Paranoid in
  let open Util.Text_table in
  let t =
    create
      ~title:(Printf.sprintf "Full pipeline, %d sinks (best of %d)" n reps)
      [ ("variant", Left); ("time (s)", Right); ("vs Default", Right) ]
  in
  add_row t [ "run_checked Default"; Printf.sprintf "%.3f" dflt; "1.00x" ];
  add_row t
    [ "run_checked Paranoid"; Printf.sprintf "%.3f" para;
      Printf.sprintf "%.2fx" (para /. dflt) ];
  print t;
  pf "\nFlow.run is run_checked Default made strict, so Default is the\n";
  pf "baseline. Budget: paranoid <= 2x.\n"

(* ------------------------------------------------------------------ *)
(* Trace overhead: Obs instrumentation disabled vs enabled            *)
(* ------------------------------------------------------------------ *)

let trace_overhead () =
  section "Observability overhead: Obs tracing off vs on";
  let n = if quick () then 250 else 2000 in
  let reps = if quick () then 2 else 3 in
  let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:n in
  let { Benchmarks.Suite.sinks; profile; config; _ } =
    Benchmarks.Suite.case ~stream_length:1_000 spec
  in
  let was_on = Util.Obs.enabled () in
  let best enabled =
    Util.Obs.set_enabled enabled;
    let t = ref infinity in
    for _ = 1 to reps do
      let t0 = Util.Obs.Clock.now () in
      Sys.opaque_identity (Gcr.Flow.run config profile sinks) |> ignore;
      t := Float.min !t (Util.Obs.Clock.now () -. t0)
    done;
    !t
  in
  let off = best false in
  let on = best true in
  Util.Obs.set_enabled was_on;
  let open Util.Text_table in
  let t =
    create
      ~title:(Printf.sprintf "Flow.run, %d sinks (best of %d)" n reps)
      [ ("variant", Left); ("time (s)", Right); ("vs off", Right) ]
  in
  add_row t [ "trace off"; Printf.sprintf "%.3f" off; "1.00x" ];
  add_row t [ "trace on"; Printf.sprintf "%.3f" on; Printf.sprintf "%.2fx" (on /. off) ];
  print t;
  pf "\nBudget (ISSUE 5): trace-on <= 1.05x at 2000 sinks.\n"

(* ------------------------------------------------------------------ *)
(* Routing service under sustained load                                *)
(* ------------------------------------------------------------------ *)

let serve_bench () =
  section "Routing service: sustained loopback load (gcr serve)";
  let n_workloads = if quick () then 4 else 8 in
  let rounds = if quick () then 6 else 25 in
  let clients = 2 in
  let total = n_workloads * rounds in
  let texts =
    Array.init n_workloads (fun i ->
        Conformance.Scenario.render
          (Conformance.Scenario.generate
             (Util.Prng.create (9000 + i))
             ~tag:(Printf.sprintf "serve-bench #%d" i)))
  in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcr-bench-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let cfg =
    {
      (Serve.Server.default_config (Serve.Server.Unix_socket path)) with
      Serve.Server.workers = 2;
      queue_cap = 128;
    }
  in
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let daemon_stats = ref None in
  let daemon =
    Thread.create
      (fun () ->
        daemon_stats :=
          Some
            (Serve.Server.run
               ~stop:(fun () -> Atomic.get stop)
               ~on_ready:(fun _ -> Atomic.set ready true)
               cfg))
      ()
  in
  while not (Atomic.get ready) do Thread.yield () done;
  let lat = Array.make total 0.0 in
  let answers = Array.make total None in
  let t0 = Util.Obs.Clock.now () in
  (* Closed-loop clients: each waits for its response before sending the
     next request, so the latencies are service latencies, not queueing
     artifacts of an open-loop burst. Workloads cycle, so every workload
     is cold exactly once and warm thereafter. *)
  let client k =
    let c = Serve.Client.connect (Serve.Server.Unix_socket path) in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () ->
        let i = ref k in
        while !i < total do
          let id = !i in
          let s0 = Util.Obs.Clock.now () in
          Serve.Client.send c
            {
              Serve.Proto.id;
              scenario = texts.(id mod n_workloads);
              budget_ms = None;
              paranoid = false;
              kind = Serve.Proto.Route;
            };
          (match Serve.Client.recv ~timeout_s:300.0 c with
          | Ok (Some (Serve.Proto.Answer a)) -> answers.(id) <- Some a
          | Ok (Some (Serve.Proto.Reject r)) ->
            failwith ("bench request rejected: " ^ r.Serve.Proto.message)
          | Ok None -> failwith "daemon closed mid-bench"
          | Error e -> failwith ("bench transport error: " ^ e));
          lat.(id) <- Util.Obs.Clock.now () -. s0;
          i := !i + clients
        done)
  in
  let threads = List.init clients (fun k -> Thread.create client k) in
  List.iter Thread.join threads;
  let wall = Util.Obs.Clock.now () -. t0 in
  Atomic.set stop true;
  Thread.join daemon;
  let sorted = Array.copy lat in
  Array.sort compare sorted;
  let pct p =
    sorted.(min (total - 1) (int_of_float (p *. float_of_int total))) *. 1e9
  in
  let p50 = pct 0.50 and p99 = pct 0.99 in
  let rps = float_of_int total /. wall in
  let cold = ref 0 in
  Array.iter
    (function
      | Some (a : Serve.Proto.answer) when not a.Serve.Proto.cache_warm -> incr cold
      | _ -> ())
    answers;
  let open Util.Text_table in
  let t =
    create
      ~title:
        (Printf.sprintf
           "%d requests, %d workloads x %d rounds, %d clients, 2 workers"
           total n_workloads rounds clients)
      [ ("metric", Left); ("value", Right) ]
  in
  add_row t [ "throughput (req/s)"; Printf.sprintf "%.1f" rps ];
  add_row t [ "latency p50 (ms)"; Printf.sprintf "%.2f" (p50 /. 1e6) ];
  add_row t [ "latency p99 (ms)"; Printf.sprintf "%.2f" (p99 /. 1e6) ];
  add_row t [ "cold workload sightings"; string_of_int !cold ];
  print t;
  (match !daemon_stats with
  | Some s ->
    pf "\ndaemon accounting: %d connections, %d answered, drained %s\n"
      s.Serve.Server.connections s.Serve.Server.answered
      (if s.Serve.Server.drained_clean then "clean" else "DIRTY")
  | None -> ());
  record "serve"
    (Printf.sprintf
       "{\"requests\": %d, \"workloads\": %d, \"requests_per_s\": %.1f, \
        \"p50_ns\": %.1f, \"p99_ns\": %.1f, \"cold\": %d}"
       total n_workloads rps p50 p99 !cold)

(* ------------------------------------------------------------------ *)
(* ECO repair: streaming chunk update + local repair vs full re-route  *)
(* ------------------------------------------------------------------ *)

let eco_bench () =
  section "ECO repair: chunk update + local repair vs full re-route";
  let n = if quick () then 2_000 else 10_000 in
  let reps = if quick () then 2 else 3 in
  let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:n in
  let { Benchmarks.Suite.sinks; profile; config; _ } =
    Benchmarks.Suite.case ~stream_length:2_000 spec
  in
  let base_stream = Activity.Profile.stream profile in
  let len = Activity.Instr_stream.length base_stream in
  let trace =
    Array.init len (Activity.Instr_stream.get base_stream)
  in
  (* A localized drift: a burst of the trace's first instruction, long
     enough to push the modules it touches past the threshold but small
     against the whole trace, so most of the tree's statistics barely
     move. (The conformance oracle separately fuzzes the widespread-drift
     fallback; this section times the case locality is built for.) *)
  let chunks = [ Array.make (Int.max 8 (len / 20)) trace.(0) ] in
  let best f =
    let t = ref infinity in
    let r = ref None in
    for _ = 1 to reps do
      let t0 = Util.Obs.Clock.now () in
      r := Some (Sys.opaque_identity (f ()));
      t := Float.min !t (Util.Obs.Clock.now () -. t0)
    done;
    (Option.get !r, !t)
  in
  let tree, base_s = best (fun () -> Gcr.Flow.run config profile sinks) in
  let drifted, update_s =
    best (fun () ->
        let acc = Activity.Stream_update.of_stream base_stream in
        List.iter (Activity.Stream_update.ingest acc) chunks;
        Activity.Stream_update.profile acc)
  in
  let report, repair_s =
    best (fun () -> Gcr.Eco.repair ~options:Gcr.Flow.default tree drifted)
  in
  let scratch, full_s = best (fun () -> Gcr.Flow.run config drifted sinks) in
  let w_ratio =
    Gcr.Cost.w_total report.Gcr.Eco.tree /. Gcr.Cost.w_total scratch
  in
  let open Util.Text_table in
  let t =
    create
      ~title:
        (Printf.sprintf "r1 scaled to %d sinks, drifted trace (best of %d)" n
           reps)
      [ ("step", Left); ("time (s)", Right); ("vs full re-route", Right) ]
  in
  add_row t [ "base route"; Printf.sprintf "%.3f" base_s; "" ];
  add_row t
    [ "chunk update (streaming tables)"; Printf.sprintf "%.4f" update_s;
      Printf.sprintf "%.3fx" (update_s /. full_s) ];
  add_row t
    [ "local repair"; Printf.sprintf "%.3f" repair_s;
      Printf.sprintf "%.2fx" (repair_s /. full_s) ];
  add_row t
    [ "update + repair"; Printf.sprintf "%.3f" (update_s +. repair_s);
      Printf.sprintf "%.2fx" ((update_s +. repair_s) /. full_s) ];
  add_row t [ "full re-route"; Printf.sprintf "%.3f" full_s; "1.00x" ];
  print t;
  pf
    "\n%d of %d nodes drifted, %d stale subtrees, %d sinks re-merged%s;\n\
     repaired/scratch W ratio %.4f.\n"
    (List.length report.Gcr.Eco.drifted)
    (Clocktree.Topo.n_nodes tree.Gcr.Gated_tree.topo)
    (List.length report.Gcr.Eco.stale)
    report.Gcr.Eco.resinks
    (if report.Gcr.Eco.full_rebuild then " (fell back to full rebuild)" else "")
    w_ratio;
  record "eco"
    (Printf.sprintf
       "{\"n_sinks\": %d, \"update_ns\": %.1f, \"repair_ns\": %.1f, \
        \"full_reroute_ns\": %.1f, \"w_ratio\": %.6f, \"drifted\": %d, \
        \"resinks\": %d, \"full_rebuild\": %b}"
       n (update_s *. 1e9) (repair_s *. 1e9) (full_s *. 1e9) w_ratio
       (List.length report.Gcr.Eco.drifted)
       report.Gcr.Eco.resinks report.Gcr.Eco.full_rebuild)

(* ------------------------------------------------------------------ *)
(* Greedy gate reduction scaling                                       *)
(* ------------------------------------------------------------------ *)

(* Best wall time of [reps] runs of [f] and the words the last one
   allocated, then the deltas of [counters] over one more run with the
   probes on (read as deltas so a traced bench run keeps its own
   report). Words are minor-heap words: the same count on every run and
   every host, which the perf gate holds to 2 %. [Gc.allocated_bytes]
   also adds major_words - promoted_words, and in OCaml 5 that
   difference moves with GC timing: identical reps read up to 3 % apart,
   and the same pass read 11 % higher after other sections ran. Only
   the rare block above 256 words, allocated directly in the major
   heap, goes uncounted. *)
let scaling_run ~reps ~counters f =
  let best = ref infinity and words = ref 0.0 in
  for _ = 1 to reps do
    let a0 = Gc.minor_words () in
    let t0 = Util.Obs.Clock.now () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Util.Obs.Clock.now () -. t0);
    words := Gc.minor_words () -. a0
  done;
  let handles = List.map Util.Obs.counter counters in
  let was = Util.Obs.enabled () in
  Util.Obs.set_enabled true;
  let before = List.map Util.Obs.value handles in
  ignore (Sys.opaque_identity (f ()));
  let deltas = List.map2 (fun h b -> Util.Obs.value h - b) handles before in
  Util.Obs.set_enabled was;
  (!best, !words, fun name -> List.assoc name (List.combine counters deltas))

let reduce_scaling () =
  section "Greedy gate reduction scaling (r1, neighbourhood gain updates)";
  let sizes = if quick () then [ 1_000 ] else [ 2_000; 4_000 ] in
  let reps = 3 in
  let counters = [ "reduce.removals"; "reduce.gain_updates"; "reduce.sum_terms" ] in
  let open Util.Text_table in
  let table =
    create ~title:(Printf.sprintf "reduce_greedy on the routed tree (best of %d)" reps)
      [ ("sinks", Right); ("nodes", Right); ("reduce (ms)", Right);
        ("Mwords", Right); ("removals", Right); ("gain updates", Right);
        ("sum terms / node", Right) ]
  in
  let rows =
    List.map
      (fun n ->
        let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:n in
        let { Benchmarks.Suite.config; profile; sinks; _ } =
          Benchmarks.Suite.case ~stream_length:(stream_length ()) spec
        in
        let tree = Gcr.Router.route config profile sinks in
        let nodes = Clocktree.Topo.n_nodes tree.Gcr.Gated_tree.topo in
        let best, words, count =
          scaling_run ~reps ~counters (fun () -> Gcr.Gate_reduction.reduce_greedy tree)
        in
        add_row table
          [
            string_of_int n; string_of_int nodes;
            Printf.sprintf "%.1f" (best *. 1e3);
            Printf.sprintf "%.2f" (words /. 1e6);
            string_of_int (count "reduce.removals");
            string_of_int (count "reduce.gain_updates");
            Printf.sprintf "%.1f"
              (float_of_int (count "reduce.sum_terms") /. float_of_int nodes);
          ];
        Printf.sprintf
          "\"%d\": {\"nodes\": %d, \"reduce_ns\": %.1f, \"words\": %.0f, \
           \"removals\": %d, \"gain_updates\": %d, \"sum_terms\": %d}"
          n nodes (best *. 1e9) words (count "reduce.removals")
          (count "reduce.gain_updates") (count "reduce.sum_terms"))
      sizes
  in
  print table;
  pf "\nEach removal re-keys only the absorbing gate and the gates below the\n";
  pf "moved domain, and re-sums only the absorbing domain: sum terms per\n";
  pf "node stay flat as n doubles (the whole-tree rescan added thousands).\n";
  record "reduce_scaling" (Printf.sprintf "{%s}" (String.concat ", " rows))

(* ------------------------------------------------------------------ *)
(* Eq. (3) merge scaling                                               *)
(* ------------------------------------------------------------------ *)

let merge_scaling () =
  section "Eq. (3) merge scaling (r1, spatial cost-distance index)";
  let sizes = if quick () then [ 1_000 ] else [ 2_000; 4_000 ] in
  (* Grouped r1 (the sharded-20k shape, flat): many sinks per module, so
     the row shows the per-module signature sharing. *)
  let grouped = if quick () then 2_000 else 10_000 in
  let reps = 3 in
  let counters =
    [ "greedy.queries"; "greedy.cost_evals"; "greedy.bound_evals"; "greedy.cells_visited";
      "signature.sets" ]
  in
  let open Util.Text_table in
  let table =
    create
      ~title:(Printf.sprintf "Router.route_topology_only (best of %d)" reps)
      [ ("sinks", Right); ("merge (ms)", Right); ("Mwords", Right);
        ("queries", Right); ("costs / query", Right); ("bounds / query", Right);
        ("cells / query", Right); ("signature sets", Right) ]
  in
  let row (key, label, { Benchmarks.Suite.config; profile; sinks; _ }) =
    let best, words, count =
      scaling_run ~reps ~counters (fun () ->
          Gcr.Router.route_topology_only config profile sinks)
    in
    let per name = float_of_int (count name) /. float_of_int (count "greedy.queries") in
    add_row table
      [
        label;
        Printf.sprintf "%.1f" (best *. 1e3);
        Printf.sprintf "%.2f" (words /. 1e6);
        string_of_int (count "greedy.queries");
        Printf.sprintf "%.1f" (per "greedy.cost_evals");
        Printf.sprintf "%.1f" (per "greedy.bound_evals");
        Printf.sprintf "%.1f" (per "greedy.cells_visited");
        string_of_int (count "signature.sets");
      ];
    Printf.sprintf
      "\"%s\": {\"merge_ns\": %.1f, \"words\": %.0f, \"queries\": %d, \
       \"cost_evals\": %d, \"bound_evals\": %d, \"cells_visited\": %d, \
       \"signature_sets\": %d}"
      key (best *. 1e9) words (count "greedy.queries")
      (count "greedy.cost_evals") (count "greedy.bound_evals")
      (count "greedy.cells_visited") (count "signature.sets")
  in
  let cases =
    List.map
      (fun n ->
        let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:n in
        ( string_of_int n,
          string_of_int n,
          Benchmarks.Suite.case ~stream_length:(stream_length ()) spec ))
      sizes
    @ [ (Printf.sprintf "grouped_%d" grouped, Printf.sprintf "%d grouped" grouped,
         shard_case grouped) ]
  in
  let rows = List.map row cases in
  print table;
  pf "\nEach query walks the pyramid best-first under the cost-distance bound\n";
  pf "K(q) + K(u) + c*min(P_q,P_u)*d and costs only partners whose own bound\n";
  pf "passes: costs and cells per query stay flat as n doubles. Sinks of one\n";
  pf "module share one signature: the grouped row scans once per module.\n";
  record "merge_scaling" (Printf.sprintf "{%s}" (String.concat ", " rows))

(* When this process itself ran traced (GCR_TRACE=1), dump its own run
   report so CI can archive it next to BENCH_greedy.json. *)
let dump_obs_report () =
  if Util.Obs.enabled () then begin
    let out =
      match Sys.getenv_opt "GCR_OBS_OUT" with
      | Some p -> p
      | None -> "BENCH_obs_report.json"
    in
    let oc = open_out out in
    output_string oc (Util.Obs.to_json (Util.Obs.snapshot ()));
    close_out oc;
    pf "Wrote %s (Obs run report).\n" out
  end

(* ------------------------------------------------------------------ *)
(* Section registry and entry point                                    *)
(* ------------------------------------------------------------------ *)

let sections : (string * (unit -> unit)) list =
  [
    ("table4", table4);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("ablate-cost", ablate_cost);
    ("ablate-ctrl-terms", ablate_ctrl_terms);
    ("ablate-forced-insertion", ablate_forced_insertion);
    ("ablate-sizing", ablate_sizing);
    ("ablate-skew-budget", ablate_skew_budget);
    ("ablate-refinement", ablate_refinement);
    ("stream-sensitivity", stream_sensitivity);
    ("variation", variation_study);
    ("validation", validation);
    ("scaling", scaling);
    ("greedy-scaling", greedy_scaling);
    ("shard-scaling", shard_scaling);
    ("gate-share", gate_share_bench);
    ("kernel-micro", kernel_micro);
    ("guard-overhead", guard_overhead);
    ("trace-overhead", trace_overhead);
    ("serve", serve_bench);
    ("eco", eco_bench);
    ("reduce-scaling", reduce_scaling);
    ("merge-scaling", merge_scaling);
    ("bechamel", run_bechamel);
  ]

let section_names = List.map fst sections

let run ?(quick = false) ?only ?(out = "BENCH_greedy.json") () =
  quick_mode := quick;
  Hashtbl.reset case_cache;
  results := [];
  (* Resolve every requested name before running anything, so a typo in
     the last --only entry doesn't waste a full harness run. *)
  let to_run =
    match only with
    | None -> sections
    | Some names ->
      List.map
        (fun name ->
          match List.assoc_opt name sections with
          | Some f -> (name, f)
          | None ->
            invalid_arg
              (Printf.sprintf "unknown bench section %S (known: %s)" name
                 (String.concat ", " section_names)))
        names
  in
  pf "Gated Clock Routing Minimizing the Switched Capacitance (DATE'98)\n";
  pf "Reproduction harness%s\n" (if quick then " [quick mode]" else "");
  List.iter (fun (_, f) -> f ()) to_run;
  write_results out;
  dump_obs_report ();
  if only = None then
    pf "\nDone. See EXPERIMENTS.md for the paper-vs-measured record.\n"
