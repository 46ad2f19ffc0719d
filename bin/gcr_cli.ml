(* gcr — command-line driver for the gated-clock-routing library.

   Subcommands mirror the paper's experiments plus design I/O:
     route           route one benchmark and compare methods (Figure 3 row)
     route-files     route a user design from sinks/RTL/stream files
     sweep-gates     gate-reduction sweep (Figure 5)
     sweep-activity  module-activity sweep (Figure 4)
     controllers     distributed-controller study (Figure 6)
     table4          benchmark characteristics (Table 4)
     trace           windowed power trace of a routed benchmark
     stats           render a saved --trace=json run report
     svg             render a routed tree to SVG
     serve           fault-tolerant concurrent routing daemon
     serve-send      submit scenario files to a running daemon *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common arguments                                                   *)
(* ------------------------------------------------------------------ *)

let bench_arg =
  let doc = "Benchmark suite (r1..r5)." in
  Arg.(value & opt string "r1" & info [ "b"; "bench" ] ~docv:"NAME" ~doc)

let sinks_arg =
  let doc = "Scale the suite to this many sinks (0 = the suite's own size)." in
  Arg.(value & opt int 0 & info [ "n"; "sinks" ] ~docv:"N" ~doc)

let stream_arg =
  let doc = "Instruction-stream length in cycles." in
  Arg.(value & opt int 10_000 & info [ "stream" ] ~docv:"CYCLES" ~doc)

let usage_arg =
  let doc = "Target average module activity (the paper uses ~0.4)." in
  Arg.(value & opt float 0.4 & info [ "activity" ] ~docv:"FRACTION" ~doc)

let k_arg =
  let doc = "Number of distributed controllers (perfect square; 1 = centralized)." in
  Arg.(value & opt int 1 & info [ "k"; "controllers" ] ~docv:"K" ~doc)

let load_case bench n_sinks stream usage k =
  let spec = Benchmarks.Rbench.by_name bench in
  let spec = if n_sinks > 0 then Benchmarks.Rbench.scaled spec ~n_sinks else spec in
  let controller = Gcr.Controller.distributed (Benchmarks.Rbench.die spec) ~k in
  Benchmarks.Suite.case ~stream_length:stream ~usage ~controller spec

(* BSD-sysexits discipline: 64 usage, 65 bad data, 70 internal, 75
   resource. Diagnostics go to stderr; a raw backtrace never does. *)
let with_diagnostics f =
  try f () with
  | Util.Gcr_error.Error err ->
    Format.eprintf "gcr: error: %s@." (Util.Gcr_error.to_string err);
    exit (Util.Gcr_error.exit_code err)
  | Formats.Parse.Error _ as e ->
    (match Formats.Parse.error_to_string e with
    | Some msg -> Format.eprintf "gcr: error: %s@." msg
    | None -> ());
    exit 65
  | Sys_error msg | Invalid_argument msg ->
    Format.eprintf "gcr: invalid input: %s@." msg;
    exit 65
  | Stack_overflow ->
    Format.eprintf "gcr: resource limit: stack overflow@.";
    exit 75
  | Out_of_memory ->
    Format.eprintf "gcr: resource limit: out of memory@.";
    exit 75
  | Failure msg ->
    Format.eprintf "gcr: internal error: %s@." msg;
    exit 70
  | e ->
    Format.eprintf "gcr: internal error: %s@." (Printexc.to_string e);
    exit 70

let handle_unknown_bench f =
  with_diagnostics @@ fun () ->
  try f () with Not_found ->
    prerr_endline "gcr: unknown benchmark (expected r1..r5)";
    exit 64

(* ------------------------------------------------------------------ *)
(* route                                                              *)
(* ------------------------------------------------------------------ *)

let reduction_arg =
  let doc = "Gate reduction: greedy, rules, none, or a fraction in [0,1]." in
  Arg.(value & opt string "greedy" & info [ "r"; "reduce" ] ~docv:"MODE" ~doc)

let skew_arg =
  let doc = "Skew budget in ohm x fF (0 = exact zero skew)." in
  Arg.(value & opt float 0.0 & info [ "skew-budget" ] ~docv:"SKEW" ~doc)

let size_arg =
  let doc = "Apply load-proportional gate/buffer sizing after reduction." in
  Arg.(value & flag & info [ "size" ] ~doc)

let spice_arg =
  let doc = "Write the reduced tree as a SPICE deck to this file." in
  Arg.(value & opt (some string) None & info [ "spice" ] ~docv:"FILE" ~doc)

let csv_arg =
  let doc = "Append the comparison as CSV to this file." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let svg_arg =
  let doc = "Write the reduced gated tree to this SVG file." in
  Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc)

let verify_arg =
  let doc = "Cross-check the analytic cost by cycle-accurate simulation." in
  Arg.(value & flag & info [ "verify" ] ~doc)

let trace_arg =
  let doc =
    "Trace the run through the Util.Obs observability layer and report \
     per-stage wall time, allocations, and pipeline counters (greedy heap \
     traffic, degradation rungs). $(docv) is $(b,text) \
     (print tables, the default) or $(b,json) (write a stable JSON report \
     for $(b,gcr stats), see $(b,--trace-out))."
  in
  Arg.(
    value
    & opt ~vopt:(Some "text") (some string) None
    & info [ "trace" ] ~docv:"FMT" ~doc)

let trace_out_arg =
  let doc = "Output file for the $(b,--trace=json) run report." in
  Arg.(
    value & opt string "gcr-trace.json" & info [ "trace-out" ] ~docv:"FILE" ~doc)

let shards_arg =
  let doc =
    "Route region-parallel with $(docv) shards on the domain pool \
     ($(b,auto) picks a count from the sink count alone, so the routed \
     tree never depends on the available cores). The default routes \
     flat (single region). Shard spans and counters show up under \
     $(b,--trace)."
  in
  Arg.(value & opt (some string) None & info [ "shards" ] ~docv:"N" ~doc)

let gate_share_arg =
  let doc =
    "Share gates after reduction: demote gates covering fewer than MIN \
     sinks, drop gates whose enable waveform is within EPS instructions \
     of their governing gate's, and group the survivors onto shared \
     enables. $(b,--gate-share) alone uses 1,0 (keep every gate, \
     exact-equality grouping — provably free)."
  in
  Arg.(
    value
    & opt ~vopt:(Some "1,0") (some string) None
    & info [ "gate-share" ] ~docv:"MIN,EPS" ~doc)

let eco_arg =
  let doc =
    "Opt into ECO-style drift repair with the given relative threshold \
     (default 0.05 when the flag is given bare). Only consulted by \
     --resume and by the serve layer; the batch pipeline itself never \
     repairs."
  in
  Arg.(
    value
    & opt ~vopt:(Some "0.05") (some string) None
    & info [ "eco" ] ~docv:"THRESHOLD" ~doc)

let resume_arg =
  let doc =
    "Resume a previously routed scenario (a gcr fuzz seed file): route \
     it, ingest every --trace-chunk into the streaming IFT/IMATT \
     accumulator, locally repair the tree against the drifted profile \
     and compare with a from-scratch re-route."
  in
  Arg.(value & opt (some file) None & info [ "resume" ] ~docv:"SCENARIO" ~doc)

let trace_chunk_arg =
  let doc =
    "Instruction-trace chunk (stream file over the scenario's RTL) to \
     ingest on top of the scenario's own trace. Repeatable; chunks are \
     ingested in order."
  in
  Arg.(value & opt_all file [] & info [ "trace-chunk" ] ~docv:"FILE" ~doc)

let test_en_arg =
  let doc =
    "Report the tree in test mode: every gate honoring its bypass is \
     forced transparent (the scan/ATPG clock path), so the clock reaches \
     every sink and the control star stays quiet."
  in
  Arg.(value & flag & info [ "test-en" ] ~doc)

let paranoid_arg =
  let doc =
    "Run the checked pipeline: validate inputs up front, re-derive every \
     structural invariant between stages, and when the zero-skew \
     embedding fails, embed the merged topology again under a relaxed \
     skew budget instead of failing. Degradations are reported on \
     stderr."
  in
  Arg.(value & flag & info [ "paranoid" ] ~doc)

let usage_error msg =
  prerr_endline ("gcr: " ^ msg);
  exit 64

let reduction_of_string = function
  | "greedy" -> Gcr.Flow.Greedy
  | "rules" -> Gcr.Flow.Rules
  | "none" -> Gcr.Flow.No_reduction
  | s -> (
    match float_of_string_opt s with
    | Some fraction when fraction >= 0.0 && fraction <= 1.0 ->
      Gcr.Flow.Fraction fraction
    | _ -> usage_error "--reduce expects greedy | rules | none | fraction")

let reduce_tree mode tree =
  Gcr.Flow.apply_reduction
    { Gcr.Flow.default with Gcr.Flow.reduction = reduction_of_string mode }
    tree

let eco_of_flag = function
  | None -> Gcr.Flow.No_eco
  | Some s -> (
    match float_of_string_opt s with
    | Some t when Float.is_finite t && t > 0.0 -> Gcr.Flow.Eco { threshold = t }
    | _ -> usage_error "--eco expects a positive drift threshold")

let run_comparison config profile sinks ~reduction ~skew_budget ~size ~shards
    ~gate_share ~eco ~test_en ~paranoid ~svg ~spice ~csv ~verify ~trace
    ~trace_out =
  let trace =
    match trace with
    | None -> None
    | Some "text" -> Some `Text
    | Some "json" -> Some `Json
    | Some _ -> usage_error "--trace expects text or json"
  in
  let options =
    {
      Gcr.Flow.skew_budget;
      reduction = reduction_of_string reduction;
      sizing = (if size then Gcr.Flow.Proportional else Gcr.Flow.No_sizing);
      shards =
        (match shards with
        | None -> Gcr.Flow.Flat
        | Some "auto" -> Gcr.Flow.Auto_shards
        | Some s -> (
          match int_of_string_opt s with
          | Some n when n >= 1 -> Gcr.Flow.Shards n
          | _ -> usage_error "--shards expects a positive integer or auto"));
      gate_share =
        (match gate_share with
        | None -> Gcr.Flow.No_share
        | Some s ->
          let bad () =
            usage_error
              "--gate-share expects MIN,EPS (non-negative integers) or MIN"
          in
          (match String.split_on_char ',' s with
          | [ mi ] -> (
            match int_of_string_opt mi with
            | Some mi when mi >= 0 ->
              Gcr.Flow.Share { min_instances = mi; eps = 0 }
            | _ -> bad ())
          | [ mi; eps ] -> (
            match (int_of_string_opt mi, int_of_string_opt eps) with
            | Some mi, Some eps when mi >= 0 && eps >= 0 ->
              Gcr.Flow.Share { min_instances = mi; eps }
            | _ -> bad ())
          | _ -> bad ()));
      eco = eco_of_flag eco;
    }
  in
  let work () =
    let buffered =
      Util.Obs.span ~name:"route:buffered" (fun () ->
          Gcr.Buffered.route
            ?skew_budget:(Gcr.Flow.skew_budget options)
            config profile sinks)
    in
    let gated =
      Util.Obs.span ~name:"route:gated" (fun () ->
          Gcr.Flow.route_with_options options config profile sinks)
    in
    let reduced =
      if paranoid then
        match
          Gcr.Flow.run_checked ~mode:Gcr.Flow.Paranoid
            ~on_event:(fun e ->
              Format.eprintf "gcr: degraded: %a@." Gcr.Flow.pp_event e)
            ~options config profile sinks
        with
        | Ok tree -> tree
        | Error errs ->
          List.iter
            (fun e ->
              Format.eprintf "gcr: error: %s@." (Util.Gcr_error.to_string e))
            errs;
          exit
            (match errs with e :: _ -> Util.Gcr_error.exit_code e | [] -> 70)
      else Gcr.Flow.optimize options gated
    in
    let reduced =
      if test_en then Gcr.Gated_tree.with_test_en reduced true else reduced
    in
    let label =
      "gated+" ^ reduction
      ^ (if options.Gcr.Flow.gate_share <> Gcr.Flow.No_share then "+share"
         else "")
      ^ (if size then "+sized" else "")
      ^ if test_en then "+test" else ""
    in
    let reports =
      [
        Gcr.Report.of_tree ~name:"buffered" buffered;
        Gcr.Report.of_tree ~name:"gated" gated;
        Gcr.Report.of_tree ~name:label reduced;
      ]
    in
    Util.Text_table.print (Gcr.Report.comparison_table reports);
    if verify then
      Util.Obs.span ~name:"verify" (fun () ->
          Gsim.Check.validate reduced;
          Format.printf "@.simulation check passed: %a@." Gsim.Check.pp
            (Gsim.Check.compare reduced));
    (match csv with
    | None -> ()
    | Some file ->
      Formats.Report_csv.save file reports;
      Format.printf "wrote %s@." file);
    (match spice with
    | None -> ()
    | Some file ->
      Gcr.Spice.write_file file (Gcr.Spice.render reduced);
      Format.printf "wrote %s@." file);
    match svg with
    | None -> ()
    | Some file ->
      Gcr.Svg.write_file file (Gcr.Svg.render reduced);
      Format.printf "wrote %s@." file
  in
  match trace with
  | None -> work ()
  | Some fmt -> (
    let (), report = Util.Obs.run work in
    match fmt with
    | `Text ->
      print_newline ();
      print_string (Util.Obs.render report)
    | `Json ->
      let oc = open_out trace_out in
      output_string oc (Util.Obs.to_json report);
      close_out oc;
      Format.printf "wrote %s (replay with: gcr stats %s)@." trace_out trace_out)

(* --resume: route a saved scenario, ingest drifted trace chunks through
   the streaming accumulator, repair locally and show what the locality
   bought vs. a from-scratch re-route. *)
let run_resume scenario_file chunk_files ~eco =
  with_diagnostics @@ fun () ->
  let scn = Conformance.Scenario.load scenario_file in
  let options =
    match eco with
    | None -> scn.Conformance.Scenario.options
    | Some _ ->
      { scn.Conformance.Scenario.options with Gcr.Flow.eco = eco_of_flag eco }
  in
  let config = Conformance.Scenario.config scn in
  let sinks = scn.Conformance.Scenario.sinks in
  let rtl = scn.Conformance.Scenario.rtl in
  let timed f =
    let t0 = Util.Obs.Clock.now () in
    let x = f () in
    (x, (Util.Obs.Clock.now () -. t0) *. 1e3)
  in
  let acc =
    Activity.Stream_update.of_stream (Conformance.Scenario.instr_stream scn)
  in
  let base, base_ms =
    timed (fun () ->
        let t =
          Gcr.Flow.run ~options config
            (Activity.Stream_update.profile acc)
            sinks
        in
        if scn.Conformance.Scenario.test_en then
          Gcr.Gated_tree.with_test_en t true
        else t)
  in
  if chunk_files = [] then
    usage_error "--resume needs at least one --trace-chunk";
  let (), update_ms =
    timed (fun () ->
        List.iter
          (fun file ->
            Activity.Stream_update.ingest_stream acc
              (Formats.Stream_format.load rtl file))
          chunk_files)
  in
  let updated = Activity.Stream_update.profile acc in
  let report, repair_ms =
    timed (fun () -> Gcr.Eco.repair ~options base updated)
  in
  let scratch, scratch_ms =
    timed (fun () ->
        let t = Gcr.Flow.run ~options config updated sinks in
        if scn.Conformance.Scenario.test_en then
          Gcr.Gated_tree.with_test_en t true
        else t)
  in
  let reports =
    [
      Gcr.Report.of_tree ~name:"base" base;
      Gcr.Report.of_tree ~name:"repaired" report.Gcr.Eco.tree;
      Gcr.Report.of_tree ~name:"scratch" scratch;
    ]
  in
  Util.Text_table.print (Gcr.Report.comparison_table reports);
  let w_repaired = Gcr.Cost.w_total report.Gcr.Eco.tree in
  let w_scratch = Gcr.Cost.w_total scratch in
  Format.printf
    "drifted %d nodes, %d stale subtree(s), %d sinks re-merged%s@."
    (List.length report.Gcr.Eco.drifted)
    (List.length report.Gcr.Eco.stale)
    report.Gcr.Eco.resinks
    (if report.Gcr.Eco.full_rebuild then " (full rebuild)" else "");
  Format.printf "repaired/scratch W ratio %.6f@."
    (if w_scratch > 0.0 then w_repaired /. w_scratch else Float.nan);
  Format.printf
    "base route %.2f ms; chunk update %.2f ms + local repair %.2f ms vs \
     full re-route %.2f ms@."
    base_ms update_ms repair_ms scratch_ms

let route_cmd bench n_sinks stream usage k reduction skew_budget size shards
    gate_share eco resume trace_chunks test_en paranoid svg spice csv verify
    trace trace_out =
  match resume with
  | Some scenario_file -> run_resume scenario_file trace_chunks ~eco
  | None ->
    handle_unknown_bench @@ fun () ->
    let case = load_case bench n_sinks stream usage k in
    let { Benchmarks.Suite.config; profile; sinks; _ } = case in
    run_comparison config profile sinks ~reduction ~skew_budget ~size ~shards
      ~gate_share ~eco ~test_en ~paranoid ~svg ~spice ~csv ~verify ~trace
      ~trace_out

let route_t =
  Term.(
    const route_cmd $ bench_arg $ sinks_arg $ stream_arg $ usage_arg $ k_arg
    $ reduction_arg $ skew_arg $ size_arg $ shards_arg $ gate_share_arg
    $ eco_arg $ resume_arg $ trace_chunk_arg
    $ test_en_arg $ paranoid_arg $ svg_arg $ spice_arg $ csv_arg $ verify_arg
    $ trace_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* route-files: user designs from disk                                *)
(* ------------------------------------------------------------------ *)

let req_file arg_name =
  let doc = Printf.sprintf "Input %s file." arg_name in
  Arg.(required & opt (some file) None & info [ arg_name ] ~docv:"FILE" ~doc)

let route_files_cmd sinks_file rtl_file stream_file k reduction skew_budget size
    shards gate_share eco test_en paranoid svg spice csv verify trace trace_out =
  with_diagnostics @@ fun () ->
  let sinks = Formats.Sinks_format.load sinks_file in
  let rtl = Formats.Rtl_format.load rtl_file in
  let stream = Formats.Stream_format.load rtl stream_file in
  let profile = Activity.Profile.of_stream stream in
  let die =
    Geometry.Bbox.expand
      (Geometry.Bbox.of_points
         (Array.map (fun s -> s.Clocktree.Sink.loc) sinks))
      1.0
  in
  let controller = Gcr.Controller.distributed die ~k in
  let config = Gcr.Config.make ~controller ~die () in
  run_comparison config profile sinks ~reduction ~skew_budget ~size ~shards
    ~gate_share ~eco ~test_en ~paranoid ~svg ~spice ~csv ~verify ~trace
    ~trace_out

let route_files_t =
  Term.(
    const route_files_cmd $ req_file "sinks" $ req_file "rtl" $ req_file "stream"
    $ k_arg $ reduction_arg $ skew_arg $ size_arg $ shards_arg $ gate_share_arg
    $ eco_arg $ test_en_arg $ paranoid_arg $ svg_arg $ spice_arg $ csv_arg
    $ verify_arg $ trace_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* trace                                                              *)
(* ------------------------------------------------------------------ *)

let window_arg =
  let doc = "Cycles per trace window." in
  Arg.(value & opt int 100 & info [ "window" ] ~docv:"CYCLES" ~doc)

let trace_cmd bench n_sinks stream usage reduction window =
  handle_unknown_bench @@ fun () ->
  let case = load_case bench n_sinks stream usage 1 in
  let { Benchmarks.Suite.config; profile; sinks; _ } = case in
  let tree = reduce_tree reduction (Gcr.Router.route config profile sinks) in
  let trace =
    Gsim.Trace.power_trace tree (Activity.Profile.stream profile) ~window
  in
  let open Util.Text_table in
  let table =
    create
      ~title:
        (Printf.sprintf "Windowed switched capacitance (%d-cycle windows)" window)
      [ ("window", Right); ("clock pF", Right); ("ctrl pF", Right); ("total pF", Right) ]
  in
  Array.iteri
    (fun w total ->
      add_row table
        [
          string_of_int w;
          Printf.sprintf "%.3f" (trace.Gsim.Trace.clock.(w) /. 1000.0);
          Printf.sprintf "%.3f" (trace.Gsim.Trace.ctrl.(w) /. 1000.0);
          Printf.sprintf "%.3f" (total /. 1000.0);
        ])
    trace.Gsim.Trace.total;
  print table;
  Format.printf "mean %.3f pF/cycle, peak %.3f pF/cycle (peak/avg %.2f)@."
    (Gsim.Trace.mean trace /. 1000.0)
    (Gsim.Trace.peak trace /. 1000.0)
    (Gsim.Trace.peak_to_average trace)

let trace_t =
  Term.(
    const trace_cmd $ bench_arg $ sinks_arg $ stream_arg $ usage_arg
    $ reduction_arg $ window_arg)

(* ------------------------------------------------------------------ *)
(* sweep-gates                                                        *)
(* ------------------------------------------------------------------ *)

let steps_arg =
  let doc = "Number of sweep steps." in
  Arg.(value & opt int 10 & info [ "steps" ] ~docv:"N" ~doc)

let sweep_gates_cmd bench n_sinks stream usage steps =
  handle_unknown_bench @@ fun () ->
  let case = load_case bench n_sinks stream usage 1 in
  let { Benchmarks.Suite.config; profile; sinks; _ } = case in
  let gated = Gcr.Router.route config profile sinks in
  let open Util.Text_table in
  let table =
    create ~title:"Gate reduction sweep (Figure 5)"
      [
        ("removed %", Right); ("gates", Right); ("W clock pF", Right);
        ("W ctrl pF", Right); ("W total pF", Right); ("area 10^3um^2", Right);
      ]
  in
  for i = 0 to steps do
    let fraction = float_of_int i /. float_of_int steps in
    let tree = Gcr.Gate_reduction.reduce_fraction gated ~fraction in
    let area = Gcr.Area.of_tree tree in
    add_row table
      [
        Printf.sprintf "%.0f" (100.0 *. fraction);
        string_of_int (Gcr.Gated_tree.gate_count tree);
        Printf.sprintf "%.2f" (Gcr.Cost.w_clock tree /. 1000.0);
        Printf.sprintf "%.2f" (Gcr.Cost.w_ctrl tree /. 1000.0);
        Printf.sprintf "%.2f" (Gcr.Cost.w_total tree /. 1000.0);
        Printf.sprintf "%.1f" (area.Gcr.Area.total /. 1000.0);
      ]
  done;
  print table

let sweep_gates_t =
  Term.(const sweep_gates_cmd $ bench_arg $ sinks_arg $ stream_arg $ usage_arg $ steps_arg)

(* ------------------------------------------------------------------ *)
(* sweep-activity                                                     *)
(* ------------------------------------------------------------------ *)

let sweep_activity_cmd bench n_sinks stream steps =
  handle_unknown_bench @@ fun () ->
  let open Util.Text_table in
  let table =
    create ~title:"Average module activity vs switched capacitance (Figure 4)"
      [
        ("target", Right); ("measured", Right); ("gated+red pF", Right);
        ("buffered pF", Right); ("ratio", Right);
      ]
  in
  for i = 1 to steps do
    let usage = float_of_int i /. float_of_int (steps + 1) in
    let case = load_case bench n_sinks stream usage 1 in
    let { Benchmarks.Suite.config; profile; sinks; _ } = case in
    let buffered = Gcr.Buffered.route config profile sinks in
    let reduced =
      Gcr.Gate_reduction.reduce_greedy (Gcr.Router.route config profile sinks)
    in
    let wg = Gcr.Cost.w_total reduced and wb = Gcr.Cost.w_total buffered in
    add_row table
      [
        Printf.sprintf "%.2f" usage;
        Printf.sprintf "%.3f" (Activity.Profile.avg_activity profile);
        Printf.sprintf "%.2f" (wg /. 1000.0);
        Printf.sprintf "%.2f" (wb /. 1000.0);
        Printf.sprintf "%.2f" (wg /. wb);
      ]
  done;
  print table

let sweep_activity_t =
  Term.(const sweep_activity_cmd $ bench_arg $ sinks_arg $ stream_arg $ steps_arg)

(* ------------------------------------------------------------------ *)
(* controllers                                                        *)
(* ------------------------------------------------------------------ *)

let controllers_cmd bench n_sinks stream usage =
  handle_unknown_bench @@ fun () ->
  let open Util.Text_table in
  let table =
    create ~title:"Distributed controllers (Figure 6)"
      [
        ("k", Right); ("ctrl wire mm", Right); ("analytic mm", Right);
        ("W ctrl pF", Right); ("W total pF", Right);
      ]
  in
  List.iter
    (fun k ->
      let case = load_case bench n_sinks stream usage k in
      let { Benchmarks.Suite.config; profile; sinks; spec; _ } = case in
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
  print table

let controllers_t =
  Term.(const controllers_cmd $ bench_arg $ sinks_arg $ stream_arg $ usage_arg)

(* ------------------------------------------------------------------ *)
(* table4 / svg                                                       *)
(* ------------------------------------------------------------------ *)

let table4_cmd stream =
  with_diagnostics @@ fun () ->
  Util.Text_table.print
    (Benchmarks.Suite.characteristics_table (Benchmarks.Suite.all ~stream_length:stream ()))

let table4_t = Term.(const table4_cmd $ stream_arg)

let svg_out_arg =
  let doc = "Output SVG file." in
  Arg.(value & opt string "tree.svg" & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let regions_arg =
  let doc = "Overlay the DME merging segments." in
  Arg.(value & flag & info [ "regions" ] ~doc)

let svg_cmd bench n_sinks stream usage k reduction out regions =
  handle_unknown_bench @@ fun () ->
  let case = load_case bench n_sinks stream usage k in
  let { Benchmarks.Suite.config; profile; sinks; _ } = case in
  let tree = reduce_tree reduction (Gcr.Router.route config profile sinks) in
  Gcr.Svg.write_file out (Gcr.Svg.render ~show_regions:regions tree);
  Format.printf "wrote %s (%d gates)@." out (Gcr.Gated_tree.gate_count tree)

let svg_t =
  Term.(
    const svg_cmd $ bench_arg $ sinks_arg $ stream_arg $ usage_arg $ k_arg
    $ reduction_arg $ svg_out_arg $ regions_arg)

(* ------------------------------------------------------------------ *)
(* fuzz                                                               *)
(* ------------------------------------------------------------------ *)

let fuzz_count_arg =
  let doc = "Number of random scenarios to generate and check." in
  Arg.(value & opt int 200 & info [ "count" ] ~docv:"N" ~doc)

let fuzz_seed_arg =
  let doc = "PRNG seed; equal seeds generate equal scenario sequences." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let fuzz_out_arg =
  let doc =
    "Directory for shrunk failing-scenario reproducers (created if missing)."
  in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)

let fuzz_replay_arg =
  let doc = "Re-run the conformance check on a dumped reproducer file." in
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)

let fuzz_faults_arg =
  let doc =
    "Inject faults (corrupted input files, poisoned in-memory inputs, \
     tampered intermediate trees) instead of fuzzing clean scenarios; every \
     fault must be absorbed or diagnosed with a typed error. Exits 70 on \
     any silent wrong answer."
  in
  Arg.(value & flag & info [ "faults" ] ~doc)

let fuzz_serve_arg =
  let doc =
    "Loopback server-fault campaign: start an in-process daemon on a \
     private socket and drive $(b,--count) faulted client sessions \
     (poison scenarios, zero budgets, oversized/truncated frames, junk \
     bytes, stalled writes) across $(b,--clients) concurrent \
     connections. Well-formed control requests must come back \
     bit-identical to one-shot routing; every fault must be diagnosed \
     with a typed reject or absorbed. Exits 70 on any silent failure, \
     worker backstop error, or unclean drain."
  in
  Arg.(value & flag & info [ "serve" ] ~doc)

let fuzz_clients_arg =
  let doc = "Concurrent client threads for $(b,--serve)." in
  Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc)

let fuzz_cmd count seed out replay faults serve clients =
  with_diagnostics @@ fun () ->
  match replay with
  | Some path -> (
    try
      Conformance.Fuzz.replay path;
      Format.printf "replay %s: pass@." path
    with e ->
      Format.eprintf "replay %s: FAIL@.  %s@." path
        (match Formats.Parse.error_to_string e with
        | Some s -> s
        | None -> Util.Gcr_error.message_of_exn e);
      exit 1)
  | None when serve ->
    if clients < 1 then usage_error "--clients expects a positive integer";
    let stats = Serve.Campaign.run ~count ~seed ~clients () in
    Format.printf "%a@." Serve.Campaign.pp_stats stats;
    if not (Serve.Campaign.passed stats) then exit 70
  | None when faults ->
    let stats = Conformance.Faults.run ~count ~seed () in
    Format.printf "%a@." Conformance.Faults.pp_stats stats;
    if stats.Conformance.Faults.silent <> [] then exit 70
  | None ->
    let stats = Conformance.Fuzz.run ?out_dir:out ~count ~seed () in
    Format.printf "%a@." Conformance.Fuzz.pp_stats stats;
    if stats.Conformance.Fuzz.failures <> [] then exit 1

let fuzz_t =
  Term.(const fuzz_cmd $ fuzz_count_arg $ fuzz_seed_arg $ fuzz_out_arg
        $ fuzz_replay_arg $ fuzz_faults_arg $ fuzz_serve_arg $ fuzz_clients_arg)

(* ------------------------------------------------------------------ *)
(* stats: replay a saved Obs run report                                *)
(* ------------------------------------------------------------------ *)

let stats_file_arg =
  let doc =
    "JSON run report written by $(b,gcr route --trace=json) (or any Obs \
     sink)."
  in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"REPORT" ~doc)

let stats_cmd file =
  with_diagnostics @@ fun () ->
  let text = Formats.Parse.read_file file in
  match Util.Obs.of_json_located text with
  | Ok report -> print_string (Util.Obs.render report)
  | Error (msg, offset) ->
    (* Truncated or garbage trace files get a caret at the failing byte
       and ride the Parse.Error path out of with_diagnostics: exit 65. *)
    Formats.Parse.fail_at_offset ~source:file ~text ~offset "%s" msg

let stats_t = Term.(const stats_cmd $ stats_file_arg)

(* ------------------------------------------------------------------ *)
(* serve / serve-send: the routing daemon and its client              *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc = "Listen on (or connect to) this Unix-domain socket path." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc =
    "Listen on (or connect to) HOST:PORT over TCP (bare PORT means \
     loopback; port 0 lets the kernel choose)."
  in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let parse_address socket tcp =
  match (socket, tcp) with
  | Some path, None -> Serve.Server.Unix_socket path
  | None, Some spec -> (
    let split =
      match String.rindex_opt spec ':' with
      | Some i ->
        ( String.sub spec 0 i,
          String.sub spec (i + 1) (String.length spec - i - 1) )
      | None -> ("", spec)
    in
    match split with
    | host, port -> (
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 -> Serve.Server.Tcp (host, p)
      | _ -> usage_error "--tcp expects HOST:PORT or PORT"))
  | Some _, Some _ -> usage_error "--socket and --tcp are mutually exclusive"
  | None, None -> usage_error "one of --socket or --tcp is required"

let budget_ms_arg =
  let doc =
    "Per-request wall budget in milliseconds: past it the degradation \
     ladder stops trying richer stages and the winning rung is tagged in \
     the response."
  in
  Arg.(value & opt (some float) None & info [ "budget-ms" ] ~docv:"MS" ~doc)

let serve_workers_arg =
  let doc = "Routing worker domains." in
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)

let serve_queue_arg =
  let doc =
    "Admission-queue bound: beyond it requests are rejected immediately \
     with a resource-limit error and a retry-after hint."
  in
  Arg.(value & opt int 64 & info [ "queue-cap" ] ~docv:"N" ~doc)

let serve_read_timeout_arg =
  let doc = "Seconds of mid-frame silence before a stalled peer is dropped." in
  Arg.(value & opt float 10.0 & info [ "read-timeout" ] ~docv:"S" ~doc)

let serve_idle_timeout_arg =
  let doc = "Seconds of between-frame silence before an idle close (0 = never)." in
  Arg.(value & opt float 300.0 & info [ "idle-timeout" ] ~docv:"S" ~doc)

let serve_cmd socket tcp workers queue_cap budget_ms paranoid read_timeout
    idle_timeout =
  with_diagnostics @@ fun () ->
  if workers < 1 then usage_error "--workers expects a positive integer";
  if queue_cap < 1 then usage_error "--queue-cap expects a positive integer";
  let address = parse_address socket tcp in
  let cfg =
    {
      (Serve.Server.default_config address) with
      Serve.Server.workers;
      queue_cap;
      default_budget_ms = budget_ms;
      paranoid;
      read_timeout_s = read_timeout;
      idle_timeout_s = idle_timeout;
    }
  in
  let stop = Serve.Server.install_signal_stop () in
  let stats =
    Serve.Server.run ~stop
      ~on_ready:(fun addr ->
        Format.printf "gcr serve: listening on %s@."
          (match addr with
          | Unix.ADDR_UNIX path -> path
          | Unix.ADDR_INET (a, p) ->
            Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p))
      cfg
  in
  Format.printf "gcr serve: drained@.%a@." Serve.Server.pp_stats stats;
  if not stats.Serve.Server.drained_clean then exit 1

let serve_t =
  Term.(
    const serve_cmd $ socket_arg $ tcp_arg $ serve_workers_arg
    $ serve_queue_arg $ budget_ms_arg $ paranoid_arg $ serve_read_timeout_arg
    $ serve_idle_timeout_arg)

let send_files_arg =
  let doc = "Scenario files to submit (pipelined on one connection)." in
  Arg.(value & pos_all file [] & info [] ~docv:"SCENARIO" ~doc)

let send_generate_arg =
  let doc =
    "Additionally submit $(docv) generated scenarios (the conformance \
     fuzzer's generator, seeded by $(b,--seed)) — lets CI smoke a daemon \
     without scenario files on disk."
  in
  Arg.(value & opt int 0 & info [ "generate" ] ~docv:"N" ~doc)

let send_poison_arg =
  let doc =
    "Additionally submit $(docv) deliberately unparseable scenarios; each \
     must come back as a typed reject, never a dropped connection."
  in
  Arg.(value & opt int 0 & info [ "poison" ] ~docv:"N" ~doc)

let send_seed_arg =
  let doc = "Seed for $(b,--generate)." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let send_update_chunk_arg =
  let doc =
    "Send every scenario as an $(i,update) request carrying this \
     trace chunk (comma- or space-separated instruction indices over \
     the scenario's RTL): the daemon ingests the chunk into the \
     workload's streaming profile — advancing its epoch — before \
     routing."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "update-chunk" ] ~docv:"INDICES" ~doc)

let send_timeout_arg =
  let doc = "Seconds to wait for each response." in
  Arg.(value & opt float 60.0 & info [ "timeout" ] ~docv:"S" ~doc)

let expect_ok_arg =
  let doc = "Fail unless exactly $(docv) requests are answered." in
  Arg.(value & opt (some int) None & info [ "expect-ok" ] ~docv:"N" ~doc)

let expect_reject_arg =
  let doc = "Fail unless exactly $(docv) requests are rejected." in
  Arg.(value & opt (some int) None & info [ "expect-reject" ] ~docv:"N" ~doc)

let serve_send_cmd socket tcp files generate poison seed budget_ms paranoid
    update_chunk timeout expect_ok expect_reject =
  with_diagnostics @@ fun () ->
  let address = parse_address socket tcp in
  let kind =
    match update_chunk with
    | None -> Serve.Proto.Route
    | Some s ->
      let parts =
        String.split_on_char ','
          (String.map (function ' ' | '\t' -> ',' | c -> c) s)
      in
      let chunk =
        List.filter_map
          (fun p ->
            if p = "" then None
            else
              match int_of_string_opt p with
              | Some i when i >= 0 -> Some i
              | _ ->
                usage_error
                  "--update-chunk expects non-negative instruction indices")
          parts
      in
      Serve.Proto.Update { chunk = Array.of_list chunk }
  in
  let prng = Util.Prng.create seed in
  let requests =
    List.map (fun f -> (f, Formats.Parse.read_file f)) files
    @ List.init generate (fun i ->
          ( Printf.sprintf "generated#%d" i,
            Conformance.Scenario.render
              (Conformance.Scenario.generate prng
                 ~tag:(Printf.sprintf "serve-send seed %d #%d" seed i)) ))
    @ List.init poison (fun i ->
          ( Printf.sprintf "poison#%d" i,
            Printf.sprintf "die-side 1.0\npoison %d [not a scenario\n" i ))
  in
  if requests = [] then
    usage_error "serve-send needs scenario files, --generate, or --poison";
  let files = Array.of_list (List.map fst requests) in
  let n = Array.length files in
  let c = Serve.Client.connect address in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  List.iteri
    (fun id (_, scenario) ->
      Serve.Client.send c { Serve.Proto.id; scenario; budget_ms; paranoid; kind })
    requests;
  Serve.Client.close_half c;
  let ok = ref 0 and rejected = ref 0 and received = ref 0 in
  let transport_error = ref None in
  (* Responses arrive in completion order; the echoed id names the file. *)
  let rec drain () =
    if !received < n && !transport_error = None then begin
      (match Serve.Client.recv ~timeout_s:timeout c with
      | Ok (Some (Serve.Proto.Answer a)) ->
        incr ok;
        incr received;
        Format.printf "%s: ok rung=%s%s digest=%s w_total=%.1f epoch=%d %.1fms@."
          files.(a.Serve.Proto.id) a.Serve.Proto.rung
          (match a.Serve.Proto.degraded with
          | [] -> ""
          | d -> " degraded=" ^ String.concat "," d)
          a.Serve.Proto.digest a.Serve.Proto.w_total a.Serve.Proto.epoch
          a.Serve.Proto.elapsed_ms
      | Ok (Some (Serve.Proto.Reject r)) ->
        incr rejected;
        incr received;
        Format.printf "%s: reject class=%s exit=%d: %s@."
          (match r.Serve.Proto.id with
          | Some id when id >= 0 && id < n -> files.(id)
          | _ -> "<unattributed>")
          r.Serve.Proto.error_class r.Serve.Proto.exit_code
          r.Serve.Proto.message
      | Ok None ->
        transport_error :=
          Some
            (Printf.sprintf "server closed after %d of %d responses"
               !received n)
      | Error e -> transport_error := Some e);
      drain ()
    end
  in
  drain ();
  Format.printf "%d submitted: %d answered, %d rejected@." n !ok !rejected;
  (match !transport_error with
  | Some e ->
    Format.eprintf "gcr serve-send: %s@." e;
    exit 1
  | None -> ());
  let check what expected got =
    match expected with
    | Some want when want <> got ->
      Format.eprintf "gcr serve-send: expected %d %s, got %d@." want what got;
      exit 1
    | _ -> ()
  in
  check "answered" expect_ok !ok;
  check "rejected" expect_reject !rejected

let serve_send_t =
  Term.(
    const serve_send_cmd $ socket_arg $ tcp_arg $ send_files_arg
    $ send_generate_arg $ send_poison_arg $ send_seed_arg $ budget_ms_arg
    $ paranoid_arg $ send_update_chunk_arg $ send_timeout_arg $ expect_ok_arg
    $ expect_reject_arg)

(* ------------------------------------------------------------------ *)
(* bench: the full benchmark harness as a subcommand                   *)
(* ------------------------------------------------------------------ *)

let bench_quick_arg =
  let doc =
    "Shrink every experiment to its smoke size (what CI runs per PR)."
  in
  Arg.(value & flag & info [ "quick" ] ~doc)

let bench_only_arg =
  let doc =
    "Run only these harness sections (repeatable, or comma-separated; \
     unknown names list the known ones and exit 64)."
  in
  Arg.(value & opt_all (list string) [] & info [ "only" ] ~docv:"SECTION" ~doc)

let bench_out_arg =
  let doc = "Write the assembled JSON results document to $(docv)." in
  Arg.(
    value
    & opt string "BENCH_greedy.json"
    & info [ "out" ] ~docv:"FILE" ~doc)

let bench_cmd quick only out =
  with_diagnostics @@ fun () ->
  let only = match List.concat only with [] -> None | l -> Some l in
  try Bench_harness.run ~quick ?only ~out ()
  with Invalid_argument msg ->
    (* unknown section name: a usage error, not bad data *)
    Format.eprintf "gcr: %s@." msg;
    exit 64

let bench_t =
  Term.(const bench_cmd $ bench_quick_arg $ bench_only_arg $ bench_out_arg)

(* ------------------------------------------------------------------ *)
(* assembly                                                           *)
(* ------------------------------------------------------------------ *)

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let main =
  Cmd.group
    (Cmd.info "gcr" ~version:"1.0.0"
       ~doc:"Gated clock routing minimizing the switched capacitance (DATE'98)")
    [
      cmd "route" "Route a benchmark and compare buffered/gated/reduced." route_t;
      cmd "route-files" "Route a user design from sinks/RTL/stream files."
        route_files_t;
      cmd "trace" "Windowed power trace of a routed benchmark." trace_t;
      cmd "sweep-gates" "Gate-reduction sweep (Figure 5)." sweep_gates_t;
      cmd "sweep-activity" "Module-activity sweep (Figure 4)." sweep_activity_t;
      cmd "controllers" "Distributed-controller study (Figure 6)." controllers_t;
      cmd "table4" "Benchmark characteristics (Table 4)." table4_t;
      cmd "bench" "Run the benchmark harness (subset via --only)." bench_t;
      cmd "fuzz" "Randomized whole-pipeline conformance fuzzing." fuzz_t;
      cmd "stats" "Render a saved --trace=json run report." stats_t;
      cmd "svg" "Render a routed tree to SVG." svg_t;
      cmd "serve"
        "Serve routing requests: a fault-tolerant concurrent daemon with \
         admission control, per-request budgets, and overload degradation."
        serve_t;
      cmd "serve-send" "Submit scenario files to a running gcr serve daemon."
        serve_send_t;
    ]

let () =
  (* cmdliner reports its own CLI parse errors as 124; remap to the
     sysexits usage code so every bad invocation exits 64. *)
  let code = Cmd.eval main in
  exit (if code = Cmd.Exit.cli_error then 64 else code)
