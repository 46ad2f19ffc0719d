(* Robustness: the degenerate-input corpus through the checked pipeline,
   resource limits, paranoid-vs-default equivalence, the numerical
   helpers (Kahan, Tol), error classification and exit codes, and the
   fault-injection harness smoke. *)

let pt = Geometry.Point.make

let mk_sink id x y cap module_id =
  Clocktree.Sink.make ~id ~loc:(pt x y) ~cap ~module_id

let profile4 =
  Benchmarks.Workload.profile ~n_modules:4 ~n_instructions:6 ~usage:0.5
    ~stream_length:100 ~seed:3 ()

let config () = Gcr.Config.make ~die:(Geometry.Bbox.square ~side:100.0) ()

let run_checked ?mode ?limits ?on_event ?options ?(config = config ()) sinks =
  Gcr.Flow.run_checked ?mode ?limits ?on_event ?options config profile4 sinks

(* Default to paranoid in this file: every accepted degenerate input must
   also withstand the full structural re-derivation. *)
let expect_ok ?limits ?options ?config sinks =
  match run_checked ~mode:Gcr.Flow.Paranoid ?limits ?options ?config sinks with
  | Ok tree -> tree
  | Error errs ->
    Alcotest.failf "expected Ok, got: %s"
      (String.concat "; " (List.map Util.Gcr_error.to_string errs))

let expect_degenerate ?options ?config sinks =
  match run_checked ?options ?config sinks with
  | Ok _ -> Alcotest.fail "degenerate input accepted"
  | Error errs ->
    Alcotest.(check bool) "at least one error" true (errs <> []);
    List.iter
      (fun err ->
        match err with
        | Util.Gcr_error.Degenerate_input _ -> ()
        | e ->
          Alcotest.failf "expected Degenerate_input, got: %s"
            (Util.Gcr_error.to_string e))
      errs;
    errs

(* ------------------------------------------------------------------ *)
(* Degenerate-input corpus                                            *)
(* ------------------------------------------------------------------ *)

let test_single_sink () =
  let tree = expect_ok [| mk_sink 0 10.0 20.0 5.0 0 |] in
  Alcotest.(check int) "one sink" 1
    (Array.length tree.Gcr.Gated_tree.sinks)

let test_two_sinks () =
  let tree = expect_ok [| mk_sink 0 10.0 20.0 5.0 0; mk_sink 1 90.0 80.0 7.0 1 |] in
  Alcotest.(check int) "two sinks" 2 (Array.length tree.Gcr.Gated_tree.sinks)

let test_coincident_sinks () =
  (* all sinks at one point: every merge distance is zero *)
  let sinks = Array.init 5 (fun id -> mk_sink id 50.0 50.0 4.0 (id mod 4)) in
  ignore (expect_ok sinks)

let test_empty_sinks () = ignore (expect_degenerate [||])

let test_nan_coordinate () =
  ignore
    (expect_degenerate [| mk_sink 0 10.0 20.0 5.0 0;
                          { (mk_sink 1 1.0 1.0 5.0 1) with
                            Clocktree.Sink.loc = pt Float.nan 1.0 } |])

let test_nonpositive_cap () =
  ignore
    (expect_degenerate
       [| mk_sink 0 10.0 20.0 5.0 0;
          { (mk_sink 1 1.0 1.0 5.0 1) with Clocktree.Sink.cap = 0.0 } |])

let test_unknown_module () =
  (* module id 9 outside profile4's universe [0, 4) *)
  ignore
    (expect_degenerate
       [| mk_sink 0 10.0 20.0 5.0 0;
          { (mk_sink 1 1.0 1.0 5.0 1) with Clocktree.Sink.module_id = 9 } |])

let test_zero_tech () =
  let with_tech tech = { (config ()) with Gcr.Config.tech } in
  let zero_cap =
    with_tech { Clocktree.Tech.default with Clocktree.Tech.unit_cap = 0.0 }
  in
  ignore (expect_degenerate ~config:zero_cap [| mk_sink 0 1.0 1.0 5.0 0 |]);
  let neg_res =
    with_tech { Clocktree.Tech.default with Clocktree.Tech.unit_res = -2.0 }
  in
  ignore (expect_degenerate ~config:neg_res [| mk_sink 0 1.0 1.0 5.0 0 |])

let test_bad_options () =
  let options =
    { Gcr.Flow.default with Gcr.Flow.reduction = Gcr.Flow.Fraction 1.5 }
  in
  ignore (expect_degenerate ~options [| mk_sink 0 1.0 1.0 5.0 0 |]);
  let options =
    { Gcr.Flow.default with Gcr.Flow.skew_budget = Float.neg_infinity }
  in
  ignore (expect_degenerate ~options [| mk_sink 0 1.0 1.0 5.0 0 |])

let test_all_errors_reported_together () =
  (* one call, three distinct problems: all must come back at once *)
  let errs =
    expect_degenerate
      ~options:{ Gcr.Flow.default with Gcr.Flow.skew_budget = -1.0 }
      [| { (mk_sink 0 1.0 1.0 5.0 0) with Clocktree.Sink.cap = Float.nan };
         { (mk_sink 1 2.0 2.0 5.0 1) with Clocktree.Sink.module_id = 42 } |]
  in
  Alcotest.(check bool) "three or more errors" true (List.length errs >= 3)

let test_empty_stream_parse () =
  let rtl = Activity.Rtl.of_lists ~n_modules:2 [ [ 0 ]; [ 1 ] ] in
  match Formats.Stream_format.parse rtl "# no cycles at all\n" with
  | _ -> Alcotest.fail "empty stream accepted"
  | exception Formats.Parse.Error _ -> ()

let test_single_instruction_stream () =
  let rtl = Activity.Rtl.of_lists ~n_modules:2 [ [ 0 ]; [ 1 ] ] in
  let stream = Formats.Stream_format.parse rtl "I1\n" in
  Alcotest.(check int) "one cycle" 1 (Activity.Instr_stream.length stream);
  Alcotest.(check int) "instruction 0" 0 (Activity.Instr_stream.get stream 0)

(* ------------------------------------------------------------------ *)
(* Checked pipeline: limits, events, paranoid equivalence             *)
(* ------------------------------------------------------------------ *)

let sinks16 () =
  let prng = Util.Prng.create 11 in
  Array.init 16 (fun id ->
      mk_sink id
        (Util.Prng.range prng 0.0 100.0)
        (Util.Prng.range prng 0.0 100.0)
        (Util.Prng.range prng 2.0 20.0)
        (id mod 4))

let test_merge_step_limit () =
  let limits =
    { Gcr.Flow.no_limits with Gcr.Flow.max_merge_steps = Some 3 }
  in
  match run_checked ~limits (sinks16 ()) with
  | Ok _ -> Alcotest.fail "16 sinks routed under a 3-merge budget"
  | Error [ Util.Gcr_error.Resource_limit { stage; _ } ] ->
    Alcotest.(check string) "stage" "route" stage
  | Error errs ->
    Alcotest.failf "expected one Resource_limit, got: %s"
      (String.concat "; " (List.map Util.Gcr_error.to_string errs))

let test_merge_step_limit_sufficient () =
  let limits =
    { Gcr.Flow.no_limits with Gcr.Flow.max_merge_steps = Some 15 }
  in
  ignore (expect_ok ~limits (sinks16 ()))

let test_wall_clock_exhausted () =
  let limits =
    { Gcr.Flow.no_limits with Gcr.Flow.wall_seconds = Some (-1.0) }
  in
  match run_checked ~limits (sinks16 ()) with
  | Ok _ -> Alcotest.fail "routed with an already-exhausted wall clock"
  | Error (Util.Gcr_error.Resource_limit _ :: _) -> ()
  | Error errs ->
    Alcotest.failf "expected Resource_limit first, got: %s"
      (String.concat "; " (List.map Util.Gcr_error.to_string errs))

(* Regression (ISSUE 5): under the old Unix.gettimeofday arithmetic a
   zero budget raced the wall clock — [t0 +. 0.] could still compare
   equal to a later reading and let stages run. The monotonic clock with
   [>=] must report Resource_limit on the first stage, every time. *)
let test_zero_wall_clock_deterministic () =
  let limits = { Gcr.Flow.no_limits with Gcr.Flow.wall_seconds = Some 0.0 } in
  for _ = 1 to 20 do
    match run_checked ~limits (sinks16 ()) with
    | Ok _ -> Alcotest.fail "routed under a zero wall-clock budget"
    | Error (Util.Gcr_error.Resource_limit { stage; _ } :: _) ->
      Alcotest.(check string) "exhausts before the first rung" "route" stage
    | Error errs ->
      Alcotest.failf "expected Resource_limit first, got: %s"
        (String.concat "; " (List.map Util.Gcr_error.to_string errs))
  done

(* A traced clean run records every executed stage exactly once, and no
   ladder rung other than the first. *)
let test_trace_stages_once () =
  let (result, report) =
    Util.Obs.run (fun () -> run_checked (sinks16 ()))
  in
  (match result with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "clean traced run failed");
  let top name =
    List.find_opt (fun s -> s.Util.Obs.name = name) report.Util.Obs.spans
  in
  List.iter
    (fun name ->
      match top name with
      | Some s ->
        Alcotest.(check int) (name ^ " appears exactly once") 1 s.Util.Obs.calls
      | None -> Alcotest.failf "stage %s missing from the trace" name)
    [ "validate"; "route"; "reduce"; "size" ];
  List.iter
    (fun rung ->
      Alcotest.(check bool) (rung ^ " did not run") true (top rung = None))
    [ "route:sharded"; "route:skew-budget" ];
  Alcotest.(check (option int))
    "one ladder attempt" (Some 1)
    (List.assoc_opt "flow.rungs" report.Util.Obs.counters)

let test_paranoid_equals_default () =
  let sinks = sinks16 () in
  let get mode =
    match run_checked ~mode sinks with
    | Ok tree -> tree
    | Error errs ->
      Alcotest.failf "pipeline failed: %s"
        (String.concat "; " (List.map Util.Gcr_error.to_string errs))
  in
  Conformance.Oracles.same_tree ~what:"paranoid vs default"
    (get Gcr.Flow.Default) (get Gcr.Flow.Paranoid)

let test_checked_equals_unchecked () =
  let sinks = sinks16 () in
  let unchecked = Gcr.Flow.run (config ()) profile4 sinks in
  match run_checked ~mode:Gcr.Flow.Paranoid sinks with
  | Error _ -> Alcotest.fail "checked pipeline failed on a clean input"
  | Ok checked ->
    Conformance.Oracles.same_tree ~what:"run_checked vs run" unchecked checked

(* Flow.run is the checked run made strict: an input the checked run
   rejects raises the same typed error, never a raw Invalid_argument from
   inside a stage. *)
let test_unchecked_raises_typed () =
  let sinks = [| mk_sink 0 10.0 20.0 5.0 0; mk_sink 1 90.0 80.0 7.0 99 |] in
  match Gcr.Flow.run (config ()) profile4 sinks with
  | _ -> Alcotest.fail "module id outside the profile accepted"
  | exception Util.Gcr_error.Error (Util.Gcr_error.Degenerate_input _) -> ()
  | exception e ->
    Alcotest.failf "expected Degenerate_input, got %s"
      (Util.Gcr_error.message_of_exn e)

(* The unchecked stage fold over a routed tree is the checked run's tree. *)
let test_optimize_matches_run () =
  let sinks = sinks16 () in
  let options =
    {
      Gcr.Flow.default with
      Gcr.Flow.sizing = Gcr.Flow.Tapered;
      gate_share = Gcr.Flow.Share { min_instances = 1; eps = 0 };
    }
  in
  let routed = Gcr.Flow.route_with_options options (config ()) profile4 sinks in
  Conformance.Oracles.same_tree ~what:"optimize vs run"
    (Gcr.Flow.run ~options (config ()) profile4 sinks)
    (Gcr.Flow.optimize options routed)

let test_no_events_on_clean_run () =
  let events = ref [] in
  (match run_checked ~on_event:(fun e -> events := e :: !events) (sinks16 ())
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "clean run failed");
  Alcotest.(check int) "no degradation events" 0 (List.length !events)

(* run_checked_info is run_checked plus provenance: the winning rung and
   the degradation events ride along with the tree, so callers (the
   serve daemon) can tag responses without intercepting on_event. *)
let test_run_checked_info_clean () =
  let sinks = sinks16 () in
  match
    Gcr.Flow.run_checked_info ~mode:Gcr.Flow.Paranoid (config ()) profile4
      sinks
  with
  | Error errs ->
    Alcotest.failf "clean run failed: %s"
      (String.concat "; " (List.map Util.Gcr_error.to_string errs))
  | Ok { Gcr.Flow.tree; rung; degraded } ->
    Alcotest.(check string) "first rung wins" "route" rung;
    Alcotest.(check int) "no degradation events" 0 (List.length degraded);
    Conformance.Oracles.same_tree ~what:"info tree vs run_checked"
      (expect_ok sinks) tree

let test_run_checked_info_zero_budget () =
  let limits = { Gcr.Flow.no_limits with Gcr.Flow.wall_seconds = Some 0.0 } in
  match
    Gcr.Flow.run_checked_info ~limits (config ()) profile4 (sinks16 ())
  with
  | Ok _ -> Alcotest.fail "routed under a zero wall-clock budget"
  | Error (Util.Gcr_error.Resource_limit _ :: _) -> ()
  | Error errs ->
    Alcotest.failf "expected Resource_limit first, got: %s"
      (String.concat "; " (List.map Util.Gcr_error.to_string errs))

let merge_steps report =
  Option.value ~default:0
    (List.assoc_opt "greedy.merge_steps" report.Util.Obs.counters)

let errors_to_string errs =
  String.concat "; " (List.map Util.Gcr_error.to_string errs)

(* A seeded draw of 2-41 random sinks on a die of side 1e10. One ulp of
   a coordinate there (2^-19 ~ 1.9e-6) exceeds an absolute 1e-6 region
   containment slack, which rejected this valid tree on every rung after
   routing it three times; the slack now grows with the coordinates, and
   the first rung answers after n - 1 merges. *)
let test_large_die_paranoid () =
  let scale = 1e10 in
  let prng = Util.Prng.create 11 in
  let n = 2 + Util.Prng.int prng 40 in
  let sinks =
    Array.init n (fun id ->
        let x = Util.Prng.float prng scale in
        let y = Util.Prng.float prng scale in
        let cap = 1.0 +. Util.Prng.float prng 9.0 in
        let module_id = Util.Prng.int prng 4 in
        mk_sink id x y cap module_id)
  in
  let config = Gcr.Config.make ~die:(Geometry.Bbox.square ~side:scale) () in
  let result, report =
    Util.Obs.run (fun () ->
        Gcr.Flow.run_checked_info ~mode:Gcr.Flow.Paranoid config profile4 sinks)
  in
  match result with
  | Error errs -> Alcotest.failf "large die rejected: %s" (errors_to_string errs)
  | Ok { Gcr.Flow.rung; _ } ->
    Alcotest.(check string) "first rung wins" "route" rung;
    Alcotest.(check int) "one merge per sink pair" (n - 1) (merge_steps report)

(* A kernel built from another stream of the same RTL passes every
   dimension check but answers P/Ptr for the other stream's tables.
   Paranoid names it at the enable check, as the serve audit does, and
   does not merge again to route around it: the retry only re-embeds. *)
let test_foreign_kernel_paranoid () =
  let model =
    Benchmarks.Workload.cpu_model
      (Benchmarks.Workload.make_rtl ~n_modules:4 ~n_instructions:6 ~usage:0.5
         ~seed:3 ())
  in
  let own = Activity.Profile.generate model ~seed:1 ~length:200 in
  let other = Activity.Profile.generate model ~seed:2 ~length:200 in
  let profile =
    Activity.Profile.of_tables
      ?kernel:(Activity.Profile.signature_kernel other)
      (Activity.Profile.stream own) (Activity.Profile.ift own)
      (Activity.Profile.imatt own)
  in
  let sinks = sinks16 () in
  let result, report =
    Util.Obs.run (fun () ->
        Gcr.Flow.run_checked_info ~mode:Gcr.Flow.Paranoid (config ()) profile
          sinks)
  in
  (match result with
  | Ok { Gcr.Flow.rung; _ } ->
    Alcotest.failf "foreign kernel accepted on rung %s" rung
  | Error
      [
        Util.Gcr_error.Engine_mismatch { stage = "invariant:enable_consistency"; _ };
        _;
      ] -> ()
  | Error errs ->
    Alcotest.failf
      "expected an enable-check Engine_mismatch, then the retry's error, got: %s"
      (errors_to_string errs));
  Alcotest.(check (option int))
    "route and the re-embedding retry" (Some 2)
    (List.assoc_opt "flow.rungs" report.Util.Obs.counters);
  Alcotest.(check int) "one merge per sink pair" (Array.length sinks - 1)
    (merge_steps report)

(* ------------------------------------------------------------------ *)
(* gcr stats on damaged trace files (subprocess)                      *)
(* ------------------------------------------------------------------ *)

let gcr_exe = Filename.concat (Filename.concat ".." "bin") "gcr_cli.exe"

let run_stats_on text =
  let file = Filename.temp_file "gcr-stats-test" ".json" in
  let err_file = Filename.temp_file "gcr-stats-test" ".err" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove file with Sys_error _ -> ());
      try Sys.remove err_file with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin file in
      output_string oc text;
      close_out oc;
      let cmd =
        Printf.sprintf "%s stats %s >/dev/null 2>%s" (Filename.quote gcr_exe)
          (Filename.quote file) (Filename.quote err_file)
      in
      let code =
        match Unix.system cmd with
        | Unix.WEXITED n -> n
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
      in
      let ic = open_in_bin err_file in
      let err =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (code, err))

let valid_trace_json () =
  let (), report =
    Util.Obs.run (fun () -> Util.Obs.span ~name:"stage" (fun () -> ()))
  in
  Util.Obs.to_json report

(* Satellite regression: a truncated or garbage trace file must exit 65
   (sysexits EX_DATAERR) with a located caret diagnostic, never a raw
   exception or exit 70. *)
let test_stats_truncated_trace () =
  let full = valid_trace_json () in
  let truncated = String.sub full 0 (String.length full / 2) in
  let code, err = run_stats_on truncated in
  Alcotest.(check int) "exit 65" 65 code;
  Alcotest.(check bool) "caret under the failing byte" true
    (Astring.String.is_infix ~affix:"^" err);
  Alcotest.(check bool) "line:col location" true
    (Astring.String.is_infix ~affix:":1:" err)

let test_stats_garbage_trace () =
  let code, err = run_stats_on "po}ts [definitely not a trace\n" in
  Alcotest.(check int) "exit 65" 65 code;
  Alcotest.(check bool) "caret under the failing byte" true
    (Astring.String.is_infix ~affix:"^" err)

let test_stats_wrong_shape_trace () =
  (* well-formed JSON of the wrong shape: located at offset 0 *)
  let code, err = run_stats_on "{\"version\":999}\n" in
  Alcotest.(check int) "exit 65" 65 code;
  Alcotest.(check bool) "diagnostic on stderr" true
    (String.length err > 0)

let test_stats_valid_trace_ok () =
  let code, err = run_stats_on (valid_trace_json ()) in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check string) "quiet stderr" "" err

(* ------------------------------------------------------------------ *)
(* Numerical helpers                                                  *)
(* ------------------------------------------------------------------ *)

let test_kahan_cancellation () =
  (* naive summation returns 0.0 here; Neumaier recovers the 2.0 *)
  let terms = [| 1.0; 1e100; 1.0; -1e100 |] in
  Alcotest.(check (float 0.0)) "sum_array" 2.0 (Util.Kahan.sum_array terms);
  let acc = Util.Kahan.create () in
  Array.iter (Util.Kahan.add acc) terms;
  Alcotest.(check (float 0.0)) "accumulator" 2.0 (Util.Kahan.total acc);
  Util.Kahan.reset acc;
  Alcotest.(check (float 0.0)) "reset" 0.0 (Util.Kahan.total acc);
  Alcotest.(check (float 0.0)) "sum_init" 2.0
    (Util.Kahan.sum_init 4 (fun i -> terms.(i)))

let test_kahan_step () =
  let sum, comp = Util.Kahan.step ~sum:0.0 ~comp:0.0 1e100 in
  let sum, comp = Util.Kahan.step ~sum ~comp 1.0 in
  let sum, comp = Util.Kahan.step ~sum ~comp (-1e100) in
  Alcotest.(check (float 0.0)) "caller-owned state" 1.0 (sum +. comp)

let test_tol_nan_always_fails () =
  Alcotest.(check bool) "close nan a" false (Util.Tol.close Float.nan 1.0);
  Alcotest.(check bool) "close nan b" false (Util.Tol.close 1.0 Float.nan);
  Alcotest.(check bool) "within nan" false
    (Util.Tol.within ~value:Float.nan ~bound:infinity ())

let test_tol_relative () =
  Alcotest.(check bool) "tight match" true
    (Util.Tol.close 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "clear mismatch" false (Util.Tol.close 1.0 2.0);
  (* the same absolute error passes at large magnitude, fails at small *)
  Alcotest.(check bool) "relative at 1e12" true
    (Util.Tol.close 1e12 (1e12 +. 1.0));
  Alcotest.(check bool) "absolute at 1" false (Util.Tol.close 1.0 2.0);
  Alcotest.(check bool) "scale widens" true
    (Util.Tol.close ~scale:1e12 1.0 (1.0 +. 1e-4));
  Alcotest.(check bool) "within bound" true
    (Util.Tol.within ~value:1.0 ~bound:1.0 ());
  Alcotest.(check bool) "within violated" false
    (Util.Tol.within ~value:2.0 ~bound:1.0 ());
  Alcotest.(check (float 1e-15)) "rel_error zero" 0.0
    (Util.Tol.rel_error 3.0 3.0)

(* ------------------------------------------------------------------ *)
(* Error classification and exit codes                                *)
(* ------------------------------------------------------------------ *)

let test_exit_codes () =
  let check name err code =
    Alcotest.(check int) name code (Util.Gcr_error.exit_code err)
  in
  check "parse -> 65"
    (Util.Gcr_error.Parse { file = "f"; line = 1; col = 0; msg = "m" }) 65;
  check "degenerate -> 65"
    (Util.Gcr_error.Degenerate_input { what = "w"; detail = "d" }) 65;
  check "numerical -> 70"
    (Util.Gcr_error.Numerical { stage = "s"; value = Float.nan; context = "c" })
    70;
  check "mismatch -> 70"
    (Util.Gcr_error.Engine_mismatch { stage = "s"; detail = "d" }) 70;
  check "internal -> 70" (Util.Gcr_error.Internal { stage = "s"; detail = "d" })
    70;
  check "resource -> 75"
    (Util.Gcr_error.Resource_limit { stage = "s"; limit = "l"; detail = "d" })
    75

let test_of_exn_classification () =
  let classify e = Util.Gcr_error.of_exn ~stage:"s" e in
  (match classify (Invalid_argument "bad") with
  | Util.Gcr_error.Degenerate_input _ -> ()
  | e -> Alcotest.failf "Invalid_argument -> %s" (Util.Gcr_error.to_string e));
  (match classify (Failure "boom") with
  | Util.Gcr_error.Internal _ -> ()
  | e -> Alcotest.failf "Failure -> %s" (Util.Gcr_error.to_string e));
  (match classify Stack_overflow with
  | Util.Gcr_error.Resource_limit _ -> ()
  | e -> Alcotest.failf "Stack_overflow -> %s" (Util.Gcr_error.to_string e));
  let typed = Util.Gcr_error.Engine_mismatch { stage = "x"; detail = "d" } in
  Alcotest.(check bool) "Error unwraps" true
    (classify (Util.Gcr_error.Error typed) = typed)

(* ------------------------------------------------------------------ *)
(* Fault-injection smoke                                              *)
(* ------------------------------------------------------------------ *)

let test_faults_smoke () =
  (* two full rounds over every family *)
  let count = 2 * List.length Conformance.Faults.family_names in
  let stats = Conformance.Faults.run ~count ~seed:1 () in
  Alcotest.(check int) "faults run" count stats.Conformance.Faults.faults;
  Alcotest.(check int) "no silent wrong answers" 0
    (List.length stats.Conformance.Faults.silent);
  Alcotest.(check int) "every verdict accounted for" count
    (stats.Conformance.Faults.diagnosed + stats.Conformance.Faults.absorbed);
  Alcotest.(check int) "every family exercised"
    (List.length Conformance.Faults.family_names)
    (List.length stats.Conformance.Faults.coverage)

let () =
  Alcotest.run "robustness"
    [
      ( "degenerate inputs",
        [
          Alcotest.test_case "single sink" `Quick test_single_sink;
          Alcotest.test_case "two sinks" `Quick test_two_sinks;
          Alcotest.test_case "coincident sinks" `Quick test_coincident_sinks;
          Alcotest.test_case "empty sink array" `Quick test_empty_sinks;
          Alcotest.test_case "NaN coordinate" `Quick test_nan_coordinate;
          Alcotest.test_case "non-positive capacitance" `Quick
            test_nonpositive_cap;
          Alcotest.test_case "unknown module id" `Quick test_unknown_module;
          Alcotest.test_case "zero and negative tech" `Quick test_zero_tech;
          Alcotest.test_case "bad options" `Quick test_bad_options;
          Alcotest.test_case "all errors reported together" `Quick
            test_all_errors_reported_together;
          Alcotest.test_case "empty stream rejected" `Quick
            test_empty_stream_parse;
          Alcotest.test_case "single-instruction stream" `Quick
            test_single_instruction_stream;
        ] );
      ( "checked pipeline",
        [
          Alcotest.test_case "merge-step limit trips" `Quick
            test_merge_step_limit;
          Alcotest.test_case "merge-step limit sufficient" `Quick
            test_merge_step_limit_sufficient;
          Alcotest.test_case "wall clock exhausted" `Quick
            test_wall_clock_exhausted;
          Alcotest.test_case "zero wall clock is deterministic" `Quick
            test_zero_wall_clock_deterministic;
          Alcotest.test_case "trace records each stage once" `Quick
            test_trace_stages_once;
          Alcotest.test_case "paranoid equals default" `Quick
            test_paranoid_equals_default;
          Alcotest.test_case "checked equals unchecked" `Quick
            test_checked_equals_unchecked;
          Alcotest.test_case "unchecked run raises typed errors" `Quick
            test_unchecked_raises_typed;
          Alcotest.test_case "optimize matches run" `Quick
            test_optimize_matches_run;
          Alcotest.test_case "no events on a clean run" `Quick
            test_no_events_on_clean_run;
          Alcotest.test_case "run_checked_info clean rung" `Quick
            test_run_checked_info_clean;
          Alcotest.test_case "run_checked_info zero budget" `Quick
            test_run_checked_info_zero_budget;
          Alcotest.test_case "large die passes paranoid" `Quick
            test_large_die_paranoid;
          Alcotest.test_case "foreign kernel fails paranoid" `Quick
            test_foreign_kernel_paranoid;
        ] );
      ( "stats cli",
        [
          Alcotest.test_case "truncated trace exits 65 with caret" `Quick
            test_stats_truncated_trace;
          Alcotest.test_case "garbage trace exits 65 with caret" `Quick
            test_stats_garbage_trace;
          Alcotest.test_case "wrong-shape trace exits 65" `Quick
            test_stats_wrong_shape_trace;
          Alcotest.test_case "valid trace renders" `Quick
            test_stats_valid_trace_ok;
        ] );
      ( "numerics",
        [
          Alcotest.test_case "Kahan cancellation" `Quick
            test_kahan_cancellation;
          Alcotest.test_case "Kahan caller-owned step" `Quick test_kahan_step;
          Alcotest.test_case "Tol rejects NaN" `Quick test_tol_nan_always_fails;
          Alcotest.test_case "Tol is relative" `Quick test_tol_relative;
        ] );
      ( "errors",
        [
          Alcotest.test_case "sysexits mapping" `Quick test_exit_codes;
          Alcotest.test_case "of_exn classification" `Quick
            test_of_exn_classification;
        ] );
      ( "faults",
        [ Alcotest.test_case "harness smoke" `Quick test_faults_smoke ] );
    ]
