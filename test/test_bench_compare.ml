(* The perf-regression gate (bench/compare) must extract the right
   metrics from bench documents, fire on real slowdowns and vanished
   metrics, stay quiet within the threshold, and round-trip its own
   trajectory rows. A gate that silently passes everything un-gates
   every kernel in CI. *)

module Json = Util.Obs.Json

let parse s =
  match Json.parse s with
  | Ok d -> d
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

let doc =
  parse
    {|{"quick": true,
       "kernel_micro": {"n_modules": 100, "sig_p_ns": 5.0, "sig_ptr_ns": 12.0,
                        "curve": [{"x_ns": 1.0}]},
       "guard_overhead": {"per_call_ns": 3.5, "calls": 800}}|}

let test_metric_extraction () =
  let metrics = Bench_compare.metrics_of_doc doc in
  Alcotest.(check (list (pair string (float 0.0))))
    "dotted _ns keys only, lists and counters skipped"
    [
      ("kernel_micro.sig_p_ns", 5.0);
      ("kernel_micro.sig_ptr_ns", 12.0);
      ("guard_overhead.per_call_ns", 3.5);
    ]
    metrics

let baseline = [ ("a_ns", 10.0); ("b_ns", 20.0) ]

let test_check_passes_within_threshold () =
  let v =
    Bench_compare.check ~threshold:0.15 ~baseline
      ~candidate:[ ("a_ns", 11.4); ("b_ns", 5.0); ("new_ns", 99.0) ]
  in
  Alcotest.(check bool) "passes" true (Bench_compare.passed v);
  Alcotest.(check int) "compared both shared metrics" 2 v.Bench_compare.compared

let test_check_fires_on_regression () =
  let v =
    Bench_compare.check ~threshold:0.15 ~baseline
      ~candidate:[ ("a_ns", 11.6); ("b_ns", 20.0) ]
  in
  Alcotest.(check bool) "fails" false (Bench_compare.passed v);
  (match v.Bench_compare.regressions with
  | [ (key, 10.0, 11.6) ] -> Alcotest.(check string) "key" "a_ns" key
  | _ -> Alcotest.fail "expected exactly the a_ns regression")

let test_check_fires_on_missing_metric () =
  let v =
    Bench_compare.check ~threshold:0.15 ~baseline
      ~candidate:[ ("a_ns", 10.0) ]
  in
  Alcotest.(check bool) "fails" false (Bench_compare.passed v);
  Alcotest.(check (list string)) "names it" [ "b_ns" ] v.Bench_compare.missing

let test_check_ignores_nonpositive_baseline () =
  let v =
    Bench_compare.check ~threshold:0.15
      ~baseline:[ ("zero_ns", 0.0) ]
      ~candidate:[ ("zero_ns", 50.0) ]
  in
  Alcotest.(check bool) "no ratio against zero" true (Bench_compare.passed v)

let test_row_round_trip () =
  let metrics = Bench_compare.metrics_of_doc doc in
  let line = Bench_compare.row ~label:{|pr "42"|} ~quick:true metrics in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  let back = parse line in
  Alcotest.(check (list (pair string (float 0.0))))
    "metrics survive the round trip" metrics
    (Bench_compare.metrics_of_row back);
  (match Json.member "label" back with
  | Some (Json.Str s) -> Alcotest.(check string) "label escaped" {|pr "42"|} s
  | _ -> Alcotest.fail "label missing");
  Alcotest.(check bool) "quick flag carried" true
    (Bench_compare.quick_of_doc back)

(* Allocated words are deterministic, so they gate at 2 % whatever
   threshold the wall-time keys use; other counters stay ungated. *)
let test_words_gate_tightly () =
  let doc =
    parse
      {|{"merge_scaling": {"1000": {"merge_ns": 5.0, "words": 100.0,
                                    "cost_evals": 7}}}|}
  in
  Alcotest.(check (list (pair string (float 0.0))))
    "words leaves are extracted, counters are not"
    [ ("merge_scaling.1000.merge_ns", 5.0); ("merge_scaling.1000.words", 100.0) ]
    (Bench_compare.metrics_of_doc doc);
  let baseline = [ ("s.words", 1000.0); ("s.merge_ns", 1000.0) ] in
  let within =
    Bench_compare.check ~threshold:0.15 ~baseline
      ~candidate:[ ("s.words", 1019.0); ("s.merge_ns", 1140.0) ]
  in
  Alcotest.(check bool) "+1.9 % words and +14 % time pass" true
    (Bench_compare.passed within);
  let over =
    Bench_compare.check ~threshold:0.15 ~baseline
      ~candidate:[ ("s.words", 1021.0); ("s.merge_ns", 1000.0) ]
  in
  match over.Bench_compare.regressions with
  | [ ("s.words", 1000.0, 1021.0) ] -> ()
  | _ -> Alcotest.fail "expected exactly the +2.1 % words regression"

let test_last_line () =
  Alcotest.(check (option string)) "last non-blank line" (Some "{\"b\": 2}")
    (Bench_compare.last_line "{\"a\": 1}\n{\"b\": 2}\n\n");
  Alcotest.(check (option string)) "empty file" None
    (Bench_compare.last_line "\n \n")

let () =
  Alcotest.run "bench_compare"
    [
      ( "gate",
        [
          Alcotest.test_case "metric extraction" `Quick test_metric_extraction;
          Alcotest.test_case "passes within threshold" `Quick
            test_check_passes_within_threshold;
          Alcotest.test_case "fires on regression" `Quick
            test_check_fires_on_regression;
          Alcotest.test_case "fires on missing metric" `Quick
            test_check_fires_on_missing_metric;
          Alcotest.test_case "ignores nonpositive baseline" `Quick
            test_check_ignores_nonpositive_baseline;
          Alcotest.test_case "row round trip" `Quick test_row_round_trip;
          Alcotest.test_case "last line" `Quick test_last_line;
          Alcotest.test_case "words gate at 2 %" `Quick test_words_gate_tightly;
        ] );
    ]
