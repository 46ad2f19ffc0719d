(* compare — CI perf-regression gate driver.

   compare check  TRAJECTORY.jsonl CANDIDATE.json [THRESHOLD]
     Compare the candidate's *_ns and words metrics against the last
     trajectory row. Exit 0 when every *_ns metric is within threshold
     (default 0.15 = +15%) and every words metric within +2%, 1 on any
     regression or vanished metric, 65 on unreadable/invalid input.
     An empty or absent trajectory passes vacuously (first PR).

   compare append TRAJECTORY.jsonl CANDIDATE.json LABEL
     Append the candidate's metrics as a new trajectory row. *)

module Json = Util.Obs.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_doc path =
  match Json.parse (read_file path) with
  | Ok doc -> doc
  | Error msg ->
    Printf.eprintf "compare: %s: %s\n" path msg;
    exit 65
  | exception Sys_error msg ->
    Printf.eprintf "compare: %s\n" msg;
    exit 65

let usage () =
  prerr_endline
    "usage: compare check TRAJECTORY.jsonl CANDIDATE.json [THRESHOLD]\n\
    \       compare append TRAJECTORY.jsonl CANDIDATE.json LABEL";
  exit 64

let check trajectory candidate threshold =
  let cand_doc = parse_doc candidate in
  let cand = Bench_compare.metrics_of_doc cand_doc in
  let base_row =
    if Sys.file_exists trajectory then
      Bench_compare.last_line (read_file trajectory)
    else None
  in
  match base_row with
  | None ->
    Printf.printf "compare: no baseline in %s; %d candidate metrics pass vacuously\n"
      trajectory (List.length cand);
    exit 0
  | Some line ->
    let row =
      match Json.parse line with
      | Ok r -> r
      | Error msg ->
        Printf.eprintf "compare: %s: bad trajectory row: %s\n" trajectory msg;
        exit 65
    in
    let baseline = Bench_compare.metrics_of_row row in
    let v = Bench_compare.check ~threshold ~baseline ~candidate:cand in
    let label =
      match Json.member "label" row with
      | Some (Json.Str s) -> s
      | _ -> "<unlabelled>"
    in
    Printf.printf
      "compare: %d metric(s) vs baseline %S, threshold +%.0f%% (words +%.0f%%)\n"
      v.compared label (threshold *. 100.0)
      (Bench_compare.words_threshold *. 100.0);
    List.iter
      (fun (k, b, c) ->
        Printf.printf "  REGRESSION %s: %.12g -> %.12g (%+.1f%%)\n" k b c
          (((c /. b) -. 1.0) *. 100.0))
      v.regressions;
    List.iter (fun k -> Printf.printf "  MISSING %s (present in baseline)\n" k)
      v.missing;
    if Bench_compare.passed v then begin
      print_endline "compare: PASS";
      exit 0
    end
    else begin
      print_endline "compare: FAIL";
      exit 1
    end

let append trajectory candidate label =
  let doc = parse_doc candidate in
  let metrics = Bench_compare.metrics_of_doc doc in
  if metrics = [] then begin
    Printf.eprintf "compare: %s holds no *_ns or words metrics; refusing to append\n"
      candidate;
    exit 65
  end;
  let row =
    Bench_compare.row ~label ~quick:(Bench_compare.quick_of_doc doc) metrics
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 trajectory in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (row ^ "\n"));
  Printf.printf "compare: appended %d metric(s) as %S to %s\n"
    (List.length metrics) label trajectory

let () =
  match Array.to_list Sys.argv with
  | [ _; "check"; trajectory; candidate ] -> check trajectory candidate 0.15
  | [ _; "check"; trajectory; candidate; thr ] -> (
    match float_of_string_opt thr with
    | Some t when t >= 0.0 -> check trajectory candidate t
    | _ -> usage ())
  | [ _; "append"; trajectory; candidate; label ] ->
    append trajectory candidate label
  | _ -> usage ()
