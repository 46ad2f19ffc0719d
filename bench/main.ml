(* Environment-driven wrapper around {!Bench_harness}, kept so dune rules
   and CI scripts can run the harness without flags:

   - [GCR_BENCH_QUICK=1]   shrink every experiment (smoke mode)
   - [GCR_BENCH_ONLY=a,b]  run a comma-separated subset of sections
   - [GCR_BENCH_OUT=path]  where the assembled JSON document goes

   `gcr bench` exposes the same knobs as proper flags. Any command-line
   argument, and any unknown section name, exits 64 (usage error): a flag
   read as nothing would run the full suite and overwrite the tracked
   BENCH_greedy.json. *)

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline
      "bench/main.exe takes no arguments (use `gcr bench --quick --only \
       SECTION --out FILE`, or set GCR_BENCH_QUICK, GCR_BENCH_ONLY and \
       GCR_BENCH_OUT)";
    exit 64
  end;
  let quick =
    match Sys.getenv_opt "GCR_BENCH_QUICK" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true
  in
  let only =
    match Sys.getenv_opt "GCR_BENCH_ONLY" with
    | None | Some "" -> None
    | Some s -> Some (String.split_on_char ',' (String.trim s))
  in
  let out =
    match Sys.getenv_opt "GCR_BENCH_OUT" with
    | None | Some "" -> "BENCH_greedy.json"
    | Some p -> p
  in
  try Bench_harness.run ~quick ?only ~out ()
  with Invalid_argument msg ->
    prerr_endline msg;
    exit 64
