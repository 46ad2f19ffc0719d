(* Perf-regression gate over benchmark JSON documents.

   The bench harness writes one JSON document per run (BENCH_greedy.json
   / bench_smoke.json); every committed PR appends one line to
   BENCH_trajectory.jsonl recording that run's timing metrics. This
   module compares a fresh candidate document against the latest
   trajectory row and fails when any shared timing metric slowed down by
   more than a threshold.

   Two kinds of keys participate. Keys ending in ["_ns"] are per-query
   nanosecond figures, directly comparable across runs of the same
   geometry (CI compares quick runs against quick baselines — the
   ["quick"] flags of both documents must agree); they gate at the
   caller's threshold (15 % by default), since wall time moves with the
   host. Keys named ["words"] are words allocated by a deterministic
   computation, which do not depend on the host at all; they gate at
   {!words_threshold}. Other counters, sizes and list-valued fragments
   (per-point scaling curves) are ignored; their shape changes
   legitimately PR to PR.

   A metric present in the baseline but missing from the candidate also
   fails the gate — a deleted benchmark silently un-gates its kernel. *)

module Json = Util.Obs.Json

(* ------------------------------------------------------------------ *)
(* Metric extraction.                                                  *)
(* ------------------------------------------------------------------ *)

let is_ns_key k =
  let n = String.length k in
  n > 3 && String.sub k (n - 3) 3 = "_ns"

let is_words_key k = k = "words"

let words_threshold = 0.02

(* The dotted path's last component decides a metric's threshold. *)
let is_words_path path =
  match String.rindex_opt path '.' with
  | Some i -> is_words_key (String.sub path (i + 1) (String.length path - i - 1))
  | None -> is_words_key path

(* Flatten nested objects to dotted paths ("kernel_micro.sig_p_ns"),
   keeping numeric [_ns] and [words] leaves. Lists are skipped: their elements have
   no stable identity across runs. *)
let metrics_of_doc doc =
  let out = ref [] in
  let rec walk prefix = function
    | Json.Obj fields ->
      List.iter
        (fun (k, v) ->
          let path = if prefix = "" then k else prefix ^ "." ^ k in
          match v with
          | Json.Num x when is_ns_key k || is_words_key k ->
            out := (path, x) :: !out
          | _ -> walk path v)
        fields
    | _ -> ()
  in
  walk "" doc;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Comparison.                                                         *)
(* ------------------------------------------------------------------ *)

type verdict = {
  regressions : (string * float * float) list; (* key, baseline, cand *)
  missing : string list; (* baseline metrics absent from the candidate *)
  compared : int; (* metrics present in both *)
}

let check ~threshold ~baseline ~candidate =
  let regressions = ref [] and missing = ref [] and compared = ref 0 in
  List.iter
    (fun (key, base) ->
      match List.assoc_opt key candidate with
      | None -> missing := key :: !missing
      | Some cand ->
        incr compared;
        (* base <= 0 would make the ratio meaningless; only positive
           baselines can regress. *)
        let threshold = if is_words_path key then words_threshold else threshold in
        if base > 0.0 && cand > base *. (1.0 +. threshold) then
          regressions := (key, base, cand) :: !regressions)
    baseline;
  {
    regressions = List.rev !regressions;
    missing = List.rev !missing;
    compared = !compared;
  }

let passed v = v.regressions = [] && v.missing = []

(* ------------------------------------------------------------------ *)
(* Trajectory rows.                                                    *)
(* ------------------------------------------------------------------ *)

(* One line of BENCH_trajectory.jsonl:
   {"label": ..., "quick": ..., "metrics": {<dotted key>: <ns>, ...}} *)

let row ~label ~quick metrics =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"label\": ";
  Json.add_string b label;
  Buffer.add_string b (Printf.sprintf ", \"quick\": %b, \"metrics\": {" quick);
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Json.add_string b k;
      Buffer.add_string b (Printf.sprintf ": %.12g" v))
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let quick_of_doc doc =
  match Json.member "quick" doc with Some (Json.Bool b) -> b | _ -> false

(* Decode one trajectory row back into what [check] wants. *)
let metrics_of_row r =
  match Json.member "metrics" r with
  | Some (Json.Obj fields) ->
    List.filter_map
      (fun (k, v) -> match v with Json.Num x -> Some (k, x) | _ -> None)
      fields
  | _ -> []

(* The baseline is the last non-blank line of the trajectory file. *)
let last_line s =
  String.split_on_char '\n' s
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l = "" then None else Some l)
  |> List.rev
  |> function
  | [] -> None
  | l :: _ -> Some l
