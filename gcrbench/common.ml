(* Measurement plumbing shared by the benchmark workloads: clocks,
   quantiles, process statistics, traced spans and the result line. *)

let now = Util.Obs.Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between order statistics (0 on an empty list),
   so a median over an even count is the mean of the middle two. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Deterministic per-workload seed derivation: the benchmark seed picks
   placements and activity; the shape of each workload (sizes, options,
   request mix) is fixed, so runs on different seeds stay comparable. *)
let derive ~seed salt = 1 + abs ((seed * 1_000_003) + (salt * 7_919)) mod 1_000_000_007

(* ------------------------------------------------------------------ *)
(* Process statistics from /proc                                      *)
(* ------------------------------------------------------------------ *)

let read_proc path =
  (* /proc files report length 0: read line by line instead. *)
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_string b (input_line ic);
           Buffer.add_char b '\n'
         done
       with End_of_file -> ());
      Buffer.contents b)

(* Peak resident set size (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let status = read_proc (Printf.sprintf "/proc/%s/status" pid) in
  let kb =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
        | _ -> None)
      (String.split_on_char '\n' status)
  in
  float_of_int (Option.value kb ~default:0) /. 1024.0

(* User + system CPU seconds of a whole process (all threads), from
   /proc/<pid>/stat in USER_HZ = 100 ticks. *)
let cpu_seconds pid =
  let stat = read_proc (Printf.sprintf "/proc/%s/stat" pid) in
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* fields.(0) is stat field 3 (state); utime/stime are fields 14/15 *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.0

(* ------------------------------------------------------------------ *)
(* Traced spans                                                       *)
(* ------------------------------------------------------------------ *)

(* Accumulates the per-layer numbers of a traced run: span times and
   allocations by name (summed over every traced operation), counters
   from the Obs reports, and free-form samples keyed by metric name. *)
type trace = {
  spans : (string, float * float) Hashtbl.t;  (* time_s, words *)
  counters : (string, int) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
  mutable traced_ops : int;  (* set by the workload before reporting *)
}

let new_trace () =
  {
    spans = Hashtbl.create 32;
    counters = Hashtbl.create 32;
    samples = Hashtbl.create 32;
    traced_ops = 0;
  }

let sample tr name v =
  Hashtbl.replace tr.samples name
    (v :: Option.value (Hashtbl.find_opt tr.samples name) ~default:[])

let samples tr name =
  Option.value (Hashtbl.find_opt tr.samples name) ~default:[]

let rec add_span tr prefix (s : Util.Obs.span_report) =
  let name = if prefix = "" then s.name else prefix ^ "/" ^ s.name in
  let t, w = Option.value (Hashtbl.find_opt tr.spans name) ~default:(0.0, 0.0) in
  Hashtbl.replace tr.spans name (t +. s.time_s, w +. s.alloc_words);
  List.iter (add_span tr name) s.children

(* [traced tr f] runs [f] with Obs tracing on and folds its spans (and,
   unless [counts] is false, its counters) into [tr]; [f] wraps each
   public call it makes in [Util.Obs.span] so the layer boundaries show
   in the report. Probes outside an operation pass [~counts:false] so
   the per-operation counts stay those of the operation alone. *)
let traced ?(counts = true) tr f =
  let r, report = Util.Obs.run f in
  List.iter (add_span tr "") report.Util.Obs.spans;
  if counts then
    List.iter
      (fun (k, v) ->
        Hashtbl.replace tr.counters k
          (v + Option.value (Hashtbl.find_opt tr.counters k) ~default:0))
      report.Util.Obs.counters;
  r

let per_op tr v = ratio v (float_of_int (max 1 tr.traced_ops))

(* Milliseconds per traced operation spent in spans of this path. *)
let span_ms tr path =
  match Hashtbl.find_opt tr.spans path with
  | Some (t, _) -> per_op tr (t *. 1000.0)
  | None -> 0.0

let span_mw tr path =
  match Hashtbl.find_opt tr.spans path with
  | Some (_, w) -> per_op tr (w /. 1e6)
  | None -> 0.0

let counter tr name =
  float_of_int (Option.value (Hashtbl.find_opt tr.counters name) ~default:0)

(* ------------------------------------------------------------------ *)
(* Operation loop and result                                          *)
(* ------------------------------------------------------------------ *)

type result = {
  attempted : int;
  failed : int;
  failures : string list;  (* first few failure messages, for stderr *)
  metrics : (string * float) list;
  notes : string list;  (* printed before the result line *)
}

(* Failure accounting: a failing operation is counted and its message
   kept, never raised, so one bad operation cannot hide the rest. *)
type tally = { mutable attempted : int; mutable failed : int; mutable msgs : string list }

let new_tally () = { attempted = 0; failed = 0; msgs = [] }

let fail tally msg =
  tally.failed <- tally.failed + 1;
  if List.length tally.msgs < 8 then tally.msgs <- msg :: tally.msgs

let check tally what f =
  match f () with
  | () -> ()
  | exception e -> fail tally (what ^ ": " ^ Printexc.to_string e)

(* Run [op k] for k = 0, 1, ... until [seconds] have passed and at least
   [min_ops] operations ran; returns the count. *)
let loop ~seconds ~min_ops op =
  let t0 = now () in
  let rec go k =
    if k >= min_ops && now () -. t0 >= seconds then k
    else begin
      op k;
      go (k + 1)
    end
  in
  go 0

(* Set-up time is the median of repeated complete set-ups: at least
   three, and more while they add up to under [setup_budget_s] seconds,
   so a set-up of a few milliseconds is not measured by a few noisy
   samples (serve-mix's set-up of 0.1-0.2 s is repeated about twenty
   times). The last set-up's value is kept for the run;
   every earlier one is passed to [release], untimed. The heap is
   compacted afterwards, so every run starts timing from the same heap
   whatever garbage its set-ups left. *)
let setup_budget_s = ref 3.0

let repeated_setup ?(release = ignore) f =
  let rec go k spent acc =
    let v, dt = time f in
    let acc = dt :: acc and spent = spent +. dt in
    if k + 1 >= 3 && (spent >= !setup_budget_s || k + 1 >= 50) then (v, median acc)
    else begin
      release v;
      go (k + 1) spent acc
    end
  in
  let r = go 0 0.0 [] in
  Gc.compact ();
  r

let digest tree = Serve.Digest.to_hex (Serve.Digest.tree tree)

let w_pf tree = Gcr.Cost.w_total tree /. 1000.0

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~units r =
  let metrics =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v)
          (List.assoc name units))
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " metrics)
