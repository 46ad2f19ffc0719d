type reduction = No_reduction | Greedy | Rules | Fraction of float

type sizing = No_sizing | Tapered | Uniform of float | Proportional

type shards = Flat | Auto_shards | Shards of int

type gate_share = No_share | Share of { min_instances : int; eps : int }

type eco = No_eco | Eco of { threshold : float }

type options = {
  skew_budget : float;
  reduction : reduction;
  sizing : sizing;
  shards : shards;
  gate_share : gate_share;
  eco : eco;
}

let default =
  {
    skew_budget = 0.0;
    reduction = Greedy;
    sizing = No_sizing;
    shards = Flat;
    gate_share = No_share;
    eco = No_eco;
  }

let apply_reduction options tree =
  match options.reduction with
  | No_reduction -> tree
  | Greedy -> Gate_reduction.reduce_greedy tree
  | Rules -> Gate_reduction.reduce_rules tree
  | Fraction fraction -> Gate_reduction.reduce_fraction tree ~fraction

let apply_share options tree =
  match options.gate_share with
  | No_share -> tree
  | Share { min_instances; eps } -> Gate_share.share ~min_instances ~eps tree

let apply_sizing options tree =
  match options.sizing with
  | No_sizing -> tree
  | Tapered -> Sizing.tapered tree
  | Uniform k -> Sizing.uniform tree k
  | Proportional -> Sizing.proportional tree

let skew_budget options =
  if options.skew_budget > 0.0 then Some options.skew_budget else None

let route_with_options options config profile sinks =
  let skew_budget = skew_budget options in
  match options.shards with
  | Flat -> Router.route ?skew_budget config profile sinks
  | Auto_shards -> Shard_router.route ?skew_budget config profile sinks
  | Shards s -> Shard_router.route ?skew_budget ~shards:s config profile sinks

(* The post-route stages in pipeline order: span name, the degradation
   the checked run takes when the stage fails, and the pass itself. *)
let stages =
  [
    ( "reduce",
      "skipping gate reduction, keeping the fully gated tree",
      apply_reduction );
    ("share", "skipping gate sharing, keeping per-subtree enables", apply_share);
    ("size", "skipping gate sizing, keeping unit scales", apply_sizing);
  ]

let optimize options tree =
  List.fold_left
    (fun tree (name, _, f) -> Util.Obs.span ~name (fun () -> f options tree))
    tree stages

(* ------------------------------------------------------------------ *)
(* Checked pipeline                                                   *)
(* ------------------------------------------------------------------ *)

type mode = Default | Paranoid

type limits = { wall_seconds : float option; max_merge_steps : int option }

let no_limits = { wall_seconds = None; max_merge_steps = None }

type event = { stage : string; action : string; error : Util.Gcr_error.t }

(* Ladder attempts and degradation events, mirrored into the run report
   so a traced run shows how far down the ladder it went. *)
let rungs_counter = Util.Obs.counter "flow.rungs"

let degraded_counter = Util.Obs.counter "flow.degraded"

let pp_event ppf e =
  Format.fprintf ppf "[%s] %s (after: %a)" e.stage e.action Util.Gcr_error.pp
    e.error

(* Input validation: every check appends rather than aborting, so a bad
   input is reported with all its problems at once. *)
let validate_inputs config profile sinks options =
  let errs = ref [] in
  let bad what fmt =
    Printf.ksprintf
      (fun detail ->
        errs := Util.Gcr_error.Degenerate_input { what; detail } :: !errs)
      fmt
  in
  let n = Array.length sinks in
  if n = 0 then bad "sinks" "empty sink array: nothing to route"
  else begin
    (try Clocktree.Sink.validate_array sinks
     with Invalid_argument m -> bad "sinks" "%s" m);
    let n_mods = Activity.Profile.n_modules profile in
    Array.iter
      (fun (s : Clocktree.Sink.t) ->
        let finite what v =
          if not (Float.is_finite v) then
            bad "sinks" "sink %d: non-finite %s (%h)" s.Clocktree.Sink.id what v
        in
        finite "x coordinate" s.Clocktree.Sink.loc.Geometry.Point.x;
        finite "y coordinate" s.Clocktree.Sink.loc.Geometry.Point.y;
        finite "load capacitance" s.Clocktree.Sink.cap;
        if Float.is_finite s.Clocktree.Sink.cap && s.Clocktree.Sink.cap <= 0.0
        then
          bad "sinks" "sink %d: non-positive load capacitance %g"
            s.Clocktree.Sink.id s.Clocktree.Sink.cap;
        if s.Clocktree.Sink.module_id < 0 || s.Clocktree.Sink.module_id >= n_mods
        then
          bad "sinks" "sink %d: module id %d outside the profile's universe [0, %d)"
            s.Clocktree.Sink.id s.Clocktree.Sink.module_id n_mods)
      sinks
  end;
  (try Clocktree.Tech.validate config.Config.tech
   with Invalid_argument m -> bad "tech" "%s" m);
  if not (Float.is_finite options.skew_budget && options.skew_budget >= 0.0)
  then bad "options" "skew budget %g must be finite and non-negative"
      options.skew_budget;
  (match options.reduction with
   | Fraction f when not (Float.is_finite f && f >= 0.0 && f <= 1.0) ->
     bad "options" "reduction fraction %g outside [0, 1]" f
   | _ -> ());
  (match options.sizing with
   | Uniform k when not (Float.is_finite k && k > 0.0) ->
     bad "options" "uniform sizing factor %g must be finite and positive" k
   | _ -> ());
  (match options.shards with
   | Shards s when s < 1 -> bad "options" "shard count %d must be positive" s
   | _ -> ());
  (match options.gate_share with
   | Share { min_instances; _ } when min_instances < 0 ->
     bad "options" "gate-share min_instances %d must be non-negative"
       min_instances
   | Share { eps; _ } when eps < 0 ->
     bad "options" "gate-share eps %d must be non-negative" eps
   | _ -> ());
  (match options.eco with
   | Eco { threshold } when not (Float.is_finite threshold && threshold > 0.0)
     ->
     bad "options" "eco drift threshold %g must be finite and positive"
       threshold
   | _ -> ());
  List.rev !errs

(* Skew slack for the last-rung retry when the exact zero-skew embedding
   fails verification: 1e-3 of the Elmore scale r*c*span^2 of the sink
   bounding box — small against any real delay, large against rounding. *)
let retry_skew_budget config sinks =
  let tech = config.Config.tech in
  let inf = infinity in
  let x0 = ref inf and x1 = ref neg_infinity in
  let y0 = ref inf and y1 = ref neg_infinity in
  Array.iter
    (fun (s : Clocktree.Sink.t) ->
      let p = s.Clocktree.Sink.loc in
      if p.Geometry.Point.x < !x0 then x0 := p.Geometry.Point.x;
      if p.Geometry.Point.x > !x1 then x1 := p.Geometry.Point.x;
      if p.Geometry.Point.y < !y0 then y0 := p.Geometry.Point.y;
      if p.Geometry.Point.y > !y1 then y1 := p.Geometry.Point.y)
    sinks;
  let span = Float.max (!x1 -. !x0) (!y1 -. !y0) in
  let span = if Float.is_finite span && span > 0.0 then span else 1.0 in
  1e-3
  *. tech.Clocktree.Tech.unit_res
  *. tech.Clocktree.Tech.unit_cap
  *. span *. span

type checked = {
  tree : Gated_tree.t;
  rung : string;
  degraded : event list;
}

let run_checked_info ?(mode = Default) ?(limits = no_limits)
    ?(on_event = fun (_ : event) -> ()) ?(options = default) config profile
    sinks =
  (* Every degradation event is both forwarded to the caller's callback
     and kept, in emission order, for the [checked] record — a server
     answering on behalf of a one-shot run needs to tag the response with
     how far down the ladder it went without wiring a callback through
     its scheduler. *)
  let events = ref [] in
  let on_event e =
    Util.Obs.incr degraded_counter;
    events := e :: !events;
    on_event e
  in
  match
    Util.Obs.span ~name:"validate" (fun () ->
        validate_inputs config profile sinks options)
  with
  | _ :: _ as errs -> Error errs
  | [] ->
    let n = Array.length sinks in
    (match limits.max_merge_steps with
     | Some m when n - 1 > m ->
       Error
         [
           Util.Gcr_error.Resource_limit
             {
               stage = "route";
               limit = Printf.sprintf "max_merge_steps = %d" m;
               detail =
                 Printf.sprintf "%d sinks need %d greedy merges" n (n - 1);
             };
         ]
     | _ ->
       (* Monotonic deadline arithmetic: Obs.Clock never steps backwards
          under NTP adjustment, and [>=] makes a zero budget exhaust
          deterministically (the wall clock could tick between arming and
          checking, or not). *)
       let deadline =
         match limits.wall_seconds with
         | None -> None
         | Some s -> Some (Util.Obs.Clock.now () +. s)
       in
       let out_of_time () =
         match deadline with
         | None -> false
         | Some d -> Util.Obs.Clock.now () >= d
       in
       let time_error stage =
         Util.Gcr_error.Resource_limit
           {
             stage;
             limit =
               Printf.sprintf "wall clock = %gs"
                 (Option.value limits.wall_seconds ~default:0.0);
             detail = "budget exhausted before the stage could run";
           }
       in
       (* Stage boundary check: the default mode only asserts the cost
          totals finite (cheap); paranoid re-derives every invariant. *)
       let boundary stage tree =
         match mode with
         | Paranoid -> Verify.structural tree
         | Default ->
           Util.Gcr_error.check_finite ~stage ~context:"total switched capacitance"
             (Cost.w_total tree)
       in
       let attempt stage f =
         Util.Obs.span ~name:stage (fun () ->
             Util.Gcr_error.guard ~stage (fun () ->
                 let t = f () in
                 boundary stage t;
                 t))
       in
       let skew_budget = skew_budget options in
       (* The routing degradation ladder, in order: the sharded engine
          (only when sharding is requested; a failure there degrades to
          the flat route, same answer contract, more wall time); the flat
          NN-heap engine; the same engine with the signature kernel
          disabled (direct IFT/IMATT scans); finally a bounded-skew retry
          absorbing an infeasible exact zero-skew embedding. *)
       let retry_budget =
         Some
           (Float.max
              (Option.value skew_budget ~default:0.0)
              (retry_skew_budget config sinks))
       in
       let flat profile skew_budget () =
         Router.route ?skew_budget config profile sinks
       in
       let tables = Activity.Profile.tables_only profile in
       let rungs =
         (match options.shards with
          | Flat -> []
          | Auto_shards | Shards _ ->
            [
              ( "route:sharded",
                "routing region-parallel with the sharded engine",
                fun () -> route_with_options options config profile sinks );
            ])
         @ [
           ("route", "routing with the NN-heap engine", flat profile skew_budget);
           ( "route:tables",
             "disabling the signature kernel: direct IFT/IMATT table scans",
             flat tables skew_budget );
           ( "route:tables:skew-budget",
             "retrying with a relaxed skew budget",
             flat tables retry_budget );
         ]
       in
       (* The wall budget is re-checked between every pair of rungs (and
          again before each optional stage below): a rung that burns the
          whole budget and then fails must not let the next rung start —
          with [wall_seconds = Some 0.] the pipeline exhausts before the
          first rung, deterministically, because the deadline compare is
          [>=] on the monotonic clock. A rung that {e succeeds} past the
          deadline still wins: a complete tree is a better answer than a
          timeout, and only the optional stages after it are skipped. *)
       let rec ladder errors = function
         | [] -> Error (List.rev errors)
         | (stage, _action, f) :: rest ->
           if out_of_time () then Error (List.rev (time_error stage :: errors))
           else begin
             Util.Obs.incr rungs_counter;
             match attempt stage f with
             | Ok tree -> Ok (stage, tree)
             | Error e ->
               (match rest with
                | (next_stage, next_action, _) :: _ ->
                  on_event { stage = next_stage; action = next_action; error = e }
                | [] -> ());
               ladder (e :: errors) rest
           end
       in
       (match ladder [] rungs with
        | Error _ as err -> err
        | Ok (rung, routed) ->
          (* The post-route stages degrade to "skip the stage": the
             routed tree is already a correct (if costlier) answer, so a
             failing optimisation pass is dropped, not fatal. *)
          let optional stage action f tree =
            if out_of_time () then begin
              on_event
                {
                  stage;
                  action = "skipped: wall-clock budget exhausted; returning \
                            the partial (unoptimised) result";
                  error = time_error stage;
                };
              tree
            end
            else
              match attempt stage (fun () -> f tree) with
              | Ok t -> t
              | Error e ->
                on_event { stage; action; error = e };
                tree
          in
          let tree =
            List.fold_left
              (fun tree (stage, action, f) ->
                optional stage action (f options) tree)
              routed stages
          in
          Ok { tree; rung; degraded = List.rev !events }))

let run_checked ?mode ?limits ?on_event ?options config profile sinks =
  Result.map
    (fun c -> c.tree)
    (run_checked_info ?mode ?limits ?on_event ?options config profile sinks)

(* The unchecked entry point is the checked run made strict: any
   degradation, even one the ladder absorbed, raises its typed error. *)
let run ?options config profile sinks =
  match run_checked_info ?options config profile sinks with
  | Ok { tree; degraded = []; _ } -> tree
  | Ok { degraded = { error = e; _ } :: _; _ } | Error (e :: _) ->
    Util.Gcr_error.raise_t e
  | Error [] -> assert false

let label options =
  let r =
    match options.reduction with
    | No_reduction -> ""
    | Greedy -> "+greedy"
    | Rules -> "+rules"
    | Fraction f -> Printf.sprintf "+%.0f%%" (100.0 *. f)
  in
  let s =
    match options.sizing with
    | No_sizing -> ""
    | Tapered -> "+tapered"
    | Uniform k -> Printf.sprintf "+uniform %g" k
    | Proportional -> "+proportional"
  in
  let sh =
    match options.shards with
    | Flat -> ""
    | Auto_shards -> "+sharded"
    | Shards n -> Printf.sprintf "+sharded:%d" n
  in
  let gs =
    match options.gate_share with
    | No_share -> ""
    | Share { min_instances = 1; eps = 0 } -> "+share"
    | Share { min_instances; eps } ->
      Printf.sprintf "+share:%d,%d" min_instances eps
  in
  let e =
    match options.eco with
    | No_eco -> ""
    | Eco { threshold } -> Printf.sprintf "+eco:%g" threshold
  in
  "gated" ^ r ^ s ^ sh ^ gs ^ e
