(* The golden merge corpus: each case routes one fixed input and reduces
   the result to one line, "<key> <fields>". A merge list is digested
   as its node count and, per internal node, the node and its two
   children, through the service's FNV-1a core; a Flow.run case also
   records the tree digest, W at %.17g and the gate count. *)

let merges topo =
  let st = Serve.Digest.start () in
  let n = Clocktree.Topo.n_nodes topo in
  Serve.Digest.int st n;
  for v = 0 to n - 1 do
    match Clocktree.Topo.children topo v with
    | None -> ()
    | Some (a, b) ->
      Serve.Digest.int st v;
      Serve.Digest.int st a;
      Serve.Digest.int st b
  done;
  Serve.Digest.to_hex (Serve.Digest.value st)

let max_sinks = 600

let suite_spec name =
  let spec = Benchmarks.Rbench.by_name name in
  if spec.Benchmarks.Rbench.n_sinks > max_sinks then
    Benchmarks.Rbench.scaled spec ~n_sinks:max_sinks
  else spec

let grouped ~n ~groups =
  let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:n in
  Benchmarks.Suite.case_grouped ~stream_length:1_000
    { spec with Benchmarks.Rbench.n_groups = groups }

(* The analytic-profile input of the Activity_router unit test. *)
let analytic () =
  let n = 24 in
  let prng = Util.Prng.create 17 in
  let sinks =
    Array.init n (fun id ->
        let x = Util.Prng.range prng 0.0 1000.0 in
        let y = Util.Prng.range prng 0.0 1000.0 in
        let cap = Util.Prng.range prng 5.0 50.0 in
        Clocktree.Sink.make ~id ~loc:(Geometry.Point.make x y) ~cap ~module_id:id)
  in
  let rtl =
    Benchmarks.Workload.make_rtl ~n_modules:n ~n_instructions:10 ~usage:0.4 ~seed:4 ()
  in
  let profile = Activity.Profile.of_model (Benchmarks.Workload.cpu_model rtl) in
  let config = Gcr.Config.make ~die:(Geometry.Bbox.square ~side:1000.0) () in
  (config, profile, sinks)

(* A case is its key, the first field of its line, and the fields. *)
let suite_cases name =
  let spec = suite_spec name in
  let c = lazy (Benchmarks.Suite.case spec) in
  let key what = Printf.sprintf "%s/%s-%d" what name spec.Benchmarks.Rbench.n_sinks in
  let case what f =
    ( key what,
      fun () ->
        let { Benchmarks.Suite.config; profile; sinks; _ } = Lazy.force c in
        f config profile sinks )
  in
  let topo what f = case what (fun config profile sinks -> merges (f config profile sinks)) in
  let nn gate config _ sinks =
    let tech = config.Gcr.Config.tech in
    Clocktree.Nn.topology tech ~edge_gate:(gate tech) sinks
  in
  [
    topo "router" Gcr.Router.route_topology_only;
    topo "activity" Gcr.Activity_router.topology;
    topo "activity-tables" (fun config profile sinks ->
        Gcr.Activity_router.topology config (Activity.Profile.tables_only profile) sinks);
    topo "nn" (nn (fun _ -> None));
    topo "nn-buffer" (nn (fun tech -> Some tech.Clocktree.Tech.buffer));
    case "flow" (fun config profile sinks ->
        let tree = Gcr.Flow.run config profile sinks in
        Printf.sprintf "%s W=%.17g gates=%d"
          (Serve.Digest.to_hex (Serve.Digest.tree tree))
          (Gcr.Cost.w_total tree) (Gcr.Gated_tree.gate_count tree));
  ]

let grouped_cases groups =
  let n = 2_000 in
  let c = lazy (grouped ~n ~groups) in
  let topo what f =
    ( Printf.sprintf "%s/r1-%d-g%d" what n groups,
      fun () ->
        let { Benchmarks.Suite.config; profile; sinks; _ } = Lazy.force c in
        merges (f config profile sinks) )
  in
  [
    topo "grouped-flat" Gcr.Router.route_topology_only;
    topo "grouped-shard" (fun config profile sinks ->
        Gcr.Shard_router.route_topology config profile sinks);
  ]

let cases =
  List.concat_map suite_cases [ "r1"; "r2"; "r3"; "r4"; "r5" ]
  @ grouped_cases 16
  @ grouped_cases (2_000 / 96)
  @ [
      ( "activity-analytic/24",
        fun () ->
          let config, profile, sinks = analytic () in
          merges (Gcr.Activity_router.topology config profile sinks) );
    ]

let line (key, fields) = key ^ " " ^ fields ()
