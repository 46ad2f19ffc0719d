(* Conformance subsystem: fuzz smoke, the exhaustive Flow matrix, seed-file
   round-trips, oracle unit behavior, and the mutation smoke test proving
   an injected skew bug is caught, shrunk and dumped as a reproducer. *)

module S = Conformance.Scenario
module F = Conformance.Fuzz

let scenario_at seed tag = S.generate (Util.Prng.create seed) ~tag

(* First seed >= start whose scenario has at least [min_sinks] sinks. *)
let rec scenario_with_sinks ?(min_sinks = 10) start tag =
  let sc = scenario_at start tag in
  if Array.length sc.S.sinks >= min_sinks then sc
  else scenario_with_sinks ~min_sinks (start + 1) tag

let contains ~affix s = Astring.String.is_infix ~affix s

(* ------------------------------------------------------------------ *)
(* Fuzz smoke                                                         *)
(* ------------------------------------------------------------------ *)

let test_fuzz_smoke () =
  let stats = F.run ~count:25 ~seed:7 () in
  Alcotest.(check int) "scenarios" 25 stats.F.scenarios;
  Alcotest.(check int) "failures" 0 (List.length stats.F.failures);
  Alcotest.(check bool) "several coverage buckets" true
    (List.length stats.F.coverage > 3);
  Alcotest.(check int) "coverage counts sum to scenarios" 25
    (List.fold_left (fun acc (_, n) -> acc + n) 0 stats.F.coverage)

(* ------------------------------------------------------------------ *)
(* Exhaustive Flow matrix                                             *)
(* ------------------------------------------------------------------ *)

let test_flow_matrix () =
  let sc = scenario_with_sinks 42 "matrix" in
  let config = S.config sc in
  let profile = S.profile sc in
  let tech = sc.S.tech in
  let budget =
    tech.Clocktree.Tech.unit_res *. tech.Clocktree.Tech.unit_cap
    *. sc.S.die_side *. sc.S.die_side *. 0.01
  in
  List.iter
    (fun reduction ->
      List.iter
        (fun sizing ->
          List.iter
            (fun skew_budget ->
              let options =
                { Gcr.Flow.skew_budget; reduction; sizing;
                  shards = Gcr.Flow.Flat; gate_share = Gcr.Flow.No_share;
                  eco = Gcr.Flow.No_eco }
              in
              let tree = Gcr.Flow.run ~options config profile sc.S.sinks in
              Gsim.Check.validate tree)
            [ 0.0; budget ])
        [
          Gcr.Flow.No_sizing; Gcr.Flow.Tapered; Gcr.Flow.Uniform 1.5;
          Gcr.Flow.Proportional;
        ])
    [ Gcr.Flow.No_reduction; Gcr.Flow.Greedy; Gcr.Flow.Rules;
      Gcr.Flow.Fraction 0.5 ]

(* ------------------------------------------------------------------ *)
(* Scenario seed-file round-trip                                      *)
(* ------------------------------------------------------------------ *)

let test_scenario_roundtrip () =
  for seed = 0 to 19 do
    let sc = scenario_at seed (Printf.sprintf "roundtrip %d" seed) in
    let text = S.render sc in
    let sc2 = S.parse text in
    Alcotest.(check string) "render fixpoint" text (S.render sc2);
    Alcotest.(check bool) "sinks equal" true (sc2.S.sinks = sc.S.sinks);
    Alcotest.(check bool) "stream equal" true (sc2.S.stream = sc.S.stream);
    Alcotest.(check bool) "options equal" true (sc2.S.options = sc.S.options);
    Alcotest.(check bool) "tech equal" true (sc2.S.tech = sc.S.tech);
    Alcotest.(check (float 0.0)) "die side" sc.S.die_side sc2.S.die_side;
    Alcotest.(check int) "controllers" sc.S.k_controllers sc2.S.k_controllers;
    Alcotest.(check (float 0.0)) "control weight" sc.S.control_weight
      sc2.S.control_weight;
    Alcotest.(check string) "tag" sc.S.tag sc2.S.tag
  done

let test_scenario_parse_errors () =
  let sc = scenario_at 5 "errors" in
  let text = S.render sc in
  let expect_error mangled =
    match S.parse mangled with
    | _ -> Alcotest.fail "expected Parse.Error"
    | exception Formats.Parse.Error _ -> ()
  in
  (* missing header line *)
  expect_error
    (String.concat "\n"
       (List.filter
          (fun l -> not (contains ~affix:"skew-budget" l))
          (String.split_on_char '\n' text)));
  (* unterminated section *)
  expect_error
    (String.concat "\n"
       (List.filter
          (fun l -> l <> "end stream")
          (String.split_on_char '\n' text)))

(* ------------------------------------------------------------------ *)
(* Invariant and oracle unit behavior                                 *)
(* ------------------------------------------------------------------ *)

let all_gated_tree sc =
  let options =
    { sc.S.options with Gcr.Flow.reduction = Gcr.Flow.No_reduction;
      sizing = Gcr.Flow.No_sizing }
  in
  Gcr.Flow.run ~options (S.config sc) (S.profile sc) sc.S.sinks

(* A copy of the tree's embedding with one leaf edge lengthened: the
   Elmore recomputation must see the skew. *)
let tampered_embed (tree : Gcr.Gated_tree.t) =
  let e = Clocktree.Embed.copy tree.Gcr.Gated_tree.embed in
  Clocktree.Mseg.set_edge_len e.Clocktree.Embed.mseg 0
    (Clocktree.Mseg.edge_len e.Clocktree.Embed.mseg 0 +. 40.0);
  e

let test_zero_skew_detects_tamper () =
  let sc = { (scenario_with_sinks 11 "tamper") with S.options =
               { Gcr.Flow.skew_budget = 0.0; reduction = Gcr.Flow.No_reduction;
                 sizing = Gcr.Flow.No_sizing; shards = Gcr.Flow.Flat;
                 gate_share = Gcr.Flow.No_share; eco = Gcr.Flow.No_eco } }
  in
  let tree = all_gated_tree sc in
  Gcr.Verify.zero_skew tree;
  match Gcr.Verify.zero_skew ~embed:(tampered_embed tree) tree with
  | () -> Alcotest.fail "tampered embedding accepted"
  | exception Util.Gcr_error.Error err ->
    Alcotest.(check bool) "names the invariant" true
      (contains ~affix:"zero_skew" (Util.Gcr_error.to_string err))

let test_same_tree_detects_kind_flip () =
  let sc = scenario_with_sinks 13 "kinds" in
  let tree = all_gated_tree sc in
  Conformance.Oracles.same_tree ~what:"identity" tree tree;
  let kinds = Gcr.Gated_tree.kinds_copy tree in
  let flip =
    let found = ref (-1) in
    Array.iteri
      (fun v k -> if !found < 0 && k = Gcr.Gated_tree.Gated then found := v)
      kinds;
    !found
  in
  Alcotest.(check bool) "has a gate to flip" true (flip >= 0);
  kinds.(flip) <- Gcr.Gated_tree.Plain;
  let other = Gcr.Gated_tree.rebuild_with_kinds tree kinds in
  match Conformance.Oracles.same_tree ~what:"flip" tree other with
  | () -> Alcotest.fail "kind flip not detected"
  | exception Util.Gcr_error.Error err ->
    Alcotest.(check bool) "names same_tree" true
      (contains ~affix:"same_tree" (Util.Gcr_error.to_string err))

let test_oracles_pass_on_fixed_scenario () =
  let sc = scenario_with_sinks 17 "oracles" in
  let tree = all_gated_tree sc in
  Conformance.Oracles.analytic_vs_simulated tree;
  Conformance.Oracles.signature_vs_tables tree;
  Conformance.Oracles.engine_vs_dense sc;
  Conformance.Oracles.domains_determinism sc

(* ------------------------------------------------------------------ *)
(* Mutation smoke test: injected skew bug -> caught, shrunk, dumped    *)
(* ------------------------------------------------------------------ *)

let buggy_check sc =
  let tree = Gcr.Flow.run ~options:sc.S.options (S.config sc) (S.profile sc) sc.S.sinks in
  Gcr.Verify.zero_skew ~embed:(tampered_embed tree) tree

let test_mutation_caught_and_shrunk () =
  let out_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcr-fuzz-mutation-%d" (Unix.getpid ()))
  in
  let stats = F.run ~out_dir ~check:buggy_check ~count:10 ~seed:3 () in
  Alcotest.(check bool) "injected bug caught" true (stats.F.failures <> []);
  let f = List.hd stats.F.failures in
  Alcotest.(check bool) "failure names zero_skew" true
    (contains ~affix:"zero_skew" f.F.error);
  (* the bug fires on any zero-budget scenario, so shrinking bottoms out *)
  Alcotest.(check int) "shrunk to the minimal sink count" 2
    (Array.length f.F.shrunk.S.sinks);
  Alcotest.(check bool) "stream shrunk" true
    (Array.length f.F.shrunk.S.stream <= 4);
  Alcotest.(check bool) "options defaulted" true
    (f.F.shrunk.S.options.Gcr.Flow.reduction = Gcr.Flow.No_reduction
     && f.F.shrunk.S.options.Gcr.Flow.sizing = Gcr.Flow.No_sizing
     && f.F.shrunk.S.options.Gcr.Flow.skew_budget = 0.0);
  let path =
    match f.F.seed_file with
    | Some p -> p
    | None -> Alcotest.fail "no reproducer dumped"
  in
  Alcotest.(check bool) "reproducer file exists" true (Sys.file_exists path);
  let loaded = S.load path in
  Alcotest.(check bool) "reproducer still fails" true
    (F.fails buggy_check loaded <> None);
  Alcotest.(check bool) "reproducer passes the real check" true
    (F.fails F.check loaded = None)

let test_minimize_preserves_failure () =
  (* minimize must return a scenario that still fails, for any failing
     check, here one that trips only above a size threshold *)
  let check sc = if Array.length sc.S.sinks > 4 then failwith "too big" in
  let sc = scenario_with_sinks ~min_sinks:20 29 "threshold" in
  let shrunk = F.minimize check sc in
  Alcotest.(check bool) "still fails" true (F.fails check shrunk <> None);
  Alcotest.(check int) "minimal failing size" 5 (Array.length shrunk.S.sinks)

(* Fuzz seed 0, case 224: the greedy scratch route under the drifted
   profile is the outlier (W 1459.2), while the local repair and the old
   topology re-embedded under that profile agree (W 1024.0). The ECO
   oracle must accept a repair that beats scratch this way. *)
let eco_cheaper_than_scratch = {|
# gcr conformance scenario (re-runnable fuzz reproducer)
tag seed 0 case 224
die 500
controllers 4
control-weight 1
tech 0.10000000000000001 0.20000000000000001 0.59999999999999998 20 400 30000 60 10 400 30000 30
skew-budget 0
reduction none
sizing none
shards flat
gate-share none
eco 0.080000000000000002
test-en 0
begin sinks
# id x y cap module
0 143.25 294.5 25.5 5
1 251.75 335.5 44.75 13
2 128.5 19.75 12.25 0
3 190.75 218 44.75 6
4 57 166 22.75 1
5 408.5 55.25 23.75 12
6 163.5 8 41 6
7 281 210.25 50 10
8 60 429.25 37.25 4
9 104.5 196 15 5
10 423.25 408 27.75 9
11 310 283.75 33.5 13
12 429 175.75 39.75 4
13 48 59 28.75 7
14 292 12.25 11.5 3
15 117.75 338 46.5 3
end sinks
begin rtl
modules M1 M2 M3 M4 M5 M6 M7 M8 M9 M10 M11 M12 M13 M14
I1: M2 M3 M5 M12 M13 M14
I2: M3 M6 M9 M10 M11 M12 M14
end rtl
begin stream
I1 I2 I2 I1 I1 I1 I1 I1 I1 I2 I2 I2 I2 I2 I1 I1 I1 I2 I2 I2
I2 I2 I1 I1 I1 I2 I2 I2 I2 I1 I1 I1 I2 I2 I2 I2 I2 I2 I2 I1
I1 I1 I1 I2 I2 I2 I2 I1 I1 I2 I2 I2 I1 I1 I1 I1 I1 I2 I2 I1
I1 I1 I1 I2 I2 I2 I2 I1 I1 I1 I1 I1 I1 I2 I2 I2 I2 I1 I2 I2
I2 I2 I1 I1 I1 I2 I2 I2 I2 I2 I1 I1 I2 I1 I2 I2 I2 I2 I2 I2
I2 I2 I2 I2 I2 I2 I2 I2 I2 I1 I2 I2 I2 I2 I2 I2 I2 I1 I1 I2
I2 I2 I2 I2 I2 I2 I2 I2 I2 I2 I2 I2 I2 I2 I2
end stream
|}

let test_eco_repair_beats_outlier_scratch () =
  let sc = S.parse ~source:"seed0-case224" eco_cheaper_than_scratch in
  Alcotest.(check int) "sinks" 16 (Array.length sc.S.sinks);
  match F.fails F.check sc with
  | None -> ()
  | Some msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Gate reduction vs. the whole-tree reference reducer                 *)
(* ------------------------------------------------------------------ *)

let routed_case ?n name =
  let spec = Benchmarks.Rbench.by_name name in
  let spec =
    match n with
    | None -> spec
    | Some n_sinks -> Benchmarks.Rbench.scaled spec ~n_sinks
  in
  let c = Benchmarks.Suite.case spec in
  Gcr.Router.route c.Benchmarks.Suite.config c.Benchmarks.Suite.profile
    c.Benchmarks.Suite.sinks

let check_kinds what expected actual =
  Array.iteri
    (fun v k ->
      if k <> actual.(v) then
        Alcotest.failf "%s: node %d differs from the reference" what v)
    expected

let test_reduce_matches_reference_rbench () =
  List.iter
    (fun name -> Conformance.Oracles.reduce_matches_reference (routed_case name))
    [ "r1"; "r2"; "r3" ]

let test_reduce_fraction_matches_reference () =
  let tree = routed_case ~n:600 "r1" in
  let g = Gcr.Gated_tree.gate_count tree in
  List.iter
    (fun fraction ->
      let remove = int_of_float (Float.round (fraction *. float_of_int g)) in
      check_kinds
        (Printf.sprintf "reduce_fraction %.2f" fraction)
        (Conformance.Reduce_reference.count_kinds tree ~remove)
        (Gcr.Gated_tree.kinds_copy
           (Gcr.Gate_reduction.reduce_fraction tree ~fraction)))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

(* Four sinks mirrored about the controller at the die centre, each in
   its own module, under a stream whose mirror image is its reversal: the
   two halves have equal probabilities, toggle rates, edge lengths and
   star wires, so mirrored gates have bit-equal removal gains. *)
let test_reduce_tie_goes_to_lower_id () =
  let sink id x =
    Clocktree.Sink.make ~id ~loc:(Geometry.Point.make x 500.0) ~cap:10.0 ~module_id:id
  in
  let sinks = [| sink 0 400.0; sink 1 450.0; sink 2 550.0; sink 3 600.0 |] in
  let rtl = Activity.Rtl.of_lists ~n_modules:4 [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ] in
  let stream =
    Activity.Instr_stream.make rtl (Array.init 40 (fun i -> i mod 4))
  in
  let profile = Activity.Profile.of_stream stream in
  let config = Gcr.Config.make ~die:(Geometry.Bbox.square ~side:1000.0) () in
  let topo = Clocktree.Topo.of_merges ~n_sinks:4 [| (0, 1); (2, 3); (4, 5) |] in
  let tree =
    Gcr.Gated_tree.build config profile sinks topo ~kind:(fun _ -> Gcr.Gated_tree.Gated)
  in
  let gated = List.filter (Gcr.Gated_tree.is_gated tree) [ 0; 1; 2; 3; 4; 5 ] in
  let gains = List.map (fun v -> (v, Gcr.Gate_reduction.removal_gain tree v)) gated in
  let best = List.fold_left (fun m (_, g) -> Float.min m g) infinity gains in
  let tied =
    List.filter_map
      (fun (v, g) ->
        if Int64.equal (Int64.bits_of_float g) (Int64.bits_of_float best) then Some v
        else None)
      gains
  in
  Alcotest.(check bool)
    (Printf.sprintf "the minimum gain %.17g is shared by %d gates" best
       (List.length tied))
    true
    (List.length tied >= 2);
  let first = List.fold_left Int.min max_int tied in
  let reduced = Gcr.Gate_reduction.reduce_count tree ~remove:1 in
  Alcotest.(check bool) "the lower id is demoted" false
    (Gcr.Gated_tree.is_gated reduced first);
  List.iter
    (fun v ->
      if v <> first then
        Alcotest.(check bool)
          (Printf.sprintf "gate %d kept" v)
          true
          (Gcr.Gated_tree.is_gated reduced v))
    gated;
  check_kinds "reduce_count ~remove:1"
    (Conformance.Reduce_reference.count_kinds tree ~remove:1)
    (Gcr.Gated_tree.kinds_copy reduced);
  Conformance.Oracles.reduce_matches_reference tree

let test_rules_match_recursive_reference () =
  let grouped =
    let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:2000 in
    let c = Benchmarks.Suite.case_grouped spec in
    Gcr.Router.route c.Benchmarks.Suite.config c.Benchmarks.Suite.profile
      c.Benchmarks.Suite.sinks
  in
  List.iter
    (fun (what, tree) ->
      check_kinds ("reduce_rules " ^ what)
        (Conformance.Reduce_reference.rules_kinds tree)
        (Gcr.Gated_tree.kinds_copy (Gcr.Gate_reduction.reduce_rules tree)))
    [
      ("r1", routed_case "r1");
      ("r2", routed_case "r2");
      ("r3", routed_case "r3");
      ("r1 grouped at 2000", grouped);
    ]

(* Each removal re-sums only the absorbing domain, so the edge caps added
   per tree node stay flat as n doubles (15-22 on these trees; the
   whole-tree reference adds thousands per node). *)
let test_reduce_sum_terms_linear () =
  List.iter
    (fun n ->
      let tree = routed_case ~n "r1" in
      let _, report = Util.Obs.run (fun () -> Gcr.Gate_reduction.reduce_greedy tree) in
      let terms =
        Option.value ~default:0 (List.assoc_opt "reduce.sum_terms" report.Util.Obs.counters)
      in
      let nodes = Clocktree.Topo.n_nodes tree.Gcr.Gated_tree.topo in
      let per_node = float_of_int terms /. float_of_int nodes in
      Alcotest.(check bool)
        (Printf.sprintf "r1 at %d: %.1f sum terms per node <= 48" n per_node)
        true
        (terms > 0 && per_node <= 48.0))
    [ 1000; 2000 ]

(* ------------------------------------------------------------------ *)
(* Flat router: spatial index vs. the exhaustive scan                  *)
(* ------------------------------------------------------------------ *)

let r1_case n =
  let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:n in
  Benchmarks.Suite.case spec

let test_router_matches_scan_r1 () =
  List.iter
    (fun n ->
      let c = r1_case n in
      Conformance.Oracles.router_matches_scan c.Benchmarks.Suite.config
        c.Benchmarks.Suite.profile c.Benchmarks.Suite.sinks)
    [ 300; 600 ]

(* Three sinks in a row, each in its own module, the outer two mirrored
   about the middle one and the controller at the die centre, under a
   stream in which modules 0 and 1 hit and toggle equally often: the
   middle sink's two partners cost bit-equal Eq. (3) values. Both are
   below it in id and, at seeding, in active rank (rank = id), so the
   first merge must take the lower rank, sink 0. *)
let test_router_tie_goes_to_lower_rank () =
  let sink id x =
    Clocktree.Sink.make ~id ~loc:(Geometry.Point.make x 500.0) ~cap:10.0 ~module_id:id
  in
  let sinks = [| sink 0 100.0; sink 1 900.0; sink 2 500.0 |] in
  let rtl = Activity.Rtl.of_lists ~n_modules:3 [ [ 0 ]; [ 1 ]; [ 2 ] ] in
  (* 2 0 2 1 2 0 2 1 ... 2: every 0 and every 1 sits between two 2s *)
  let stream =
    Activity.Instr_stream.make rtl
      (Array.init 41 (fun i -> if i mod 2 = 0 then 2 else if i mod 4 = 1 then 0 else 1))
  in
  let profile = Activity.Profile.of_stream stream in
  let config = Gcr.Config.make ~die:(Geometry.Bbox.square ~side:1000.0) () in
  let f = Gcr.Router.forest config profile sinks in
  let c0 = Gcr.Router.cost f 2 0 and c1 = Gcr.Router.cost f 2 1 in
  Alcotest.(check bool)
    (Printf.sprintf "bit-equal costs %.17g and %.17g" c0 c1)
    true
    (Int64.equal (Int64.bits_of_float c0) (Int64.bits_of_float c1));
  Alcotest.(check bool) "the tie is the cheapest pair" true (c0 < Gcr.Router.cost f 1 0);
  Gcr.Router.run f;
  (match Clocktree.Grow.merges (Gcr.Router.grow f) with
  | [| (a, b); _ |] ->
    Alcotest.(check (pair int int)) "first merge takes rank 0" (0, 2) (a, b)
  | _ -> Alcotest.fail "expected two merges");
  Conformance.Oracles.router_matches_scan config profile sinks

let obs_count report name =
  Option.value ~default:0 (List.assoc_opt name report.Util.Obs.counters)

(* Per query: cost evaluations and pyramid cells; per evaluation: the
   minor words the whole route allocated, forest included. *)
let greedy_counts n =
  let c = r1_case n in
  let words0 = Gc.minor_words () in
  let _, report =
    Util.Obs.run (fun () ->
        Gcr.Router.route_topology_only c.Benchmarks.Suite.config
          c.Benchmarks.Suite.profile c.Benchmarks.Suite.sinks)
  in
  let words = Gc.minor_words () -. words0 in
  let count name = float_of_int (obs_count report name) in
  let queries = count "greedy.queries" and evals = count "greedy.cost_evals" in
  (evals /. queries, count "greedy.cells_visited" /. queries, words /. evals)

(* The index costs about ten partners per query whatever n is (an
   exhaustive scan costs hundreds to thousands), and the pyramid walk
   grows no faster than the tree is deep. An evaluation builds no record,
   tuple, point or enable, so the whole route allocates ~31 words per
   evaluation at 1000 sinks. *)
let test_router_work_per_query () =
  let costs_1k, cells_1k, words_1k = greedy_counts 1000 in
  let costs_2k, _, _ = greedy_counts 2000 in
  let _, cells_4k, _ = greedy_counts 4000 in
  List.iter
    (fun (n, costs) ->
      Alcotest.(check bool)
        (Printf.sprintf "r1 at %d: %.1f cost evaluations per query <= 40" n costs)
        true
        (costs > 0.0 && costs <= 40.0))
    [ (1000, costs_1k); (2000, costs_2k) ];
  Alcotest.(check bool)
    (Printf.sprintf "cells per query %.1f at 4000 <= 1.5 x %.1f at 1000" cells_4k cells_1k)
    true
    (cells_1k > 0.0 && cells_4k <= 1.5 *. cells_1k);
  Alcotest.(check bool)
    (Printf.sprintf "r1 at 1000: %.1f minor words per evaluation <= 40" words_1k)
    true
    (words_1k > 0.0 && words_1k <= 40.0)

(* Sinks of one module share one signature: a flat route scans the
   instructions once per distinct module for its forest and once more
   in Gated_tree.build; a sharded route once per distinct module of each
   region, plus the build's, plus one per stitch merge (the adopted
   region roots carry no signature, so their union is scanned). *)
let test_signatures_once_per_module () =
  let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:2000 in
  let c = Benchmarks.Suite.case_grouped spec in
  let config = c.Benchmarks.Suite.config
  and profile = c.Benchmarks.Suite.profile
  and sinks = c.Benchmarks.Suite.sinks in
  let distinct idxs =
    List.length
      (List.sort_uniq Int.compare
         (Array.to_list (Array.map (fun i -> sinks.(i).Clocktree.Sink.module_id) idxs)))
  in
  let all = distinct (Array.init (Array.length sinks) Fun.id) in
  let sets f = obs_count (snd (Util.Obs.run f)) "signature.sets" in
  let flat = sets (fun () -> ignore (Gcr.Router.route config profile sinks)) in
  Alcotest.(check bool)
    (Printf.sprintf "flat: %d sets <= 2 x %d modules" flat all)
    true
    (flat > 0 && flat <= 2 * all);
  let regions = (Gcr.Shard_router.plan ~shards:8 config profile sinks).Gcr.Shard_router.regions in
  (* The stitch merges OR the region roots' signatures: no scans. *)
  let bound = all + Array.fold_left (fun acc r -> acc + distinct r) 0 regions in
  let sharded = sets (fun () -> ignore (Gcr.Shard_router.route ~shards:8 config profile sinks)) in
  Alcotest.(check bool)
    (Printf.sprintf "sharded: %d sets <= %d" sharded bound)
    true
    (sharded > 0 && sharded <= bound)

let () =
  Alcotest.run "conformance"
    [
      ( "fuzz",
        [
          Alcotest.test_case "smoke 25 scenarios" `Quick test_fuzz_smoke;
          Alcotest.test_case "mutation caught and shrunk" `Quick
            test_mutation_caught_and_shrunk;
          Alcotest.test_case "minimize preserves failure" `Quick
            test_minimize_preserves_failure;
        ] );
      ( "flow matrix",
        [ Alcotest.test_case "all options x skew combos" `Quick test_flow_matrix ] );
      ( "scenario",
        [
          Alcotest.test_case "seed-file roundtrip" `Quick test_scenario_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_scenario_parse_errors;
        ] );
      ( "invariants and oracles",
        [
          Alcotest.test_case "zero_skew detects tamper" `Quick
            test_zero_skew_detects_tamper;
          Alcotest.test_case "same_tree detects kind flip" `Quick
            test_same_tree_detects_kind_flip;
          Alcotest.test_case "oracles pass on fixed scenario" `Quick
            test_oracles_pass_on_fixed_scenario;
          Alcotest.test_case "eco repair beats an outlier scratch route" `Quick
            test_eco_repair_beats_outlier_scratch;
        ] );
      ( "reduce reference",
        [
          Alcotest.test_case "greedy and count on r1-r3" `Quick
            test_reduce_matches_reference_rbench;
          Alcotest.test_case "fraction sweep on r1 at 600" `Quick
            test_reduce_fraction_matches_reference;
          Alcotest.test_case "bit-equal gains go to the lower id" `Quick
            test_reduce_tie_goes_to_lower_id;
          Alcotest.test_case "rules equal the recursive reference" `Quick
            test_rules_match_recursive_reference;
          Alcotest.test_case "sum terms per node stay flat" `Quick
            test_reduce_sum_terms_linear;
        ] );
      ( "router index",
        [
          Alcotest.test_case "index equals the scan on r1" `Quick
            test_router_matches_scan_r1;
          Alcotest.test_case "bit-equal costs go to the lower rank" `Quick
            test_router_tie_goes_to_lower_rank;
          Alcotest.test_case "work per query stays flat" `Quick
            test_router_work_per_query;
          Alcotest.test_case "signatures once per module" `Quick
            test_signatures_once_per_module;
        ] );
    ]
