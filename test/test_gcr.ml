(* Tests for the core gated-clock-routing library: controller placement,
   enables, the gated-tree type, the switched-capacitance cost model,
   PROCEDURE GatedClockRouting, the buffered baseline and gate
   reduction. *)

let check_float = Alcotest.(check (float 1e-9))
let pt = Geometry.Point.make
let die100 = Geometry.Bbox.square ~side:100.0

let mk_sink id x y cap module_id =
  Clocktree.Sink.make ~id ~loc:(pt x y) ~cap ~module_id

(* A small deterministic setup: n sinks on a die, one module per sink. *)
let setup ?(n = 16) ?(usage = 0.4) ?(stream_length = 400) ?(seed = 5) ?controller ()
    =
  let side = 1000.0 in
  let prng = Util.Prng.create seed in
  let sinks =
    Array.init n (fun id ->
        mk_sink id
          (Util.Prng.range prng 0.0 side)
          (Util.Prng.range prng 0.0 side)
          (Util.Prng.range prng 5.0 50.0)
          id)
  in
  let profile =
    Benchmarks.Workload.profile ~n_modules:n ~n_instructions:12 ~usage
      ~stream_length ~seed:(seed + 1) ()
  in
  let die = Geometry.Bbox.square ~side in
  let config = Gcr.Config.make ?controller ~die () in
  (config, profile, sinks)

(* ------------------------------------------------------------------ *)
(* Controller                                                         *)
(* ------------------------------------------------------------------ *)

let test_controller_centralized () =
  let c = Gcr.Controller.centralized die100 in
  Alcotest.(check int) "one controller" 1 (Gcr.Controller.n_controllers c);
  Alcotest.(check bool) "site at center" true
    (Geometry.Point.equal (Gcr.Controller.site_for c (pt 10.0 10.0)) (pt 50.0 50.0));
  check_float "wire length" 80.0 (Gcr.Controller.wire_length c (pt 10.0 10.0))

let test_controller_distributed () =
  let c = Gcr.Controller.distributed die100 ~k:4 in
  Alcotest.(check int) "four controllers" 4 (Gcr.Controller.n_controllers c);
  Alcotest.(check bool) "lower-left cell" true
    (Geometry.Point.equal (Gcr.Controller.site_for c (pt 10.0 10.0)) (pt 25.0 25.0));
  Alcotest.(check bool) "upper-right cell" true
    (Geometry.Point.equal (Gcr.Controller.site_for c (pt 90.0 90.0)) (pt 75.0 75.0));
  Alcotest.(check int) "sites listed" 4 (List.length (Gcr.Controller.sites c))

let test_controller_k1_is_centralized () =
  let c = Gcr.Controller.distributed die100 ~k:1 in
  Alcotest.(check bool) "k=1 centers" true
    (Geometry.Point.equal (Gcr.Controller.site_for c (pt 1.0 1.0)) (pt 50.0 50.0))

let test_controller_validation () =
  Alcotest.check_raises "k not square"
    (Invalid_argument "Controller.distributed: k must be a perfect square") (fun () ->
      ignore (Gcr.Controller.distributed die100 ~k:3));
  Alcotest.check_raises "k zero"
    (Invalid_argument "Controller.distributed: k must be positive") (fun () ->
      ignore (Gcr.Controller.distributed die100 ~k:0))

let prop_distributed_wires_shorter =
  QCheck.Test.make ~name:"distributing controllers never lengthens a star wire"
    ~count:200
    QCheck.(pair (pair (float_range 0.0 100.0) (float_range 0.0 100.0)) (int_range 1 3))
    (fun ((x, y), g) ->
      let k = g * g in
      let central = Gcr.Controller.centralized die100 in
      let dist = Gcr.Controller.distributed die100 ~k in
      (* Each gate's wire goes to its own cell center, which is at most as
         far as the global center plus cell diagonal — in expectation much
         shorter. We check the weaker per-point bound with cell slack. *)
      let p = pt x y in
      Gcr.Controller.wire_length dist p
      <= Gcr.Controller.wire_length central p +. (100.0 /. float_of_int g) +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Config                                                             *)
(* ------------------------------------------------------------------ *)

let test_config_defaults () =
  let c = Gcr.Config.default_for_die die100 in
  check_float "weight" 1.0 c.Gcr.Config.control_weight;
  Alcotest.(check bool) "anchor at center" true
    (Geometry.Point.equal c.Gcr.Config.root_anchor (pt 50.0 50.0))

let test_config_validation () =
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Config.make: negative control weight") (fun () ->
      ignore (Gcr.Config.make ~control_weight:(-1.0) ~die:die100 ()))

(* ------------------------------------------------------------------ *)
(* Enable                                                             *)
(* ------------------------------------------------------------------ *)

let paper = Activity.Profile.paper_example

let test_enable_of_sink () =
  let sink = mk_sink 0 0.0 0.0 10.0 0 in
  let e = Gcr.Enable.of_sink paper sink in
  check_float "P(M1)" 0.75 e.Gcr.Enable.p;
  Alcotest.(check (list int)) "module set" [ 0 ]
    (Activity.Module_set.to_list e.Gcr.Enable.mods)

let test_enable_merge () =
  let e4 = Gcr.Enable.of_sink paper (mk_sink 0 0.0 0.0 10.0 4) in
  let e5 = Gcr.Enable.of_sink paper (mk_sink 1 0.0 0.0 10.0 5) in
  let m = Gcr.Enable.merge paper e4 e5 in
  check_float "P(M5 or M6) = 0.55" 0.55 m.Gcr.Enable.p;
  Alcotest.(check (list int)) "union" [ 4; 5 ]
    (Activity.Module_set.to_list m.Gcr.Enable.mods)

let test_enable_of_sink_bad_module () =
  Alcotest.check_raises "module outside universe"
    (Invalid_argument "Enable.of_sink: sink module 9 outside the 6-module profile")
    (fun () -> ignore (Gcr.Enable.of_sink paper (mk_sink 0 0.0 0.0 10.0 9)))

let test_enable_compute_all_nested () =
  let sinks = Array.init 4 (fun id -> mk_sink id (float_of_int id) 0.0 10.0 id) in
  let topo = Clocktree.Topo.of_merges ~n_sinks:4 [| (0, 1); (2, 3); (4, 5) |] in
  let enables = Gcr.Enable.compute_all paper topo sinks in
  Alcotest.(check (list int)) "root spans all" [ 0; 1; 2; 3 ]
    (Activity.Module_set.to_list enables.(6).Gcr.Enable.mods);
  Alcotest.(check bool) "parent at least as probable" true
    (enables.(4).Gcr.Enable.p <= enables.(6).Gcr.Enable.p)

(* ------------------------------------------------------------------ *)
(* Gated_tree on a hand-built 2-sink instance                         *)
(* ------------------------------------------------------------------ *)

(* Two sinks 100um apart on a 1000um die, modules M5/M6 of the paper
   profile (P(EN_root) = 0.55). *)
let two_sink_tree kind =
  let sinks = [| mk_sink 0 450.0 500.0 10.0 4; mk_sink 1 550.0 500.0 10.0 5 |] in
  let topo = Clocktree.Topo.of_merges ~n_sinks:2 [| (0, 1) |] in
  let config = Gcr.Config.make ~die:(Geometry.Bbox.square ~side:1000.0) () in
  Gcr.Gated_tree.build config paper sinks topo ~kind:(fun _ -> kind)

let test_gated_tree_counts () =
  let t = two_sink_tree Gcr.Gated_tree.Gated in
  Alcotest.(check int) "2 gates" 2 (Gcr.Gated_tree.gate_count t);
  Alcotest.(check int) "0 buffers" 0 (Gcr.Gated_tree.buffer_count t);
  let b = two_sink_tree Gcr.Gated_tree.Buffered in
  Alcotest.(check int) "0 gates" 0 (Gcr.Gated_tree.gate_count b);
  Alcotest.(check int) "2 buffers" 2 (Gcr.Gated_tree.buffer_count b)

let test_gated_tree_edge_probability () =
  let t = two_sink_tree Gcr.Gated_tree.Gated in
  (* module 4 is the paper's M5: used by I1 and I3, 11 of 20 cycles *)
  check_float "sink 0 edge P(M5)" 0.55 (Gcr.Gated_tree.edge_probability t 0);
  check_float "root probability 1" 1.0 (Gcr.Gated_tree.node_probability t 2);
  let u = two_sink_tree Gcr.Gated_tree.Plain in
  check_float "ungated edge free-runs" 1.0 (Gcr.Gated_tree.edge_probability u 0)

let test_gated_tree_node_load () =
  let t = two_sink_tree Gcr.Gated_tree.Gated in
  check_float "leaf load = sink cap" 10.0 (Gcr.Gated_tree.node_load t 0);
  let cg =
    t.Gcr.Gated_tree.config.Gcr.Config.tech.Clocktree.Tech.and_gate
      .Clocktree.Tech.input_cap
  in
  check_float "root load = 2 gate caps" (2.0 *. cg) (Gcr.Gated_tree.node_load t 2)

let test_gated_tree_invariants () =
  List.iter
    (fun kind -> Gcr.Verify.structural (two_sink_tree kind))
    [ Gcr.Gated_tree.Plain; Gcr.Gated_tree.Buffered; Gcr.Gated_tree.Gated ]

let test_gated_tree_rebuild () =
  let t = two_sink_tree Gcr.Gated_tree.Gated in
  let kinds = Gcr.Gated_tree.kinds_copy t in
  kinds.(0) <- Gcr.Gated_tree.Plain;
  let t' = Gcr.Gated_tree.rebuild_with_kinds t kinds in
  Gcr.Verify.structural t';
  Alcotest.(check int) "one gate left" 1 (Gcr.Gated_tree.gate_count t');
  (* sink 0's edge is now governed by the root: free running *)
  check_float "freed edge" 1.0 (Gcr.Gated_tree.edge_probability t' 0);
  (* module 5 is the paper's M6: used only by I3, 1 of 20 cycles *)
  check_float "kept edge" 0.05 (Gcr.Gated_tree.edge_probability t' 1)

(* ------------------------------------------------------------------ *)
(* Cost on the same hand-built instance                               *)
(* ------------------------------------------------------------------ *)

let test_cost_w_clock_hand_computed () =
  let t = two_sink_tree Gcr.Gated_tree.Gated in
  let tech = t.Gcr.Gated_tree.config.Gcr.Config.tech in
  let c = tech.Clocktree.Tech.unit_cap in
  let cg = tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap in
  (* symmetric sinks: each edge 50um; P(M5) = 0.55 and P(M6) = 0.05 on the
     sink edges; the root node carries two gate inputs at probability 1. *)
  let expected = (((c *. 50.0) +. 10.0) *. (0.55 +. 0.05)) +. (2.0 *. cg) in
  check_float "W(T)" expected (Gcr.Cost.w_clock t)

let test_cost_w_ctrl_hand_computed () =
  let t = two_sink_tree Gcr.Gated_tree.Gated in
  let tech = t.Gcr.Gated_tree.config.Gcr.Config.tech in
  let c = tech.Clocktree.Tech.unit_cap in
  let cg = tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap in
  (* both gates sit at the root (500,500) = die center = controller site:
     zero star wire; Ptr of each single-module enable from the profile *)
  let ptr0 = t.Gcr.Gated_tree.enables.(0).Gcr.Enable.ptr in
  let ptr1 = t.Gcr.Gated_tree.enables.(1).Gcr.Enable.ptr in
  let expected = ((c *. 0.0) +. cg) *. (ptr0 +. ptr1) in
  check_float "W(S)" expected (Gcr.Cost.w_ctrl t)

let test_cost_buffered_no_control () =
  let t = two_sink_tree Gcr.Gated_tree.Buffered in
  check_float "no control tree" 0.0 (Gcr.Cost.w_ctrl t);
  check_float "no control wire" 0.0 (Gcr.Cost.control_wirelength_total t)

let test_cost_subtree_switched_cap () =
  let t = two_sink_tree Gcr.Gated_tree.Gated in
  let whole = Gcr.Cost.subtree_switched_cap t 2 in
  let left = Gcr.Cost.subtree_switched_cap t 0 in
  let right = Gcr.Cost.subtree_switched_cap t 1 in
  check_float "subtrees add up (root edge is free)" whole (left +. right)

let test_cost_merge_sc_formula () =
  let config = Gcr.Config.make ~die:die100 () in
  let tech = config.Gcr.Config.tech in
  let c = tech.Clocktree.Tech.unit_cap in
  let cg = tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap in
  let n6 = Activity.Module_set.singleton 6 in
  let ea =
    { Gcr.Enable.mods = n6 0; p = 0.75; ptr = 0.2 }
  in
  let eb = { Gcr.Enable.mods = n6 1; p = 0.4; ptr = 0.1 } in
  let sc =
    Gcr.Cost.merge_sc config ~ea:10.0 ~eb:20.0 ~mid_a:(pt 50.0 40.0)
      ~mid_b:(pt 30.0 50.0) ~enable_a:ea ~enable_b:eb
  in
  (* controller at (50,50): distances 10 and 20 *)
  let expected =
    (((c *. 10.0) +. cg) *. 0.75)
    +. (((c *. 20.0) +. cg) *. 0.4)
    +. (((c *. 10.0) +. cg) *. 0.2)
    +. (((c *. 20.0) +. cg) *. 0.1)
  in
  check_float "Eq (3)" expected sc

(* ------------------------------------------------------------------ *)
(* Router end-to-end                                                  *)
(* ------------------------------------------------------------------ *)

let test_router_end_to_end () =
  let config, profile, sinks = setup ~n:24 () in
  let tree = Gcr.Router.route config profile sinks in
  Gcr.Verify.structural tree;
  Alcotest.(check int) "all edges gated" (2 * 24 - 2) (Gcr.Gated_tree.gate_count tree);
  let report = Gcr.Report.of_tree tree in
  Alcotest.(check bool) "zero skew" true
    (report.Gcr.Report.skew /. (1.0 +. report.Gcr.Report.phase_delay) < 1e-9);
  Alcotest.(check bool) "positive W" true (report.Gcr.Report.w_total > 0.0)

let test_router_deterministic () =
  let config, profile, sinks = setup ~n:12 () in
  let t1 = Gcr.Router.route config profile sinks in
  let t2 = Gcr.Router.route config profile sinks in
  Alcotest.(check bool) "same topology" true
    (Clocktree.Topo.equal t1.Gcr.Gated_tree.topo t2.Gcr.Gated_tree.topo);
  check_float "same cost" (Gcr.Cost.w_total t1) (Gcr.Cost.w_total t2)

let test_router_prefers_low_activity_pair () =
  (* Four sinks on a diamond: every pairwise Manhattan distance is 200, so
     geometry cannot break ties. Modules 0 and 1 are rarely active while 2
     and 3 are active nearly every cycle: Eq. (3) weights the new clock
     edges by the children's signal probabilities, so the min-SC router
     must merge the two quiet sinks first — the activity awareness the
     nearest-neighbor baseline lacks. *)
  let sinks =
    [|
      mk_sink 0 100.0 0.0 10.0 0;
      mk_sink 1 0.0 100.0 10.0 1;
      mk_sink 2 (-100.0) 0.0 10.0 2;
      mk_sink 3 0.0 (-100.0) 10.0 3;
    |]
  in
  let rtl =
    Activity.Rtl.of_lists ~n_modules:4 [ [ 2; 3 ]; [ 0; 2; 3 ]; [ 1; 2; 3 ] ]
  in
  let model = Activity.Cpu_model.make ~weights:[| 0.8; 0.1; 0.1 |] rtl in
  let profile =
    Activity.Profile.of_stream (Activity.Cpu_model.generate model (Util.Prng.create 3) 500)
  in
  let die = Geometry.Bbox.make ~xlo:(-100.0) ~xhi:100.0 ~ylo:(-100.0) ~yhi:100.0 in
  let config = Gcr.Config.make ~die () in
  let tree = Gcr.Router.route config profile sinks in
  (* first merge (node 4) should pair the two quiet sinks 0 and 1 *)
  Alcotest.(check bool) "quiet sinks merged first" true
    (Clocktree.Topo.children tree.Gcr.Gated_tree.topo 4 = Some (0, 1))

(* Router.cost reads per-root columns instead of building a split, two
   points and two enables; it must equal Cost.merge_sc over
   Grow.peek_split bit for bit. Sinks 0 and 1 sit 0.5 um apart with
   caps 5 and 400 fF, so (1, 0) snakes sink 0's wire and (0, 1) sink
   1's; sink 2 is far from sink 0 with the same cap, so (0, 2) splits
   without snaking. The rest are random, in four modules of unequal P,
   under one controller or four. Every ordered pair of active roots is
   compared, then a random pair merges, down to one root. *)
let prop_router_cost_matches_merge_sc =
  QCheck.Test.make ~name:"cost = Cost.merge_sc over Grow.peek_split, bit for bit"
    ~count:40
    QCheck.(triple (int_range 3 14) (int_range 0 1_000_000) bool)
    (fun (n, seed, four) ->
      let prng = Util.Prng.create seed in
      let side = 1000.0 in
      let fixed = [| (100.0, 100.0, 5.0); (100.5, 100.0, 400.0); (900.0, 900.0, 5.0) |] in
      let sinks =
        Array.init n (fun id ->
            let x, y, cap =
              if id < 3 then fixed.(id)
              else
                ( Util.Prng.range prng 0.0 side,
                  Util.Prng.range prng 0.0 side,
                  Util.Prng.range prng 1.0 400.0 )
            in
            mk_sink id x y cap (Util.Prng.int prng 4))
      in
      let profile =
        Benchmarks.Workload.profile ~n_modules:4 ~n_instructions:12 ~usage:0.4
          ~stream_length:300 ~seed:(seed + 1) ()
      in
      let die = Geometry.Bbox.square ~side in
      let controller = Gcr.Controller.distributed die ~k:(if four then 4 else 1) in
      let config = Gcr.Config.make ~controller ~die () in
      let f = Gcr.Router.forest config profile sinks in
      let g = Gcr.Router.grow f in
      let sides = Hashtbl.create 3 in
      let check a b =
        let split = Clocktree.Grow.peek_split g a b in
        Hashtbl.replace sides split.Clocktree.Zskew.snaked ();
        let reference =
          Gcr.Cost.merge_sc config ~ea:split.Clocktree.Zskew.ea ~eb:split.Clocktree.Zskew.eb
            ~mid_a:(Clocktree.Grow.center_point g a)
            ~mid_b:(Clocktree.Grow.center_point g b)
            ~enable_a:(Gcr.Router.enable f a) ~enable_b:(Gcr.Router.enable f b)
        in
        Int64.equal (Int64.bits_of_float (Gcr.Router.cost f a b))
          (Int64.bits_of_float reference)
      in
      let ok = ref true in
      while Clocktree.Grow.n_active g > 1 do
        let roots = Array.of_list (Clocktree.Grow.active g) in
        Array.iter
          (fun a -> Array.iter (fun b -> if a <> b && not (check a b) then ok := false) roots)
          roots;
        let i = Util.Prng.int prng (Array.length roots) in
        let j = (i + 1 + Util.Prng.int prng (Array.length roots - 1)) mod Array.length roots in
        ignore (Gcr.Router.merge f (min roots.(i) roots.(j)) (max roots.(i) roots.(j)) : int)
      done;
      !ok
      && List.for_all (Hashtbl.mem sides)
           [ Clocktree.Zskew.No_snake; Clocktree.Zskew.Snake_a; Clocktree.Zskew.Snake_b ])

(* Float.max is gone from Arena.dist, but a NaN coordinate still yields a
   NaN distance, which the zero-skew split rejects: the evaluation ends
   in Invalid_argument, a typed Degenerate_input at a stage boundary. *)
let test_router_nan_region_typed_error () =
  let config, profile, sinks = setup ~n:3 () in
  sinks.(1) <- { (sinks.(1)) with Clocktree.Sink.loc = pt Float.nan 20.0 };
  let f = Gcr.Router.forest config profile sinks in
  Alcotest.(check bool) "NaN distance" true
    (Float.is_nan (Clocktree.Grow.dist (Gcr.Router.grow f) 1 0));
  let typed what thunk =
    match thunk () with
    | _ -> Alcotest.failf "%s: a NaN region was costed" what
    | exception e -> (
      match Util.Gcr_error.of_exn ~stage:"route" e with
      | Util.Gcr_error.Degenerate_input _ -> ()
      | err -> Alcotest.failf "%s: %s" what (Util.Gcr_error.to_string err))
  in
  typed "cost" (fun () -> Gcr.Router.cost f 1 0);
  typed "route" (fun () -> Gcr.Router.route_topology_only config profile sinks)

let test_buffered_baseline () =
  let config, profile, sinks = setup ~n:24 () in
  let tree = Gcr.Buffered.route config profile sinks in
  Gcr.Verify.structural tree;
  Alcotest.(check int) "no gates" 0 (Gcr.Gated_tree.gate_count tree);
  Alcotest.(check int) "buffers everywhere" (2 * 24 - 2) (Gcr.Gated_tree.buffer_count tree);
  check_float "no control cost" 0.0 (Gcr.Cost.w_ctrl tree)

let test_ungated_baseline () =
  let config, profile, sinks = setup ~n:10 () in
  let tree = Gcr.Buffered.route_ungated config profile sinks in
  Alcotest.(check int) "bare tree" 0
    (Gcr.Gated_tree.gate_count tree + Gcr.Gated_tree.buffer_count tree);
  (* every edge free-running: W(T) = total cap, no masking *)
  Alcotest.(check bool) "W positive" true (Gcr.Cost.w_clock tree > 0.0)

(* ------------------------------------------------------------------ *)
(* Gate reduction                                                     *)
(* ------------------------------------------------------------------ *)

let test_reduction_fraction_counts () =
  let config, profile, sinks = setup ~n:16 () in
  let tree = Gcr.Router.route config profile sinks in
  let g0 = Gcr.Gated_tree.gate_count tree in
  let half = Gcr.Gate_reduction.reduce_fraction tree ~fraction:0.5 in
  Alcotest.(check int) "half the gates" (g0 - (g0 / 2)) (Gcr.Gated_tree.gate_count half);
  let none = Gcr.Gate_reduction.reduce_fraction tree ~fraction:1.0 in
  Alcotest.(check int) "all removed" 0 (Gcr.Gated_tree.gate_count none);
  check_float "no gates, no control" 0.0 (Gcr.Cost.w_ctrl none);
  let all = Gcr.Gate_reduction.reduce_fraction tree ~fraction:0.0 in
  Alcotest.(check int) "none removed" g0 (Gcr.Gated_tree.gate_count all)

let test_reduction_fraction_validation () =
  let config, profile, sinks = setup ~n:4 () in
  let tree = Gcr.Router.route config profile sinks in
  Alcotest.check_raises "fraction > 1"
    (Invalid_argument "Gate_reduction.reduce_fraction: fraction outside [0,1]")
    (fun () -> ignore (Gcr.Gate_reduction.reduce_fraction tree ~fraction:1.5))

let test_reduction_greedy_improves () =
  let config, profile, sinks = setup ~n:24 ~usage:0.3 () in
  let tree = Gcr.Router.route config profile sinks in
  let reduced = Gcr.Gate_reduction.reduce_greedy tree in
  Gcr.Verify.structural reduced;
  Alcotest.(check bool) "greedy does not worsen W" true
    (Gcr.Cost.w_total reduced <= Gcr.Cost.w_total tree *. 1.01);
  Alcotest.(check bool) "some gates removed" true
    (Gcr.Gated_tree.gate_count reduced < Gcr.Gated_tree.gate_count tree)

let test_reduction_beats_buffered_at_low_activity () =
  (* The paper's headline: after gate reduction the gated tree dissipates
     ~30% less than the buffered tree at ~40% module activity; at 25% the
     advantage is even clearer, so assert a strict win. *)
  let config, profile, sinks = setup ~n:32 ~usage:0.25 ~stream_length:800 () in
  let buffered = Gcr.Buffered.route config profile sinks in
  let gated = Gcr.Router.route config profile sinks in
  let reduced = Gcr.Gate_reduction.reduce_greedy gated in
  Alcotest.(check bool)
    (Printf.sprintf "reduced %.0f < buffered %.0f" (Gcr.Cost.w_total reduced)
       (Gcr.Cost.w_total buffered))
    true
    (Gcr.Cost.w_total reduced < Gcr.Cost.w_total buffered)

let test_reduction_optimal_beats_heuristics () =
  let config, profile, sinks = setup ~n:24 () in
  let tree = Gcr.Router.route config profile sinks in
  let optimal = Gcr.Gate_reduction.reduce_optimal tree in
  Gcr.Verify.structural optimal;
  let w_opt = Gcr.Cost.w_total optimal in
  let w_greedy = Gcr.Cost.w_total (Gcr.Gate_reduction.reduce_greedy tree) in
  let w_rules = Gcr.Cost.w_total (Gcr.Gate_reduction.reduce_rules tree) in
  Alcotest.(check bool)
    (Printf.sprintf "optimal %.0f <= greedy %.0f" w_opt w_greedy)
    true
    (w_opt <= w_greedy *. 1.002);
  Alcotest.(check bool)
    (Printf.sprintf "optimal %.0f <= rules %.0f" w_opt w_rules)
    true
    (w_opt <= w_rules *. 1.002)

(* The DP optimizes the frozen-geometry estimate (original edge lengths);
   this evaluator replicates that objective for an arbitrary assignment so
   tiny trees can be checked against exhaustive enumeration. *)
let frozen_cost (tree : Gcr.Gated_tree.t) kinds =
  let topo = tree.Gcr.Gated_tree.topo in
  let tech = tree.Gcr.Gated_tree.config.Gcr.Config.tech in
  let c = tech.Clocktree.Tech.unit_cap in
  let cg = tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap in
  let cb = tech.Clocktree.Tech.buffer.Clocktree.Tech.input_cap in
  let root = Clocktree.Topo.root topo in
  let gov = Array.make (Clocktree.Topo.n_nodes topo) (-1) in
  Clocktree.Topo.iter_top_down topo (fun v ->
      match Clocktree.Topo.parent topo v with
      | None -> ()
      | Some p -> gov.(v) <- (if kinds.(v) = Gcr.Gated_tree.Gated then v else gov.(p)));
  let pe v =
    let g = gov.(v) in
    if g = -1 then 1.0 else tree.Gcr.Gated_tree.enables.(g).Gcr.Enable.p
  in
  let total = ref 0.0 in
  Clocktree.Topo.iter_bottom_up topo (fun v ->
      if v <> root then begin
        let q =
          match Clocktree.Topo.parent topo v with
          | Some p when p <> root -> pe p
          | Some _ | None -> 1.0
        in
        let head =
          match kinds.(v) with
          | Gcr.Gated_tree.Gated -> cg
          | Gcr.Gated_tree.Buffered -> cb
          | Gcr.Gated_tree.Plain -> 0.0
        in
        let leaf =
          match Clocktree.Topo.children topo v with
          | None -> tree.Gcr.Gated_tree.sinks.(v).Clocktree.Sink.cap
          | Some _ -> 0.0
        in
        let wire = c *. Clocktree.Embed.edge_len tree.Gcr.Gated_tree.embed v in
        total := !total +. (head *. q) +. ((wire +. leaf) *. pe v);
        if kinds.(v) = Gcr.Gated_tree.Gated then begin
          let len = Gcr.Cost.control_wire_length tree v in
          total :=
            !total
            +. (((c *. len) +. cg) *. tree.Gcr.Gated_tree.enables.(v).Gcr.Enable.ptr)
        end
      end);
  !total

let prop_optimal_matches_exhaustive_on_tiny_trees =
  QCheck.Test.make
    ~name:"DP gate placement = exhaustive minimum (frozen objective)" ~count:15
    (QCheck.int_range 2 6)
    (fun n ->
      let config, profile, sinks = setup ~n ~seed:(n * 41) ~stream_length:200 () in
      let tree = Gcr.Router.route config profile sinks in
      let topo = tree.Gcr.Gated_tree.topo in
      let root = Clocktree.Topo.root topo in
      let n_edges = Clocktree.Topo.n_nodes topo - 1 in
      (* exhaustive minimum over all 2^edges gate/buffer assignments *)
      let best = ref infinity in
      for mask = 0 to (1 lsl n_edges) - 1 do
        let kinds =
          Array.init (Clocktree.Topo.n_nodes topo) (fun v ->
              if v = root then Gcr.Gated_tree.Plain
              else if mask land (1 lsl v) <> 0 then Gcr.Gated_tree.Gated
              else Gcr.Gated_tree.Buffered)
        in
        let w = frozen_cost tree kinds in
        if w < !best then best := w
      done;
      let dp =
        frozen_cost tree
          (Gcr.Gated_tree.kinds_copy (Gcr.Gate_reduction.reduce_optimal tree))
      in
      Float.abs (dp -. !best) <= 1e-9 *. (1.0 +. !best))

let test_reduction_optimal_validates_in_sim () =
  let config, profile, sinks = setup ~n:14 ~stream_length:200 () in
  let tree = Gcr.Router.route config profile sinks in
  Gsim.Check.validate (Gcr.Gate_reduction.reduce_optimal tree)

let test_removal_gain_always_on_gate () =
  (* A gate whose enable is always high can only cost: removal must gain. *)
  let sinks = [| mk_sink 0 450.0 500.0 10.0 0; mk_sink 1 550.0 500.0 10.0 1 |] in
  let rtl = Activity.Rtl.of_lists ~n_modules:2 [ [ 0 ]; [ 0; 1 ] ] in
  let stream = Activity.Instr_stream.make rtl [| 0; 1; 0; 1; 0; 0; 1 |] in
  let profile = Activity.Profile.of_stream stream in
  let config = Gcr.Config.make ~die:(Geometry.Bbox.square ~side:1000.0) () in
  let topo = Clocktree.Topo.of_merges ~n_sinks:2 [| (0, 1) |] in
  let tree =
    Gcr.Gated_tree.build config profile sinks topo ~kind:(fun _ -> Gcr.Gated_tree.Gated)
  in
  (* module 0 active every cycle: sink 0's gate is always on *)
  check_float "P = 1" 1.0 tree.Gcr.Gated_tree.enables.(0).Gcr.Enable.p;
  Alcotest.(check bool) "removal gains" true (Gcr.Gate_reduction.removal_gain tree 0 < 0.0)

let test_removal_gain_requires_gate () =
  let tree = two_sink_tree Gcr.Gated_tree.Plain in
  Alcotest.check_raises "ungated edge"
    (Invalid_argument "Gate_reduction.removal_gain: edge is not gated") (fun () ->
      ignore (Gcr.Gate_reduction.removal_gain tree 0))

let test_reduction_rules_runs () =
  let config, profile, sinks = setup ~n:24 () in
  let tree = Gcr.Router.route config profile sinks in
  let reduced = Gcr.Gate_reduction.reduce_rules tree in
  Gcr.Verify.structural reduced;
  Alcotest.(check bool) "rules remove something" true
    (Gcr.Gated_tree.gate_count reduced < Gcr.Gated_tree.gate_count tree)

let test_reduction_rules_rule1_removes_always_on () =
  (* With activity_high = 0.5 every gate whose enable is at least 50%
     probable must go; remaining gates all have p < 0.5. *)
  let config, profile, sinks = setup ~n:16 () in
  let tree = Gcr.Router.route config profile sinks in
  let thresholds =
    {
      Gcr.Gate_reduction.default_thresholds with
      Gcr.Gate_reduction.activity_high = 0.5;
      force_cap_multiple = infinity;
    }
  in
  let reduced = Gcr.Gate_reduction.reduce_rules ~thresholds tree in
  Clocktree.Topo.iter_bottom_up reduced.Gcr.Gated_tree.topo (fun v ->
      if Gcr.Gated_tree.is_gated reduced v then
        Alcotest.(check bool) "kept gates below threshold" true
          (reduced.Gcr.Gated_tree.enables.(v).Gcr.Enable.p < 0.5))

let test_forced_insertion_keeps_gates () =
  (* A tiny force limit forbids long ungated stretches: stricter forcing
     must keep at least as many gates. *)
  let config, profile, sinks = setup ~n:24 () in
  let tree = Gcr.Router.route config profile sinks in
  let loose =
    { Gcr.Gate_reduction.default_thresholds with force_cap_multiple = infinity }
  in
  let strict =
    {
      Gcr.Gate_reduction.default_thresholds with
      Gcr.Gate_reduction.activity_high = 0.0 (* try to remove everything *);
      force_cap_multiple = 1.0;
    }
  in
  let loose_t =
    Gcr.Gate_reduction.reduce_rules
      ~thresholds:{ loose with Gcr.Gate_reduction.activity_high = 0.0 }
      tree
  in
  let strict_t = Gcr.Gate_reduction.reduce_rules ~thresholds:strict tree in
  Alcotest.(check int) "rule1=0 with no forcing removes all" 0
    (Gcr.Gated_tree.gate_count loose_t);
  Alcotest.(check bool) "forcing keeps gates" true
    (Gcr.Gated_tree.gate_count strict_t > 0)

(* ------------------------------------------------------------------ *)
(* Sizing                                                             *)
(* ------------------------------------------------------------------ *)

let test_sizing_uniform () =
  let config, profile, sinks = setup ~n:12 () in
  let tree = Gcr.Router.route config profile sinks in
  let sized = Gcr.Sizing.uniform tree 2.0 in
  Gcr.Verify.structural sized;
  Array.iter (fun s -> check_float "scale 2" 2.0 s) sized.Gcr.Gated_tree.scale;
  (* doubled gates: double the cell area *)
  let a0 = (Gcr.Area.of_tree tree).Gcr.Area.gates in
  let a1 = (Gcr.Area.of_tree sized).Gcr.Area.gates in
  check_float "double gate area" (2.0 *. a0) a1;
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Sizing.uniform: non-positive factor") (fun () ->
      ignore (Gcr.Sizing.uniform tree 0.0))

let test_sizing_uniform_upsizing_cuts_delay () =
  let config, profile, sinks = setup ~n:24 () in
  let tree = Gcr.Router.route config profile sinks in
  let delay t = (Gcr.Report.of_tree t).Gcr.Report.phase_delay in
  Alcotest.(check bool) "bigger drivers are faster" true
    (delay (Gcr.Sizing.uniform tree 4.0) < delay tree)

let test_sizing_proportional () =
  let config, profile, sinks = setup ~n:24 () in
  let tree = Gcr.Router.route config profile sinks in
  let sized = Gcr.Sizing.proportional tree in
  Gcr.Verify.structural sized;
  (* zero skew must be preserved through the re-embedding *)
  let r = Gcr.Report.of_tree sized in
  Alcotest.(check bool) "zero skew" true
    (r.Gcr.Report.skew /. (1.0 +. r.Gcr.Report.phase_delay) < 1e-9);
  (* scales respect the clamp *)
  Array.iter
    (fun s -> Alcotest.(check bool) "clamped" true (s >= 0.5 && s <= 8.0))
    sized.Gcr.Gated_tree.scale;
  (* heavier drivers get bigger cells *)
  let topo = sized.Gcr.Gated_tree.topo in
  let heaviest = ref (-1) and lightest = ref (-1) in
  Clocktree.Topo.iter_bottom_up topo (fun v ->
      if Gcr.Gated_tree.is_gated tree v then begin
        let load = Gcr.Sizing.driver_load tree v in
        if !heaviest = -1 || load > Gcr.Sizing.driver_load tree !heaviest then
          heaviest := v;
        if !lightest = -1 || load < Gcr.Sizing.driver_load tree !lightest then
          lightest := v
      end);
  Alcotest.(check bool) "heavy >= light scale" true
    (sized.Gcr.Gated_tree.scale.(!heaviest) >= sized.Gcr.Gated_tree.scale.(!lightest))

let test_sizing_tapered () =
  let config, profile, sinks = setup ~n:24 () in
  let tree = Gcr.Router.route config profile sinks in
  let sized = Gcr.Sizing.tapered ~min_scale:1.0 tree in
  Gcr.Verify.structural sized;
  (* siblings always share a scale *)
  Clocktree.Topo.iter_bottom_up sized.Gcr.Gated_tree.topo (fun v ->
      match Clocktree.Topo.children sized.Gcr.Gated_tree.topo v with
      | None -> ()
      | Some (a, b) ->
        check_float "sibling scales equal" sized.Gcr.Gated_tree.scale.(a)
          sized.Gcr.Gated_tree.scale.(b));
  (* zero skew preserved *)
  let r = Gcr.Report.of_tree sized in
  Alcotest.(check bool) "zero skew" true
    (r.Gcr.Report.skew /. (1.0 +. r.Gcr.Report.phase_delay) < 1e-9);
  (* cuts phase delay vs the unsized tree *)
  let r0 = Gcr.Report.of_tree tree in
  Alcotest.(check bool)
    (Printf.sprintf "delay %.0f < %.0f" r.Gcr.Report.phase_delay r0.Gcr.Report.phase_delay)
    true
    (r.Gcr.Report.phase_delay < r0.Gcr.Report.phase_delay)

let test_sizing_tapered_beats_proportional_on_wire () =
  (* the documented caveat: naive per-gate sizing mixes sibling drive
     strengths and pays for it in balancing wire *)
  let config, profile, sinks = setup ~n:24 () in
  let tree = Gcr.Gate_reduction.reduce_greedy (Gcr.Router.route config profile sinks) in
  let naive = Gcr.Sizing.proportional tree in
  let tapered = Gcr.Sizing.tapered tree in
  Alcotest.(check bool) "tapered uses less wire" true
    (Gcr.Cost.clock_wirelength tapered < Gcr.Cost.clock_wirelength naive)

let test_sizing_validation () =
  let config, profile, sinks = setup ~n:4 () in
  let tree = Gcr.Router.route config profile sinks in
  Alcotest.check_raises "bad clamp" (Invalid_argument "Sizing.proportional: bad clamp range")
    (fun () -> ignore (Gcr.Sizing.proportional ~min_scale:2.0 ~max_scale:1.0 tree))

(* ------------------------------------------------------------------ *)
(* Bounded-skew routing through the Gcr layer                         *)
(* ------------------------------------------------------------------ *)

let test_skew_budget_route () =
  let config, profile, sinks = setup ~n:24 () in
  let budget = 5000.0 in
  let tree = Gcr.Router.route ~skew_budget:budget config profile sinks in
  Gcr.Verify.structural tree;
  check_float "budget recorded" budget tree.Gcr.Gated_tree.skew_budget;
  let r = Gcr.Report.of_tree tree in
  Alcotest.(check bool)
    (Printf.sprintf "skew %.1f within budget" r.Gcr.Report.skew)
    true
    (r.Gcr.Report.skew <= budget +. 1e-6);
  (* gate reduction preserves the budget *)
  let reduced = Gcr.Gate_reduction.reduce_greedy tree in
  let r' = Gcr.Report.of_tree reduced in
  Alcotest.(check bool) "budget survives reduction" true
    (r'.Gcr.Report.skew <= budget +. 1e-6)

let test_skew_budget_validation () =
  let config, profile, sinks = setup ~n:4 () in
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Gated_tree.build: negative skew budget") (fun () ->
      ignore (Gcr.Router.route ~skew_budget:(-1.0) config profile sinks))

(* ------------------------------------------------------------------ *)
(* Activity-only topology (Tellez-style baseline)                     *)
(* ------------------------------------------------------------------ *)

let test_activity_router_end_to_end () =
  let config, profile, sinks = setup ~n:20 () in
  let tree = Gcr.Activity_router.route config profile sinks in
  Gcr.Verify.structural tree;
  let r = Gcr.Report.of_tree tree in
  Alcotest.(check bool) "zero skew" true
    (r.Gcr.Report.skew /. (1.0 +. r.Gcr.Report.phase_delay) < 1e-9)

let test_activity_router_groups_by_activity () =
  (* two co-active modules far apart vs. an independent pair close by: the
     activity-only ordering must merge the correlated pair first even
     though it is geometrically worse *)
  let sinks =
    [|
      mk_sink 0 0.0 0.0 10.0 0;
      mk_sink 1 900.0 900.0 10.0 0;
      (* same module, max correlation *)
      mk_sink 2 100.0 0.0 10.0 1;
      mk_sink 3 0.0 100.0 10.0 2;
    |]
  in
  let rtl = Activity.Rtl.of_lists ~n_modules:3 [ [ 0 ]; [ 1 ]; [ 2 ]; [ 1; 2 ] ] in
  let model = Activity.Cpu_model.make rtl in
  let profile =
    Activity.Profile.of_stream (Activity.Cpu_model.generate model (Util.Prng.create 5) 400)
  in
  let config = Gcr.Config.make ~die:(Geometry.Bbox.square ~side:1000.0) () in
  let topo = Gcr.Activity_router.topology config profile sinks in
  (* P(M0 or M0) = P(M0) < P of any cross-module union, so 0-1 merge first *)
  Alcotest.(check bool) "correlated sinks merged first" true
    (Clocktree.Topo.children topo 4 = Some (0, 1))

let prop_activity_router_matches_dense =
  (* Both engines must make per-step-optimal merge decisions. A direct
     W_total diff is unsound here: saturated P(EN) = 1 over overlapping
     merge regions (distance 0) ties costs exactly despite the 1e-6
     distance tie-breaker, ties cascade, and the engines then legally
     build different trees (DESIGN.md §8) — so the oracle replays each
     engine's merge sequence and accepts any min-achieving choice. *)
  QCheck.Test.make ~name:"activity topology = dense reference (per-step optimal)"
    ~count:12
    QCheck.(pair (int_range 2 60) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let config, profile, sinks = setup ~n ~seed:(seed land 0xffff) () in
      Conformance.Oracles.greedy_optimal ~what:"NN-heap" config profile sinks
        (Gcr.Activity_router.topology config profile sinks);
      Conformance.Oracles.greedy_optimal ~what:"dense" config profile sinks
        (Gcr.Activity_router.topology_dense config profile sinks);
      true)

(* Profiles without a signature kernel cost each candidate by a direct
   Profile.p of the union. A tables-only profile answers P bit for bit
   like its kernel, so the kernel-backed oracle replays the tables-only
   merge sequence exactly. *)
let prop_activity_router_kernel_less =
  QCheck.Test.make ~name:"kernel-less activity merge is per-step optimal" ~count:12
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let scn = Conformance.Scenario.generate (Util.Prng.create seed) ~tag:"tables-only" in
      let config = Conformance.Scenario.config scn in
      let profile = Conformance.Scenario.profile scn in
      let sinks = scn.Conformance.Scenario.sinks in
      Conformance.Oracles.greedy_optimal ~what:"tables-only" config profile sinks
        (Gcr.Activity_router.topology config (Activity.Profile.tables_only profile) sinks);
      true)

let test_activity_router_analytic () =
  let n = 24 in
  let prng = Util.Prng.create 17 in
  let sinks =
    Array.init n (fun id ->
        mk_sink id
          (Util.Prng.range prng 0.0 1000.0)
          (Util.Prng.range prng 0.0 1000.0)
          (Util.Prng.range prng 5.0 50.0)
          id)
  in
  let rtl =
    Benchmarks.Workload.make_rtl ~n_modules:n ~n_instructions:10 ~usage:0.4 ~seed:4 ()
  in
  let analytic = Activity.Profile.of_model (Benchmarks.Workload.cpu_model rtl) in
  let config = Gcr.Config.make ~die:(Geometry.Bbox.square ~side:1000.0) () in
  let tree = Gcr.Activity_router.route config analytic sinks in
  Gcr.Verify.structural tree;
  Alcotest.(check int) "every sink routed" n
    (Clocktree.Topo.n_sinks tree.Gcr.Gated_tree.topo)

let test_activity_router_usually_worse_geometry () =
  let config, profile, sinks = setup ~n:24 () in
  let act = Gcr.Activity_router.route config profile sinks in
  let sc = Gcr.Router.route config profile sinks in
  Alcotest.(check bool) "activity-only pays wirelength" true
    (Gcr.Cost.clock_wirelength act > Gcr.Cost.clock_wirelength sc)

(* ------------------------------------------------------------------ *)
(* Refine (NNI)                                                       *)
(* ------------------------------------------------------------------ *)

let test_refine_never_worse () =
  let config, profile, sinks = setup ~n:14 () in
  let tree = Gcr.Router.route config profile sinks in
  let refined, stats = Gcr.Refine.nni ~max_passes:2 tree in
  Gcr.Verify.structural refined;
  Alcotest.(check bool) "not worse" true
    (stats.Gcr.Refine.w_after <= stats.Gcr.Refine.w_before +. 1e-9);
  Alcotest.(check (float 1e-9)) "w_after is the tree's W"
    (Gcr.Cost.w_total refined) stats.Gcr.Refine.w_after;
  Alcotest.(check bool) "passes counted" true (stats.Gcr.Refine.passes >= 1);
  (* the sink set is untouched *)
  Alcotest.(check (list int)) "leaves preserved" (List.init 14 Fun.id)
    (Clocktree.Topo.leaves_under refined.Gcr.Gated_tree.topo
       (Clocktree.Topo.root refined.Gcr.Gated_tree.topo))

let test_refine_fixes_bad_topology () =
  (* a deliberately terrible topology: merge far-apart sinks first; NNI
     must find improvements *)
  let prng = Util.Prng.create 99 in
  let sinks =
    Array.init 8 (fun id ->
        mk_sink id
          (Util.Prng.range prng 0.0 1000.0)
          (Util.Prng.range prng 0.0 1000.0)
          20.0 id)
  in
  let profile =
    Benchmarks.Workload.profile ~n_modules:8 ~n_instructions:6 ~usage:0.4
      ~stream_length:300 ~seed:7 ()
  in
  let config = Gcr.Config.make ~die:(Geometry.Bbox.square ~side:1000.0) () in
  (* pair sink i with sink i+4: maximal spatial mismatch *)
  let bad_topo =
    Clocktree.Topo.of_merges ~n_sinks:8
      [| (0, 4); (1, 5); (2, 6); (3, 7); (8, 9); (10, 11); (12, 13) |]
  in
  let bad =
    Gcr.Gated_tree.build config profile sinks bad_topo ~kind:(fun _ ->
        Gcr.Gated_tree.Gated)
  in
  let refined, stats = Gcr.Refine.nni ~max_passes:4 bad in
  Alcotest.(check bool)
    (Printf.sprintf "improves bad topology: %.0f -> %.0f" stats.Gcr.Refine.w_before
       stats.Gcr.Refine.w_after)
    true
    (stats.Gcr.Refine.moves > 0
    && Gcr.Cost.w_total refined < Gcr.Cost.w_total bad);
  Gcr.Verify.structural refined

let test_refine_validation () =
  let config, profile, sinks = setup ~n:4 () in
  let tree = Gcr.Router.route config profile sinks in
  Alcotest.check_raises "zero passes"
    (Invalid_argument "Refine.nni: need at least one pass") (fun () ->
      ignore (Gcr.Refine.nni ~max_passes:0 tree))

(* ------------------------------------------------------------------ *)
(* Analytic profiles through the router                               *)
(* ------------------------------------------------------------------ *)

let test_analytic_profile_routes () =
  let n = 16 in
  let prng = Util.Prng.create 13 in
  let sinks =
    Array.init n (fun id ->
        mk_sink id
          (Util.Prng.range prng 0.0 1000.0)
          (Util.Prng.range prng 0.0 1000.0)
          (Util.Prng.range prng 5.0 50.0)
          id)
  in
  let rtl =
    Benchmarks.Workload.make_rtl ~n_modules:n ~n_instructions:10 ~usage:0.4 ~seed:3 ()
  in
  let model = Benchmarks.Workload.cpu_model rtl in
  let analytic = Activity.Profile.of_model model in
  let config = Gcr.Config.make ~die:(Geometry.Bbox.square ~side:1000.0) () in
  let tree = Gcr.Router.route config analytic sinks in
  Gcr.Verify.structural tree;
  Alcotest.(check bool) "positive W" true (Gcr.Cost.w_total tree > 0.0);
  (* a long sampled stream gives nearly the same cost on the same topology *)
  let sampled = Activity.Profile.generate model ~seed:11 ~length:60_000 in
  let resampled =
    Gcr.Gated_tree.build config sampled sinks tree.Gcr.Gated_tree.topo
      ~kind:(fun _ -> Gcr.Gated_tree.Gated)
  in
  let wa = Gcr.Cost.w_total tree and ws = Gcr.Cost.w_total resampled in
  Alcotest.(check bool)
    (Printf.sprintf "analytic %.0f ~ sampled %.0f" wa ws)
    true
    (Float.abs (wa -. ws) /. ws < 0.05)

let test_analytic_profile_has_no_stream () =
  let model = Benchmarks.Workload.cpu_model Activity.Rtl.paper_example in
  let analytic = Activity.Profile.of_model model in
  Alcotest.(check bool) "flagged" true (Activity.Profile.is_analytic analytic);
  Alcotest.check_raises "no stream"
    (Invalid_argument "Profile.stream: analytic profile has no instruction stream")
    (fun () -> ignore (Activity.Profile.stream analytic))

(* ------------------------------------------------------------------ *)
(* Flow                                                               *)
(* ------------------------------------------------------------------ *)

let test_flow_default_matches_manual () =
  let config, profile, sinks = setup ~n:16 () in
  let via_flow = Gcr.Flow.run config profile sinks in
  let manual =
    Gcr.Gate_reduction.reduce_greedy (Gcr.Router.route config profile sinks)
  in
  check_float "same W" (Gcr.Cost.w_total manual) (Gcr.Cost.w_total via_flow);
  Alcotest.(check int) "same gates" (Gcr.Gated_tree.gate_count manual)
    (Gcr.Gated_tree.gate_count via_flow)

let test_flow_options () =
  let config, profile, sinks = setup ~n:12 () in
  let options =
    {
      Gcr.Flow.skew_budget = 1000.0;
      reduction = Gcr.Flow.Fraction 0.5;
      sizing = Gcr.Flow.Uniform 2.0;
      shards = Gcr.Flow.Flat;
      gate_share = Gcr.Flow.No_share;
      eco = Gcr.Flow.No_eco;
    }
  in
  let tree = Gcr.Flow.run ~options config profile sinks in
  Gcr.Verify.structural tree;
  check_float "budget" 1000.0 tree.Gcr.Gated_tree.skew_budget;
  Array.iteri
    (fun v s ->
      if v <> Clocktree.Topo.root tree.Gcr.Gated_tree.topo then
        check_float "uniform scale" 2.0 s)
    tree.Gcr.Gated_tree.scale;
  Alcotest.(check int) "half gates" 11 (Gcr.Gated_tree.gate_count tree)

(* ------------------------------------------------------------------ *)
(* Sharded router                                                     *)
(* ------------------------------------------------------------------ *)

let test_shard_route_verifies () =
  let config, profile, sinks = setup ~n:64 () in
  List.iter
    (fun shards ->
      let tree = Gcr.Shard_router.route ~shards config profile sinks in
      Gcr.Verify.structural tree;
      Alcotest.(check int)
        (Printf.sprintf "all edges gated, %d shards" shards)
        (2 * 64 - 2) (Gcr.Gated_tree.gate_count tree))
    [ 2; 4; 7 ]

let test_shard_one_matches_flat () =
  let config, profile, sinks = setup ~n:40 () in
  let flat = Gcr.Router.route config profile sinks in
  let sharded = Gcr.Shard_router.route ~shards:1 config profile sinks in
  Alcotest.(check bool) "same topology" true
    (Clocktree.Topo.equal flat.Gcr.Gated_tree.topo sharded.Gcr.Gated_tree.topo);
  check_float "same cost" (Gcr.Cost.w_total flat) (Gcr.Cost.w_total sharded)

let test_shard_cost_tolerance () =
  (* Region boundaries forbid some merges the flat route can make, so the
     sharded cost is a bounded regression — a few percent here, and well
     inside the 10% tolerance EXPERIMENTS.md documents. *)
  let config, profile, sinks = setup ~n:64 () in
  let flat = Gcr.Cost.w_total (Gcr.Router.route config profile sinks) in
  List.iter
    (fun shards ->
      let sharded =
        Gcr.Cost.w_total (Gcr.Shard_router.route ~shards config profile sinks)
      in
      Alcotest.(check bool)
        (Printf.sprintf "cost within 10%% of flat, %d shards" shards)
        true
        (sharded <= 1.10 *. flat))
    [ 2; 4; 8 ]

let test_shard_domains_invariance () =
  (* The pool size may change wall time, never the answer. *)
  let config, profile, sinks = setup ~n:48 () in
  let t1 = Gcr.Shard_router.route ~shards:4 ~domains:1 config profile sinks in
  let t4 = Gcr.Shard_router.route ~shards:4 ~domains:4 config profile sinks in
  Alcotest.(check bool) "same topology" true
    (Clocktree.Topo.equal t1.Gcr.Gated_tree.topo t4.Gcr.Gated_tree.topo);
  check_float "same cost" (Gcr.Cost.w_total t1) (Gcr.Cost.w_total t4)

let test_auto_shards () =
  Alcotest.(check int) "tiny problems stay flat" 1
    (Gcr.Shard_router.auto_shards ~n:200);
  Alcotest.(check int) "first split" 2 (Gcr.Shard_router.auto_shards ~n:256);
  Alcotest.(check int) "10^4" 9 (Gcr.Shard_router.auto_shards ~n:10_000);
  Alcotest.(check int) "10^5" 97 (Gcr.Shard_router.auto_shards ~n:100_000);
  let prev = ref 0 in
  for n = 1 to 4000 do
    let s = Gcr.Shard_router.auto_shards ~n in
    Alcotest.(check bool) "monotone in n" true (s >= !prev);
    Alcotest.(check bool) "never exceeds n" true (s <= max 1 n);
    prev := s
  done

let test_shard_plan_regions () =
  let config, profile, sinks = setup ~n:64 () in
  let plan = Gcr.Shard_router.plan ~shards:4 config profile sinks in
  let seen = Array.make 64 0 in
  Array.iter
    (Array.iter (fun id -> seen.(id) <- seen.(id) + 1))
    plan.Gcr.Shard_router.regions;
  Alcotest.(check bool) "regions cover each sink once" true
    (Array.for_all (fun c -> c = 1) seen);
  Array.iteri
    (fun r region ->
      Alcotest.(check int)
        (Printf.sprintf "region %d merge count" r)
        (max 0 (Array.length region - 1))
        (Array.length plan.Gcr.Shard_router.region_merges.(r)))
    plan.Gcr.Shard_router.regions

let test_flow_sharded_run () =
  let config, profile, sinks = setup ~n:48 () in
  let options = { Gcr.Flow.default with Gcr.Flow.shards = Gcr.Flow.Shards 4 } in
  let tree = Gcr.Flow.run ~options config profile sinks in
  Gcr.Verify.structural tree;
  Alcotest.(check string) "label carries shard count" "gated+greedy+sharded:4"
    (Gcr.Flow.label options);
  Alcotest.(check string) "auto label" "gated+greedy+sharded"
    (Gcr.Flow.label { options with Gcr.Flow.shards = Gcr.Flow.Auto_shards })

let test_flow_rejects_bad_shards () =
  let config, profile, sinks = setup ~n:8 () in
  let options = { Gcr.Flow.default with Gcr.Flow.shards = Gcr.Flow.Shards 0 } in
  match Gcr.Flow.run_checked ~options config profile sinks with
  | Ok _ -> Alcotest.fail "Shards 0 must be rejected"
  | Error errs ->
    Alcotest.(check bool) "reported as degenerate input" true
      (List.exists
         (function
           | Util.Gcr_error.Degenerate_input _ -> true
           | _ -> false)
         errs)

(* ------------------------------------------------------------------ *)
(* Spice                                                              *)
(* ------------------------------------------------------------------ *)

let test_spice_render () =
  let config, profile, sinks = setup ~n:8 () in
  let tree = Gcr.Router.route config profile sinks in
  let deck = Gcr.Spice.render tree in
  Alcotest.(check bool) "subckt" true
    (Astring.String.is_infix ~affix:".subckt andgate" deck);
  Alcotest.(check bool) "gate instances" true
    (Astring.String.is_infix ~affix:"Xgate" deck);
  Alcotest.(check bool) "sink loads" true (Astring.String.is_infix ~affix:"Cload0" deck);
  Alcotest.(check bool) "controller source" true
    (Astring.String.is_infix ~affix:"Vctrl" deck);
  Alcotest.(check bool) "ends" true (Astring.String.is_suffix ~affix:".end\n" deck);
  (* one gate instance per gated edge *)
  let count_substring sub s =
    let n = ref 0 and i = ref 0 in
    let ls = String.length sub and l = String.length s in
    while !i + ls <= l do
      if String.sub s !i ls = sub then incr n;
      incr i
    done;
    !n
  in
  Alcotest.(check int) "gate count" (Gcr.Gated_tree.gate_count tree)
    (count_substring "Xgate" deck)

let test_spice_sections () =
  let config, profile, sinks = setup ~n:6 () in
  let tree = Gcr.Router.route config profile sinks in
  let d1 = Gcr.Spice.render ~sections:1 tree in
  let d4 = Gcr.Spice.render ~sections:4 tree in
  Alcotest.(check bool) "more sections, bigger deck" true
    (String.length d4 > String.length d1);
  Alcotest.check_raises "bad sections"
    (Invalid_argument "Spice.render: sections outside [1..16]") (fun () ->
      ignore (Gcr.Spice.render ~sections:0 tree))

(* ------------------------------------------------------------------ *)
(* Area / Report / Svg                                                *)
(* ------------------------------------------------------------------ *)

let test_area_breakdown () =
  let config, profile, sinks = setup ~n:12 () in
  let gated = Gcr.Router.route config profile sinks in
  let buffered = Gcr.Buffered.route config profile sinks in
  let ag = Gcr.Area.of_tree gated and ab = Gcr.Area.of_tree buffered in
  Alcotest.(check bool) "gated has control wire area" true (ag.Gcr.Area.control_wire > 0.0);
  check_float "buffered has none" 0.0 ab.Gcr.Area.control_wire;
  check_float "gated has no buffers" 0.0 ag.Gcr.Area.buffers;
  check_float "breakdown sums (gated)"
    ag.Gcr.Area.total
    (ag.Gcr.Area.clock_wire +. ag.Gcr.Area.control_wire +. ag.Gcr.Area.gates
    +. ag.Gcr.Area.buffers);
  Alcotest.(check bool) "gated area exceeds buffered (paper Fig 3)" true
    (ag.Gcr.Area.total > ab.Gcr.Area.total)

let test_report_fields () =
  let config, profile, sinks = setup ~n:12 () in
  let tree = Gcr.Router.route config profile sinks in
  let r = Gcr.Report.of_tree ~name:"gated" tree in
  Alcotest.(check string) "name" "gated" r.Gcr.Report.name;
  Alcotest.(check int) "sinks" 12 r.Gcr.Report.n_sinks;
  check_float "w consistency" r.Gcr.Report.w_total
    (r.Gcr.Report.w_clock +. r.Gcr.Report.w_ctrl);
  let s = Util.Text_table.render (Gcr.Report.comparison_table [ r ]) in
  Alcotest.(check bool) "table renders" true (String.length s > 0)

let prop_cost_decomposes_over_edges =
  QCheck.Test.make ~name:"W(T) = root load + sum of per-edge switched caps" ~count:20
    (QCheck.int_range 2 24)
    (fun n ->
      let config, profile, sinks = setup ~n ~seed:(n * 3) () in
      let tree =
        Gcr.Gate_reduction.reduce_fraction
          (Gcr.Router.route config profile sinks)
          ~fraction:0.4
      in
      let topo = tree.Gcr.Gated_tree.topo in
      let total = ref (Gcr.Gated_tree.node_load tree (Clocktree.Topo.root topo)) in
      Clocktree.Topo.iter_bottom_up topo (fun v ->
          total := !total +. Gcr.Cost.edge_switched_cap tree v);
      Float.abs (!total -. Gcr.Cost.w_clock tree) <= 1e-9 *. (1.0 +. !total))

let prop_w_total_monotone_in_control_weight =
  QCheck.Test.make ~name:"W grows with the control weight" ~count:20
    (QCheck.int_range 2 16)
    (fun n ->
      let _, profile, sinks = setup ~n ~seed:(n * 5) () in
      let die = Geometry.Bbox.square ~side:1000.0 in
      let at weight =
        let config = Gcr.Config.make ~control_weight:weight ~die () in
        Gcr.Cost.w_total (Gcr.Router.route config profile sinks)
      in
      at 0.5 <= at 2.0 +. 1e-9)

let test_svg_renders () =
  let config, profile, sinks = setup ~n:8 () in
  let tree = Gcr.Router.route config profile sinks in
  let svg = Gcr.Svg.render ~show_regions:true tree in
  Alcotest.(check bool) "svg header" true
    (Astring.String.is_prefix ~affix:"<svg" svg);
  Alcotest.(check bool) "has wires" true
    (Astring.String.is_infix ~affix:"polyline" svg);
  Alcotest.(check bool) "closes" true (Astring.String.is_suffix ~affix:"</svg>\n" svg)

(* ------------------------------------------------------------------ *)
(* ECO drift detection and local repair                               *)
(* ------------------------------------------------------------------ *)

(* Identity workload: instruction i exercises exactly module i, so a
   stream edit maps to a precisely known set of drifting enables. Sinks
   sit on a line with sinks 0 and 1 adjacent (they merge first). *)
let eco_setup () =
  let n = 8 in
  let rtl =
    Activity.Rtl.make ~n_modules:n
      ~uses:(Array.init n (fun i -> Activity.Module_set.singleton n i))
      ()
  in
  let base_trace = Array.init 400 (fun c -> c mod n) in
  let profile = Activity.Profile.of_stream (Activity.Instr_stream.make rtl base_trace) in
  let sinks =
    Array.init n (fun id ->
        let x = if id <= 1 then 10.0 +. float_of_int id else 100.0 *. float_of_int id in
        mk_sink id x 0.0 10.0 id)
  in
  let config = Gcr.Config.make ~die:(Geometry.Bbox.square ~side:1000.0) () in
  (rtl, base_trace, config, profile, sinks)

let test_eco_threshold_validation () =
  let _, _, config, profile, sinks = eco_setup () in
  let tree = Gcr.Flow.run config profile sinks in
  List.iter
    (fun bad ->
      Alcotest.check_raises
        (Printf.sprintf "threshold %f rejected" bad)
        (Invalid_argument "Eco.detect: threshold must be finite and positive")
        (fun () -> ignore (Gcr.Eco.detect ~threshold:bad tree profile)))
    [ 0.0; -0.1; Float.nan; Float.infinity ]

let test_eco_no_drift_keeps_topology () =
  let _, _, config, profile, sinks = eco_setup () in
  let tree = Gcr.Flow.run config profile sinks in
  let report = Gcr.Eco.repair ~options:Gcr.Flow.default tree profile in
  Alcotest.(check int) "nothing drifted" 0 (List.length report.Gcr.Eco.drifted);
  Alcotest.(check (list int)) "no stale roots" [] report.Gcr.Eco.stale;
  Alcotest.(check int) "no sinks re-merged" 0 report.Gcr.Eco.resinks;
  Alcotest.(check bool) "no full rebuild" false report.Gcr.Eco.full_rebuild;
  Alcotest.(check bool) "topology preserved" true
    (Clocktree.Topo.equal tree.Gcr.Gated_tree.topo
       report.Gcr.Eco.tree.Gcr.Gated_tree.topo);
  Gcr.Verify.structural report.Gcr.Eco.tree

let test_eco_local_repair () =
  let rtl, base_trace, config, profile, sinks = eco_setup () in
  let tree = Gcr.Flow.run config profile sinks in
  (* Replace every I1 by I0: modules 0 and 1 swap activity while every
     enable containing both or neither keeps its waveform bit-for-bit —
     only the two leaves drift, and repair stays inside their parent. *)
  let drifted_profile =
    Activity.Profile.of_stream
      (Activity.Instr_stream.make rtl
         (Array.map (fun i -> if i = 1 then 0 else i) base_trace))
  in
  let options = { Gcr.Flow.default with Gcr.Flow.eco = Gcr.Flow.Eco { threshold = 0.3 } } in
  let report = Gcr.Eco.repair ~options tree drifted_profile in
  Alcotest.(check (list int)) "exactly the two swapped leaves drift" [ 0; 1 ]
    (List.map (fun d -> d.Gcr.Eco.node) report.Gcr.Eco.drifted);
  Alcotest.(check int) "one stale subtree" 1 (List.length report.Gcr.Eco.stale);
  Alcotest.(check int) "only the local sinks re-merged" 2 report.Gcr.Eco.resinks;
  Alcotest.(check bool) "local, not a full rebuild" false
    report.Gcr.Eco.full_rebuild;
  Gcr.Verify.structural report.Gcr.Eco.tree;
  let scratch = Gcr.Flow.run ~options config drifted_profile sinks in
  let w_rep = Gcr.Cost.w_total report.Gcr.Eco.tree
  and w_scr = Gcr.Cost.w_total scratch in
  (* One-sided: the bound is on the cost of pinning the surviving merge
     structure. Here repair actually beats the scratch greedy route —
     the dead module 1 makes the activity-greedy merge chase inactive
     sinks across the die, which the preserved topology never does. *)
  Alcotest.(check bool)
    (Printf.sprintf "repaired W %.1f at most 25%% over scratch %.1f" w_rep w_scr)
    true
    (w_rep < w_scr *. 1.25)

let test_eco_widespread_drift_full_rebuild () =
  let rtl, _, config, profile, sinks = eco_setup () in
  let tree = Gcr.Flow.run config profile sinks in
  (* Parking the whole trace on I0 drifts every leaf: locality cannot
     pay, so repair must degenerate to an honest full re-route equal to
     the ordinary pipeline bit for bit. *)
  let drifted_profile =
    Activity.Profile.of_stream
      (Activity.Instr_stream.make rtl (Array.make 400 0))
  in
  let report = Gcr.Eco.repair ~options:Gcr.Flow.default tree drifted_profile in
  Alcotest.(check bool) "full rebuild" true report.Gcr.Eco.full_rebuild;
  Alcotest.(check int) "every sink re-merged" (Array.length sinks)
    report.Gcr.Eco.resinks;
  let scratch = Gcr.Flow.run config drifted_profile sinks in
  Alcotest.(check bool) "same topology as the pipeline" true
    (Clocktree.Topo.equal scratch.Gcr.Gated_tree.topo
       report.Gcr.Eco.tree.Gcr.Gated_tree.topo);
  check_float "same W as the pipeline" (Gcr.Cost.w_total scratch)
    (Gcr.Cost.w_total report.Gcr.Eco.tree)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "gcr"
    [
      ( "controller",
        [
          Alcotest.test_case "centralized" `Quick test_controller_centralized;
          Alcotest.test_case "distributed" `Quick test_controller_distributed;
          Alcotest.test_case "k=1" `Quick test_controller_k1_is_centralized;
          Alcotest.test_case "validation" `Quick test_controller_validation;
          qt prop_distributed_wires_shorter;
        ] );
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "validation" `Quick test_config_validation;
        ] );
      ( "enable",
        [
          Alcotest.test_case "of_sink" `Quick test_enable_of_sink;
          Alcotest.test_case "merge" `Quick test_enable_merge;
          Alcotest.test_case "bad module" `Quick test_enable_of_sink_bad_module;
          Alcotest.test_case "compute_all nested" `Quick test_enable_compute_all_nested;
        ] );
      ( "gated_tree",
        [
          Alcotest.test_case "counts" `Quick test_gated_tree_counts;
          Alcotest.test_case "edge probability" `Quick test_gated_tree_edge_probability;
          Alcotest.test_case "node load" `Quick test_gated_tree_node_load;
          Alcotest.test_case "invariants" `Quick test_gated_tree_invariants;
          Alcotest.test_case "rebuild" `Quick test_gated_tree_rebuild;
        ] );
      ( "cost",
        [
          Alcotest.test_case "W(T) hand computed" `Quick test_cost_w_clock_hand_computed;
          Alcotest.test_case "W(S) hand computed" `Quick test_cost_w_ctrl_hand_computed;
          Alcotest.test_case "buffered no control" `Quick test_cost_buffered_no_control;
          Alcotest.test_case "subtree cap" `Quick test_cost_subtree_switched_cap;
          Alcotest.test_case "Eq (3)" `Quick test_cost_merge_sc_formula;
        ] );
      ( "router",
        [
          Alcotest.test_case "end to end" `Quick test_router_end_to_end;
          Alcotest.test_case "deterministic" `Quick test_router_deterministic;
          Alcotest.test_case "prefers low-activity pair" `Quick test_router_prefers_low_activity_pair;
          Alcotest.test_case "buffered baseline" `Quick test_buffered_baseline;
          Alcotest.test_case "ungated baseline" `Quick test_ungated_baseline;
          qt prop_router_cost_matches_merge_sc;
          Alcotest.test_case "NaN region is a typed error" `Quick
            test_router_nan_region_typed_error;
        ] );
      ( "gate_reduction",
        [
          Alcotest.test_case "fraction counts" `Quick test_reduction_fraction_counts;
          Alcotest.test_case "fraction validation" `Quick test_reduction_fraction_validation;
          Alcotest.test_case "greedy improves" `Quick test_reduction_greedy_improves;
          Alcotest.test_case "beats buffered at low activity" `Quick
            test_reduction_beats_buffered_at_low_activity;
          Alcotest.test_case "optimal beats heuristics" `Quick
            test_reduction_optimal_beats_heuristics;
          qt prop_optimal_matches_exhaustive_on_tiny_trees;
          Alcotest.test_case "optimal validates in sim" `Quick
            test_reduction_optimal_validates_in_sim;
          Alcotest.test_case "gain of always-on gate" `Quick test_removal_gain_always_on_gate;
          Alcotest.test_case "gain requires gate" `Quick test_removal_gain_requires_gate;
          Alcotest.test_case "rules run" `Quick test_reduction_rules_runs;
          Alcotest.test_case "rule 1" `Quick test_reduction_rules_rule1_removes_always_on;
          Alcotest.test_case "forced insertion" `Quick test_forced_insertion_keeps_gates;
        ] );
      ( "sizing",
        [
          Alcotest.test_case "uniform" `Quick test_sizing_uniform;
          Alcotest.test_case "upsizing cuts delay" `Quick test_sizing_uniform_upsizing_cuts_delay;
          Alcotest.test_case "proportional" `Quick test_sizing_proportional;
          Alcotest.test_case "tapered" `Quick test_sizing_tapered;
          Alcotest.test_case "tapered beats proportional" `Quick
            test_sizing_tapered_beats_proportional_on_wire;
          Alcotest.test_case "validation" `Quick test_sizing_validation;
        ] );
      ( "skew_budget",
        [
          Alcotest.test_case "route" `Quick test_skew_budget_route;
          Alcotest.test_case "validation" `Quick test_skew_budget_validation;
        ] );
      ( "activity_router",
        [
          Alcotest.test_case "end to end" `Quick test_activity_router_end_to_end;
          Alcotest.test_case "groups by activity" `Quick test_activity_router_groups_by_activity;
          qt prop_activity_router_matches_dense;
          qt prop_activity_router_kernel_less;
          Alcotest.test_case "analytic profile" `Quick test_activity_router_analytic;
          Alcotest.test_case "pays wirelength" `Quick test_activity_router_usually_worse_geometry;
        ] );
      ( "refine",
        [
          Alcotest.test_case "never worse" `Quick test_refine_never_worse;
          Alcotest.test_case "fixes bad topology" `Quick test_refine_fixes_bad_topology;
          Alcotest.test_case "validation" `Quick test_refine_validation;
        ] );
      ( "analytic_profile",
        [
          Alcotest.test_case "routes" `Quick test_analytic_profile_routes;
          Alcotest.test_case "no stream" `Quick test_analytic_profile_has_no_stream;
        ] );
      ( "flow",
        [
          Alcotest.test_case "default matches manual" `Quick test_flow_default_matches_manual;
          Alcotest.test_case "options" `Quick test_flow_options;
        ] );
      ( "eco",
        [
          Alcotest.test_case "threshold validation" `Quick
            test_eco_threshold_validation;
          Alcotest.test_case "no drift keeps topology" `Quick
            test_eco_no_drift_keeps_topology;
          Alcotest.test_case "local repair" `Quick test_eco_local_repair;
          Alcotest.test_case "widespread drift rebuilds" `Quick
            test_eco_widespread_drift_full_rebuild;
        ] );
      ( "shard_router",
        [
          Alcotest.test_case "verify structural" `Quick test_shard_route_verifies;
          Alcotest.test_case "shards=1 = flat" `Quick test_shard_one_matches_flat;
          Alcotest.test_case "cost tolerance" `Quick test_shard_cost_tolerance;
          Alcotest.test_case "domains invariance" `Quick
            test_shard_domains_invariance;
          Alcotest.test_case "auto_shards" `Quick test_auto_shards;
          Alcotest.test_case "plan regions" `Quick test_shard_plan_regions;
          Alcotest.test_case "flow sharded run" `Quick test_flow_sharded_run;
          Alcotest.test_case "flow rejects bad shards" `Quick
            test_flow_rejects_bad_shards;
        ] );
      ( "spice",
        [
          Alcotest.test_case "render" `Quick test_spice_render;
          Alcotest.test_case "sections" `Quick test_spice_sections;
        ] );
      ( "area_report_svg",
        [
          Alcotest.test_case "area breakdown" `Quick test_area_breakdown;
          Alcotest.test_case "report fields" `Quick test_report_fields;
          Alcotest.test_case "svg renders" `Quick test_svg_renders;
          qt prop_cost_decomposes_over_edges;
          qt prop_w_total_monotone_in_control_weight;
        ] );
    ]
