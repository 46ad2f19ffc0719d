(* Tests for the zero-skew clock-tree substrate: technology records, the
   Tsay zero-skew split (with and without gates, including wire snaking),
   topologies, the two DME phases, the greedy engine and the
   nearest-neighbor baseline. The headline property: every embedded tree,
   under every gate assignment, has (re-computed) Elmore skew ~ 0. *)

let check_float = Alcotest.(check (float 1e-6))
let pt = Geometry.Point.make
let tech = Clocktree.Tech.default

let mk_sink id x y cap =
  Clocktree.Sink.make ~id ~loc:(pt x y) ~cap ~module_id:id

let random_sinks prng n =
  Array.init n (fun id ->
      mk_sink id
        (Util.Prng.range prng 0.0 1000.0)
        (Util.Prng.range prng 0.0 1000.0)
        (Util.Prng.range prng 5.0 50.0))

(* ------------------------------------------------------------------ *)
(* Tech                                                               *)
(* ------------------------------------------------------------------ *)

let test_tech_default_valid () = Clocktree.Tech.validate tech

let test_tech_buffer_half_size () =
  check_float "input cap" (tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap /. 2.0)
    tech.Clocktree.Tech.buffer.Clocktree.Tech.input_cap;
  check_float "area" (tech.Clocktree.Tech.and_gate.Clocktree.Tech.area /. 2.0)
    tech.Clocktree.Tech.buffer.Clocktree.Tech.area;
  (* same clock path minus the enable input: drive and delay match, so a
     gate can be swapped for a buffer without disturbing zero skew *)
  check_float "drive matches" tech.Clocktree.Tech.and_gate.Clocktree.Tech.drive_res
    tech.Clocktree.Tech.buffer.Clocktree.Tech.drive_res;
  check_float "intrinsic matches"
    tech.Clocktree.Tech.and_gate.Clocktree.Tech.intrinsic_delay
    tech.Clocktree.Tech.buffer.Clocktree.Tech.intrinsic_delay

let test_tech_scale_gate () =
  let g = Clocktree.Tech.scale_gate tech.Clocktree.Tech.and_gate 2.0 in
  check_float "cap doubles" (2.0 *. tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap)
    g.Clocktree.Tech.input_cap;
  check_float "drive halves" (tech.Clocktree.Tech.and_gate.Clocktree.Tech.drive_res /. 2.0)
    g.Clocktree.Tech.drive_res;
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Tech.scale_gate: non-positive factor") (fun () ->
      ignore (Clocktree.Tech.scale_gate g 0.0))

let test_tech_validate_catches () =
  let bad = { tech with Clocktree.Tech.unit_res = 0.0 } in
  Alcotest.check_raises "zero unit_res"
    (Invalid_argument "Tech.validate: unit_res must be positive") (fun () ->
      Clocktree.Tech.validate bad)

(* ------------------------------------------------------------------ *)
(* Sink                                                               *)
(* ------------------------------------------------------------------ *)

let test_sink_validation () =
  Alcotest.check_raises "bad cap"
    (Invalid_argument "Sink.make: load capacitance must be positive") (fun () ->
      ignore (Clocktree.Sink.make ~id:0 ~loc:(pt 0.0 0.0) ~cap:0.0 ~module_id:0));
  Alcotest.check_raises "id mismatch"
    (Invalid_argument "Sink.validate_array: sink 0 has id 1") (fun () ->
      Clocktree.Sink.validate_array [| mk_sink 1 0.0 0.0 1.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Sink.validate_array: no sinks")
    (fun () -> Clocktree.Sink.validate_array [||])

(* ------------------------------------------------------------------ *)
(* Zskew                                                              *)
(* ------------------------------------------------------------------ *)

let plain delay cap = { Clocktree.Zskew.delay; cap; gate = None }
let gated delay cap = { Clocktree.Zskew.delay; cap; gate = Some tech.Clocktree.Tech.and_gate }

let test_zskew_symmetric () =
  let s = Clocktree.Zskew.split tech (plain 0.0 10.0) (plain 0.0 10.0) ~dist:100.0 in
  check_float "ea" 50.0 s.Clocktree.Zskew.ea;
  check_float "eb" 50.0 s.Clocktree.Zskew.eb;
  Alcotest.(check bool) "no snake" true (s.Clocktree.Zskew.snaked = Clocktree.Zskew.No_snake)

let test_zskew_heavier_side_shorter () =
  (* The branch with larger downstream capacitance accumulates delay faster,
     so it must receive the shorter wire. *)
  let s = Clocktree.Zskew.split tech (plain 0.0 100.0) (plain 0.0 10.0) ~dist:100.0 in
  Alcotest.(check bool) "heavy side shorter" true
    (s.Clocktree.Zskew.ea < s.Clocktree.Zskew.eb)

let test_zskew_hand_computed () =
  (* r = 0.1, c = 0.2. Branches: (t=0, C=10) and (t=0, C=10), d = 100.
     x = (0 + r*C*d + r*c*d^2/2) / (r*(c*d + 2C)) = (100 + 100)/(0.1*(20+20)) = 50. *)
  let s = Clocktree.Zskew.split tech (plain 0.0 10.0) (plain 0.0 10.0) ~dist:100.0 in
  (* delay = r*e*(c*e/2 + C) = 0.1*50*(0.2*25 + 10) = 5*15 = 75 *)
  check_float "merged delay" 75.0 s.Clocktree.Zskew.merged_delay;
  (* cap = 2*(c*50 + 10) = 2*20 = 40 *)
  check_float "merged cap" 40.0 s.Clocktree.Zskew.merged_cap

let test_zskew_balances () =
  let a = plain 120.0 30.0 and b = plain 40.0 12.0 in
  let s = Clocktree.Zskew.split tech a b ~dist:200.0 in
  let da = Clocktree.Zskew.branch_delay tech a s.Clocktree.Zskew.ea in
  let db = Clocktree.Zskew.branch_delay tech b s.Clocktree.Zskew.eb in
  check_float "balanced" da db;
  check_float "sum" 200.0 (s.Clocktree.Zskew.ea +. s.Clocktree.Zskew.eb)

let test_zskew_snake () =
  (* One branch far slower than the distance can compensate: the fast side
     receives elongated wire. *)
  let a = plain 1.0e6 10.0 and b = plain 0.0 10.0 in
  let s = Clocktree.Zskew.split tech a b ~dist:10.0 in
  Alcotest.(check bool) "snaked b" true (s.Clocktree.Zskew.snaked = Clocktree.Zskew.Snake_b);
  check_float "ea zero" 0.0 s.Clocktree.Zskew.ea;
  Alcotest.(check bool) "eb beyond distance" true (s.Clocktree.Zskew.eb > 10.0);
  let da = Clocktree.Zskew.branch_delay tech a s.Clocktree.Zskew.ea in
  let db = Clocktree.Zskew.branch_delay tech b s.Clocktree.Zskew.eb in
  Alcotest.(check bool) "balanced after snake" true
    (Float.abs (da -. db) <= 1e-6 *. (1.0 +. da))

let test_zskew_snake_other_side () =
  let a = plain 0.0 10.0 and b = plain 1.0e6 10.0 in
  let s = Clocktree.Zskew.split tech a b ~dist:10.0 in
  Alcotest.(check bool) "snaked a" true (s.Clocktree.Zskew.snaked = Clocktree.Zskew.Snake_a);
  check_float "eb zero" 0.0 s.Clocktree.Zskew.eb

let test_zskew_gate_decouples_cap () =
  let s = Clocktree.Zskew.split tech (gated 0.0 500.0) (gated 0.0 500.0) ~dist:100.0 in
  (* both branches gated: parent sees only two gate input caps *)
  check_float "merged cap = 2 Cg"
    (2.0 *. tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap)
    s.Clocktree.Zskew.merged_cap

let test_zskew_gate_adds_delay () =
  let sg = Clocktree.Zskew.split tech (gated 0.0 10.0) (gated 0.0 10.0) ~dist:100.0 in
  let sp = Clocktree.Zskew.split tech (plain 0.0 10.0) (plain 0.0 10.0) ~dist:100.0 in
  Alcotest.(check bool) "gate adds delay" true
    (sg.Clocktree.Zskew.merged_delay > sp.Clocktree.Zskew.merged_delay)

let test_zskew_branch_delay_formula () =
  (* no gate: r e (c e / 2 + C) + t = 0.1*10*(0.2*5 + 7) + 3 = 1*8 + 3 = 11 *)
  check_float "plain" 11.0 (Clocktree.Zskew.branch_delay tech (plain 3.0 7.0) 10.0);
  (* gate: intrinsic + drive*(c e + C) + wire = 30000 + 400*(2+7) + 8 = 33608 *)
  check_float "gated" 33611.0 (Clocktree.Zskew.branch_delay tech (gated 3.0 7.0) 10.0)

let test_zskew_head_cap () =
  check_float "plain head cap" 9.0
    (Clocktree.Zskew.branch_head_cap tech (plain 0.0 7.0) 10.0);
  check_float "gated head cap" tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap
    (Clocktree.Zskew.branch_head_cap tech (gated 0.0 7.0) 10.0)

let test_zskew_negative_dist () =
  Alcotest.check_raises "negative distance"
    (Invalid_argument "Zskew.split: negative or non-finite distance") (fun () ->
      ignore (Clocktree.Zskew.split tech (plain 0.0 1.0) (plain 0.0 1.0) ~dist:(-1.0)))

let branch_gen =
  QCheck.map
    (fun ((d, c), g) ->
      {
        Clocktree.Zskew.delay = d;
        cap = c +. 1.0;
        gate = (if g then Some tech.Clocktree.Tech.and_gate else None);
      })
    QCheck.(pair (pair (float_range 0.0 1.0e5) (float_range 0.0 200.0)) bool)

let prop_zskew_always_balances =
  QCheck.Test.make ~name:"split always balances branch delays" ~count:500
    QCheck.(pair (pair branch_gen branch_gen) (float_range 0.0 2000.0))
    (fun ((a, b), dist) ->
      let s = Clocktree.Zskew.split tech a b ~dist in
      let da = Clocktree.Zskew.branch_delay tech a s.Clocktree.Zskew.ea in
      let db = Clocktree.Zskew.branch_delay tech b s.Clocktree.Zskew.eb in
      s.Clocktree.Zskew.ea >= 0.0
      && s.Clocktree.Zskew.eb >= 0.0
      && s.Clocktree.Zskew.ea +. s.Clocktree.Zskew.eb >= dist -. 1e-9
      && Float.abs (da -. db) <= 1e-6 *. (1.0 +. Float.abs da))

(* ------------------------------------------------------------------ *)
(* Topo                                                               *)
(* ------------------------------------------------------------------ *)

let balanced4 = Clocktree.Topo.of_merges ~n_sinks:4 [| (0, 1); (2, 3); (4, 5) |]

let test_topo_basics () =
  Alcotest.(check int) "n_sinks" 4 (Clocktree.Topo.n_sinks balanced4);
  Alcotest.(check int) "n_nodes" 7 (Clocktree.Topo.n_nodes balanced4);
  Alcotest.(check int) "root" 6 (Clocktree.Topo.root balanced4);
  Alcotest.(check bool) "leaf" true (Clocktree.Topo.is_leaf balanced4 3);
  Alcotest.(check bool) "internal" false (Clocktree.Topo.is_leaf balanced4 4);
  Alcotest.(check bool) "children of 4" true
    (Clocktree.Topo.children balanced4 4 = Some (0, 1));
  Alcotest.(check bool) "children of leaf" true (Clocktree.Topo.children balanced4 0 = None);
  Alcotest.(check bool) "parent of 0" true (Clocktree.Topo.parent balanced4 0 = Some 4);
  Alcotest.(check bool) "parent of root" true (Clocktree.Topo.parent balanced4 6 = None)

let test_topo_depth_leaves () =
  Alcotest.(check int) "depth root" 0 (Clocktree.Topo.depth balanced4 6);
  Alcotest.(check int) "depth leaf" 2 (Clocktree.Topo.depth balanced4 0);
  Alcotest.(check (list int)) "leaves under 5" [ 2; 3 ]
    (Clocktree.Topo.leaves_under balanced4 5);
  Alcotest.(check (list int)) "leaves under root" [ 0; 1; 2; 3 ]
    (Clocktree.Topo.leaves_under balanced4 6);
  Alcotest.(check (list int)) "internal nodes" [ 4; 5; 6 ]
    (Clocktree.Topo.internal_nodes balanced4)

let test_topo_fold_postorder () =
  (* count leaves via the fold *)
  let count =
    Clocktree.Topo.fold_postorder balanced4 (fun _ -> 1) (fun _ a b -> a + b)
  in
  Alcotest.(check int) "leaf count" 4 count

let test_topo_single_sink () =
  let t = Clocktree.Topo.of_merges ~n_sinks:1 [||] in
  Alcotest.(check int) "root" 0 (Clocktree.Topo.root t);
  Alcotest.(check int) "nodes" 1 (Clocktree.Topo.n_nodes t)

let test_topo_replay () =
  (* outer ids: leaves 10..13, merges allocate from 20 *)
  let calls = ref [] and next = ref 20 in
  let merge a b =
    calls := (a, b) :: !calls;
    incr next;
    !next - 1
  in
  let root =
    Clocktree.Topo.replay ~leaves:[| 10; 11; 12; 13 |]
      ~merges:[| (0, 1); (2, 3); (4, 5) |] ~merge
  in
  Alcotest.(check int) "outer root" 22 root;
  Alcotest.(check (list (pair int int))) "merges in order, outer ids"
    [ (10, 11); (12, 13); (20, 21) ]
    (List.rev !calls);
  Alcotest.(check int) "single leaf, no merge" 7
    (Clocktree.Topo.replay ~leaves:[| 7 |] ~merges:[||] ~merge:(fun _ _ ->
         Alcotest.fail "merge called for a single leaf"))

let test_topo_validation () =
  Alcotest.check_raises "wrong merge count"
    (Invalid_argument "Topo.of_merges: expected 3 merges, got 1") (fun () ->
      ignore (Clocktree.Topo.of_merges ~n_sinks:4 [| (0, 1) |]));
  Alcotest.check_raises "child reuse"
    (Invalid_argument "Topo.of_merges: node 0 used as a child twice") (fun () ->
      ignore (Clocktree.Topo.of_merges ~n_sinks:3 [| (0, 1); (0, 3) |]));
  Alcotest.check_raises "self merge"
    (Invalid_argument "Topo.of_merges: merging a node with itself") (fun () ->
      ignore (Clocktree.Topo.of_merges ~n_sinks:3 [| (0, 0); (1, 2) |]));
  Alcotest.check_raises "forward reference"
    (Invalid_argument "Topo.of_merges: merge 0 uses invalid child 4") (fun () ->
      ignore (Clocktree.Topo.of_merges ~n_sinks:3 [| (0, 4); (1, 2) |]))

let test_topo_is_ancestor () =
  Alcotest.(check bool) "root over leaf" true (Clocktree.Topo.is_ancestor balanced4 6 0);
  Alcotest.(check bool) "self" true (Clocktree.Topo.is_ancestor balanced4 4 4);
  Alcotest.(check bool) "leaf not over root" false
    (Clocktree.Topo.is_ancestor balanced4 0 6);
  Alcotest.(check bool) "cousins" false (Clocktree.Topo.is_ancestor balanced4 4 5)

let test_topo_swap_leaves () =
  (* balanced4: node4=(0,1), node5=(2,3). Swap leaves 1 and 2. *)
  let t = Clocktree.Topo.swap balanced4 1 2 in
  Alcotest.(check (list int)) "left subtree" [ 0; 2 ] (Clocktree.Topo.leaves_under t 4);
  Alcotest.(check (list int)) "right subtree" [ 1; 3 ] (Clocktree.Topo.leaves_under t 5);
  Alcotest.(check (list int)) "all leaves" [ 0; 1; 2; 3 ]
    (Clocktree.Topo.leaves_under t (Clocktree.Topo.root t))

let test_topo_swap_subtree_with_leaf () =
  (* 5 sinks: ((0,1),(2,3)) merged, then with 4. Swap internal node 5 with
     leaf 4: the pair (0,1) trades places with sink 4. *)
  let t =
    Clocktree.Topo.of_merges ~n_sinks:5 [| (0, 1); (2, 3); (5, 6); (7, 4) |]
  in
  let t' = Clocktree.Topo.swap t 5 4 in
  Alcotest.(check int) "same size" (Clocktree.Topo.n_nodes t) (Clocktree.Topo.n_nodes t');
  Alcotest.(check (list int)) "root still spans all" [ 0; 1; 2; 3; 4 ]
    (Clocktree.Topo.leaves_under t' (Clocktree.Topo.root t'));
  (* the (2,3) subtree is now merged with leaf 4 *)
  let deep =
    List.exists
      (fun v -> Clocktree.Topo.leaves_under t' v = [ 2; 3; 4 ])
      (Clocktree.Topo.internal_nodes t')
  in
  Alcotest.(check bool) "subtree {2,3,4} exists" true deep

let test_topo_swap_validation () =
  Alcotest.check_raises "root" (Invalid_argument "Topo.swap: cannot swap the root")
    (fun () -> ignore (Clocktree.Topo.swap balanced4 6 0));
  Alcotest.check_raises "ancestor"
    (Invalid_argument "Topo.swap: nodes are on one root path") (fun () ->
      ignore (Clocktree.Topo.swap balanced4 4 0))

let prop_topo_swap_preserves_leaves =
  QCheck.Test.make ~name:"swap preserves the leaf set and validity" ~count:100
    (QCheck.int_range 3 30)
    (fun n ->
      let prng = Util.Prng.create (n * 23) in
      let sinks = random_sinks prng n in
      let topo = Clocktree.Nn.topology tech ~edge_gate:None sinks in
      (* pick two random non-root, non-nested nodes *)
      let nn = Clocktree.Topo.n_nodes topo in
      let rec pick tries =
        if tries = 0 then None
        else
          let u = Util.Prng.int prng (nn - 1) and v = Util.Prng.int prng (nn - 1) in
          if
            u <> v
            && (not (Clocktree.Topo.is_ancestor topo u v))
            && not (Clocktree.Topo.is_ancestor topo v u)
          then Some (u, v)
          else pick (tries - 1)
      in
      match pick 50 with
      | None -> true
      | Some (u, v) ->
        let t' = Clocktree.Topo.swap topo u v in
        Clocktree.Topo.leaves_under t' (Clocktree.Topo.root t') = List.init n Fun.id)

let test_topo_equal () =
  let t1 = Clocktree.Topo.of_merges ~n_sinks:3 [| (0, 1); (2, 3) |] in
  let t2 = Clocktree.Topo.of_merges ~n_sinks:3 [| (0, 1); (2, 3) |] in
  let t3 = Clocktree.Topo.of_merges ~n_sinks:3 [| (1, 2); (0, 3) |] in
  Alcotest.(check bool) "equal" true (Clocktree.Topo.equal t1 t2);
  Alcotest.(check bool) "not equal" false (Clocktree.Topo.equal t1 t3)

(* ------------------------------------------------------------------ *)
(* Mseg / Embed / Elmore                                              *)
(* ------------------------------------------------------------------ *)

let no_gate _ = None
let all_gates _ = Some tech.Clocktree.Tech.and_gate

let test_mseg_two_sinks () =
  let sinks = [| mk_sink 0 0.0 0.0 10.0; mk_sink 1 100.0 0.0 10.0 |] in
  let topo = Clocktree.Topo.of_merges ~n_sinks:2 [| (0, 1) |] in
  let mseg = Clocktree.Mseg.build tech topo ~sinks ~gate_on_edge:no_gate in
  check_float "edge sum = distance" 100.0
    (Clocktree.Mseg.edge_len mseg 0 +. Clocktree.Mseg.edge_len mseg 1);
  check_float "symmetric split" 50.0 (Clocktree.Mseg.edge_len mseg 0);
  (* the root merging region must be a Manhattan arc (or point) midway *)
  Alcotest.(check bool) "region contains midpoint" true
    (Geometry.Rect.contains ~eps:1e-6 (Clocktree.Mseg.region mseg 2)
       (Geometry.Rot.of_point (pt 50.0 0.0)))

let test_mseg_total_wirelength () =
  let sinks = [| mk_sink 0 0.0 0.0 10.0; mk_sink 1 100.0 0.0 10.0 |] in
  let topo = Clocktree.Topo.of_merges ~n_sinks:2 [| (0, 1) |] in
  let mseg = Clocktree.Mseg.build tech topo ~sinks ~gate_on_edge:no_gate in
  check_float "wirelength" 100.0 (Clocktree.Mseg.total_wirelength mseg)

let test_embed_consistency_small () =
  let prng = Util.Prng.create 21 in
  let sinks = random_sinks prng 9 in
  let topo = Clocktree.Nn.topology tech ~edge_gate:None sinks in
  let embed =
    Clocktree.Embed.build tech topo ~sinks ~gate_on_edge:no_gate
      ~root_anchor:(pt 500.0 500.0)
  in
  Clocktree.Embed.check_consistency embed

let test_embed_sinks_at_their_locations () =
  let prng = Util.Prng.create 22 in
  let sinks = random_sinks prng 6 in
  let topo = Clocktree.Nn.topology tech ~edge_gate:None sinks in
  let embed =
    Clocktree.Embed.build tech topo ~sinks ~gate_on_edge:no_gate
      ~root_anchor:(pt 0.0 0.0)
  in
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "sink %d placed at its pin" i)
        true
        (Geometry.Point.equal ~eps:1e-9 (Clocktree.Embed.loc embed i) s.Clocktree.Sink.loc))
    sinks

let test_gate_location () =
  let sinks = [| mk_sink 0 0.0 0.0 10.0; mk_sink 1 100.0 0.0 10.0 |] in
  let topo = Clocktree.Topo.of_merges ~n_sinks:2 [| (0, 1) |] in
  let embed =
    Clocktree.Embed.build tech topo ~sinks ~gate_on_edge:all_gates
      ~root_anchor:(pt 50.0 0.0)
  in
  (* gate on a sink edge sits at the parent (root) location *)
  Alcotest.(check bool) "gate at parent" true
    (Geometry.Point.equal
       (Clocktree.Embed.gate_location embed 0)
       (Clocktree.Embed.loc embed 2))

let zero_skew_case ~seed ~n ~gate () =
  let prng = Util.Prng.create seed in
  let sinks = random_sinks prng n in
  let topo = Clocktree.Nn.topology tech ~edge_gate:(gate 0) sinks in
  let embed =
    Clocktree.Embed.build tech topo ~sinks ~gate_on_edge:gate
      ~root_anchor:(pt 500.0 500.0)
  in
  Clocktree.Embed.check_consistency embed;
  let report = Clocktree.Elmore.evaluate tech embed ~gate_on_edge:gate in
  let rel = report.Clocktree.Elmore.skew /. (1.0 +. report.Clocktree.Elmore.max_delay) in
  Alcotest.(check bool)
    (Printf.sprintf "skew %g vs delay %g" report.Clocktree.Elmore.skew
       report.Clocktree.Elmore.max_delay)
    true (rel < 1e-9)

let test_zero_skew_ungated () = zero_skew_case ~seed:31 ~n:40 ~gate:(fun _ -> None) ()

let test_zero_skew_buffered () =
  zero_skew_case ~seed:32 ~n:40 ~gate:(fun _ -> Some tech.Clocktree.Tech.buffer) ()

let test_zero_skew_gated () =
  zero_skew_case ~seed:33 ~n:40 ~gate:(fun _ -> Some tech.Clocktree.Tech.and_gate) ()

let prop_zero_skew_random =
  QCheck.Test.make ~name:"DME embedding has zero Elmore skew" ~count:40
    QCheck.(pair (int_range 2 60) (int_range 0 2))
    (fun (n, gate_kind) ->
      let gate _ =
        match gate_kind with
        | 0 -> None
        | 1 -> Some tech.Clocktree.Tech.buffer
        | _ -> Some tech.Clocktree.Tech.and_gate
      in
      let prng = Util.Prng.create (n + (gate_kind * 1000)) in
      let sinks = random_sinks prng n in
      let topo = Clocktree.Nn.topology tech ~edge_gate:(gate 0) sinks in
      let embed =
        Clocktree.Embed.build tech topo ~sinks ~gate_on_edge:gate
          ~root_anchor:(pt 500.0 500.0)
      in
      Clocktree.Embed.check_consistency embed;
      let report = Clocktree.Elmore.evaluate tech embed ~gate_on_edge:gate in
      report.Clocktree.Elmore.skew /. (1.0 +. report.Clocktree.Elmore.max_delay) < 1e-9)

let prop_embedding_in_regions =
  QCheck.Test.make ~name:"embedding respects merging regions and wire budgets"
    ~count:40 (QCheck.int_range 2 50)
    (fun n ->
      let prng = Util.Prng.create (n * 7) in
      let sinks = random_sinks prng n in
      let topo = Clocktree.Nn.topology tech ~edge_gate:None sinks in
      let embed =
        Clocktree.Embed.build tech topo ~sinks ~gate_on_edge:no_gate
          ~root_anchor:(pt 0.0 0.0)
      in
      Clocktree.Embed.check_consistency embed;
      true)

let test_buffers_shorten_delay_on_spread_sinks () =
  (* With widely spread heavy sinks, buffers decouple subtree capacitance
     and reduce phase delay relative to an unbuffered tree (the paper's
     note in Section 4.1). *)
  let prng = Util.Prng.create 77 in
  let sinks =
    Array.init 60 (fun id ->
        mk_sink id
          (Util.Prng.range prng 0.0 8000.0)
          (Util.Prng.range prng 0.0 8000.0)
          40.0)
  in
  let run gate =
    let topo = Clocktree.Nn.topology tech ~edge_gate:gate sinks in
    let embed =
      Clocktree.Embed.build tech topo ~sinks
        ~gate_on_edge:(fun _ -> gate)
        ~root_anchor:(pt 4000.0 4000.0)
    in
    let report = Clocktree.Elmore.evaluate tech embed ~gate_on_edge:(fun _ -> gate) in
    Clocktree.Elmore.phase_delay report
  in
  let unbuffered = run None in
  let buffered = run (Some tech.Clocktree.Tech.buffer) in
  Alcotest.(check bool)
    (Printf.sprintf "buffered %.3g < unbuffered %.3g" buffered unbuffered)
    true (buffered < unbuffered)

(* ------------------------------------------------------------------ *)
(* Bst: bounded-skew merging                                          *)
(* ------------------------------------------------------------------ *)

let bst_branch dmin dmax cap =
  { Clocktree.Bst.dmin; dmax; cap; gate = None }

let test_bst_symmetric_no_snake () =
  let s =
    Clocktree.Bst.split tech (bst_branch 0.0 0.0 10.0) (bst_branch 0.0 0.0 10.0)
      ~dist:100.0 ~budget:50.0
  in
  check_float "ea" 50.0 s.Clocktree.Bst.ea;
  Alcotest.(check bool) "no snake" false s.Clocktree.Bst.snaked;
  check_float "zero width" 0.0 (s.Clocktree.Bst.dmax -. s.Clocktree.Bst.dmin)

let test_bst_budget_absorbs_imbalance () =
  (* a is 1e5 slower than b can compensate across 10um of wire; a generous
     budget absorbs the gap with NO extra wire *)
  let a = bst_branch 1.0e5 1.0e5 10.0 and b = bst_branch 0.0 0.0 10.0 in
  let s = Clocktree.Bst.split tech a b ~dist:10.0 ~budget:2.0e5 in
  Alcotest.(check bool) "no snake" false s.Clocktree.Bst.snaked;
  check_float "total wire = dist" 10.0 (s.Clocktree.Bst.ea +. s.Clocktree.Bst.eb);
  Alcotest.(check bool) "width within budget" true
    (s.Clocktree.Bst.dmax -. s.Clocktree.Bst.dmin <= 2.0e5 +. 1e-6)

let test_bst_partial_snake () =
  (* gap too big for the budget: snake only the remainder *)
  let a = bst_branch 1.0e5 1.0e5 10.0 and b = bst_branch 0.0 0.0 10.0 in
  let zero_skew = Clocktree.Zskew.split tech (plain 1.0e5 10.0) (plain 0.0 10.0) ~dist:10.0 in
  let s = Clocktree.Bst.split tech a b ~dist:10.0 ~budget:5.0e4 in
  Alcotest.(check bool) "snaked" true s.Clocktree.Bst.snaked;
  let wire_bst = s.Clocktree.Bst.ea +. s.Clocktree.Bst.eb in
  let wire_zs = zero_skew.Clocktree.Zskew.ea +. zero_skew.Clocktree.Zskew.eb in
  Alcotest.(check bool)
    (Printf.sprintf "less wire than zero skew (%.1f < %.1f)" wire_bst wire_zs)
    true (wire_bst < wire_zs);
  Alcotest.(check bool) "width at budget" true
    (Float.abs (s.Clocktree.Bst.dmax -. s.Clocktree.Bst.dmin -. 5.0e4) < 1.0)

let test_bst_zero_budget_matches_zskew () =
  let prng = Util.Prng.create 71 in
  let sinks = random_sinks prng 30 in
  let topo = Clocktree.Nn.topology tech ~edge_gate:None sinks in
  let mseg_exact = Clocktree.Mseg.build tech topo ~sinks ~gate_on_edge:no_gate in
  let mseg_bst, _, _ =
    Clocktree.Bst.build tech topo ~sinks ~gate_on_edge:no_gate ~budget:0.0
  in
  check_float "same wirelength"
    (Clocktree.Mseg.total_wirelength mseg_exact)
    (Clocktree.Mseg.total_wirelength mseg_bst)

let test_bst_validation () =
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Bst.split: negative or non-finite budget") (fun () ->
      ignore
        (Clocktree.Bst.split tech (bst_branch 0.0 0.0 1.0) (bst_branch 0.0 0.0 1.0)
           ~dist:1.0 ~budget:(-1.0)))

let prop_bst_skew_within_budget =
  QCheck.Test.make ~name:"bounded-skew embedding keeps skew within budget" ~count:30
    QCheck.(pair (int_range 2 40) (float_range 0.0 20_000.0))
    (fun (n, budget) ->
      let prng = Util.Prng.create (n * 13) in
      let sinks = random_sinks prng n in
      let gate _ = Some tech.Clocktree.Tech.and_gate in
      let topo = Clocktree.Nn.topology tech ~edge_gate:(gate 0) sinks in
      let embed =
        Clocktree.Bst.embed tech topo ~sinks ~gate_on_edge:gate ~budget
          ~root_anchor:(pt 500.0 500.0)
      in
      Clocktree.Embed.check_consistency embed;
      let report = Clocktree.Elmore.evaluate tech embed ~gate_on_edge:gate in
      report.Clocktree.Elmore.skew <= budget +. (1e-6 *. (1.0 +. budget)))

(* NOTE: global wirelength is NOT monotone in the budget — zero-skew
   snaking inflates a child's TRR, fattening merging regions upstream, so
   occasionally the exact tree wins globally. The guarantees are local
   (per merge) and on the skew itself; both are tested. *)
let prop_bst_local_split_never_longer =
  QCheck.Test.make ~name:"per-merge, a budget never needs more wire than zero skew"
    ~count:300
    QCheck.(pair (pair branch_gen branch_gen) (pair (float_range 0.0 2000.0) (float_range 0.0 1.0e5)))
    (fun ((a, b), (dist, budget)) ->
      let zs = Clocktree.Zskew.split tech a b ~dist in
      let to_bst (br : Clocktree.Zskew.branch) =
        { Clocktree.Bst.dmin = br.Clocktree.Zskew.delay;
          dmax = br.Clocktree.Zskew.delay;
          cap = br.Clocktree.Zskew.cap;
          gate = br.Clocktree.Zskew.gate;
        }
      in
      let bs = Clocktree.Bst.split tech (to_bst a) (to_bst b) ~dist ~budget in
      bs.Clocktree.Bst.ea +. bs.Clocktree.Bst.eb
      <= zs.Clocktree.Zskew.ea +. zs.Clocktree.Zskew.eb +. 1e-6)

let prop_bst_huge_budget_never_snakes =
  QCheck.Test.make ~name:"an unbounded budget never snakes" ~count:30
    (QCheck.int_range 2 40)
    (fun n ->
      let prng = Util.Prng.create (n * 19) in
      let sinks = random_sinks prng n in
      let topo = Clocktree.Nn.topology tech ~edge_gate:None sinks in
      let mseg, _, _ =
        Clocktree.Bst.build tech topo ~sinks ~gate_on_edge:no_gate ~budget:1.0e15
      in
      let ok = ref true in
      for v = 0 to Clocktree.Topo.n_nodes topo - 1 do
        if Clocktree.Mseg.snaked mseg v then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Greedy engine                                                      *)
(* ------------------------------------------------------------------ *)

let test_greedy_single () =
  Alcotest.(check int) "single element" 0
    (Clocktree.Greedy.merge_all ~n:1
       ~cost:(fun _ _ -> 0.0)
       ~merge:(fun _ _ -> failwith "no merge expected"))

let test_greedy_merges_cheapest_first () =
  (* three points on a line at 0, 1, 10: the engine must merge 0-1 first *)
  let values = ref [| 0.0; 1.0; 10.0 |] in
  let first_merge = ref None in
  let merge a b =
    if !first_merge = None then first_merge := Some (min a b, max a b);
    let v = Array.append !values [| (!values.(a) +. !values.(b)) /. 2.0 |] in
    values := v;
    Array.length v - 1
  in
  let root =
    Clocktree.Greedy.merge_all ~n:3
      ~cost:(fun a b -> Float.abs (!values.(a) -. !values.(b)))
      ~merge
  in
  Alcotest.(check int) "root id" 4 root;
  Alcotest.(check bool) "first merge is 0-1" true (!first_merge = Some (0, 1))

let test_greedy_validation () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Greedy.merge_all: no elements")
    (fun () ->
      ignore
        (Clocktree.Greedy.merge_all ~n:0 ~cost:(fun _ _ -> 0.0) ~merge:(fun _ _ -> 0)))

let prop_greedy_matches_reference =
  (* Compare against an O(n^3) reference on an abstract merge model with
     distinct random costs. *)
  QCheck.Test.make ~name:"greedy engine = quadratic-scan reference" ~count:60
    (QCheck.int_range 2 12)
    (fun n ->
      let prng = Util.Prng.create (n * 131) in
      let initial = Array.init n (fun _ -> Util.Prng.float prng 1000.0) in
      let run merge_log =
        let values = ref (Array.copy initial) in
        let merge a b =
          merge_log := (min a b, max a b) :: !merge_log;
          values := Array.append !values [| !values.(a) +. !values.(b) +. 13.37 |];
          Array.length !values - 1
        in
        let cost a b = Float.abs (!values.(a) -. !values.(b)) in
        (merge, cost)
      in
      (* engine *)
      let engine_log = ref [] in
      let merge, cost = run engine_log in
      let _ = Clocktree.Greedy.merge_all ~n ~cost ~merge in
      (* reference: repeatedly scan all active pairs *)
      let ref_log = ref [] in
      let merge_r, cost_r = run ref_log in
      let active = ref (List.init n Fun.id) in
      while List.length !active > 1 do
        let best = ref None in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                if a < b then
                  let c = cost_r a b in
                  match !best with
                  | Some (c', _, _) when c' <= c -> ()
                  | _ -> best := Some (c, a, b))
              !active)
          !active;
        match !best with
        | Some (_, a, b) ->
          let k = merge_r a b in
          active := k :: List.filter (fun v -> v <> a && v <> b) !active
        | None -> assert false
      done;
      List.rev !engine_log = List.rev !ref_log)

(* An abstract model shaped like the activity merge: each root carries a
   nonnegative weight, a merge's weight strictly contains its parts, and
   cost a b = w(a) + w(b) >= max(w a, w b) — so [w] is an admissible
   lower bound for {!Clocktree.Greedy.bound_scan}. *)
let weighted_model n seed =
  let prng = Util.Prng.create seed in
  let initial = Array.init n (fun _ -> 0.001 +. Util.Prng.float prng 1.0) in
  fun () ->
    let log = ref [] in
    let values = ref (Array.copy initial) in
    let merge a b =
      log := (min a b, max a b) :: !log;
      values := Array.append !values [| !values.(a) +. !values.(b) +. 0.0137 |];
      Array.length !values - 1
    in
    let cost a b = !values.(a) +. !values.(b) in
    let lower v = !values.(v) in
    (log, cost, merge, lower)

let prop_bound_scan_matches_dense =
  QCheck.Test.make ~name:"bound_scan pruning = dense oracle merge-for-merge"
    ~count:80
    (QCheck.int_range 2 16)
    (fun n ->
      let model = weighted_model n ((n * 977) + 5) in
      let log_d, cost, merge, _ = model () in
      let _ = Clocktree.Greedy.merge_all_dense ~n ~cost ~merge in
      let log_b, cost, merge, lower = model () in
      let _ =
        Clocktree.Greedy.merge_all_with (Clocktree.Greedy.bound_scan ~lower) ~n
          ~cost ~merge
      in
      List.rev !log_b = List.rev !log_d)

let prop_par_seed_deterministic =
  (* n up to 64 crosses Parallel's spawn threshold, so the parallel
     seeding path really runs on multi-domain hosts *)
  QCheck.Test.make ~name:"par_seed:true merges identically to sequential"
    ~count:40
    (QCheck.int_range 2 64)
    (fun n ->
      let model = weighted_model n ((n * 31) + 7) in
      let log_s, cost, merge, lower = model () in
      let _ =
        Clocktree.Greedy.merge_all_with ~par_seed:false
          (Clocktree.Greedy.bound_scan ~lower) ~n ~cost ~merge
      in
      let log_p, cost, merge, lower = model () in
      let _ =
        Clocktree.Greedy.merge_all_with ~par_seed:true
          (Clocktree.Greedy.bound_scan ~lower) ~n ~cost ~merge
      in
      !log_p = !log_s)

(* ------------------------------------------------------------------ *)
(* Spatial                                                            *)
(* ------------------------------------------------------------------ *)

let rect_at u v =
  Geometry.Rect.make ~ulo:u ~uhi:u ~vlo:v ~vhi:v

let test_spatial_basic () =
  (* pure distance: K = 0, P = 1, c = 1, as Nn queries it *)
  let regions = [| rect_at 100.0 100.0; rect_at 3.0 0.0; rect_at 0.0 0.0 |] in
  let idx = Clocktree.Spatial.create ~capacity:8 ~cell:10.0 () in
  Array.iteri (fun i r -> Clocktree.Spatial.insert idx i r ~k:0.0 ~p:1.0) regions;
  (* The present ids as [cheapest] sees them: under a zero bound (c = 0),
     each round's zero-cost answer is an id not found before. *)
  let present q =
    let rec go found =
      match
        Clocktree.Spatial.cheapest idx q ~below:8 ~c:0.0 ~dist:(fun _ -> 0.0)
          ~cost:(fun u -> if List.mem u found then 1.0 else 0.0)
          ~rank:Fun.id
      with
      | Some (u, c) when c = 0.0 -> go (u :: found)
      | _ -> List.sort compare found
    in
    go []
  in
  Alcotest.(check (list int)) "present" [ 0; 1; 2 ] (present 2);
  let dist i j = Geometry.Rect.distance regions.(i) regions.(j) in
  let nearest q =
    Clocktree.Spatial.cheapest idx q ~below:q ~c:1.0 ~dist:(dist q) ~cost:(dist q)
      ~rank:Fun.id
  in
  (match nearest 2 with
  | Some (1, d) -> check_float "nearest dist" 3.0 d
  | _ -> Alcotest.fail "expected nearest of 2 to be 1");
  (match nearest 1 with
  | Some (0, _) -> ()
  | _ -> Alcotest.fail "expected 1 to see only the id below it");
  Clocktree.Spatial.remove idx 1;
  Alcotest.(check (list int)) "removed" [ 0; 2 ] (present 2);
  (match nearest 2 with
  | Some (0, _) -> ()
  | _ -> Alcotest.fail "expected nearest of 2 to be 0 after removal");
  Clocktree.Spatial.remove idx 0;
  Alcotest.(check (list int)) "after removals" [ 2 ] (present 2);
  Alcotest.(check (option (pair int (float 0.0)))) "alone" None (nearest 2)

let test_spatial_validation () =
  Alcotest.check_raises "bad cell"
    (Invalid_argument "Spatial.create: cell side must be positive and finite")
    (fun () -> ignore (Clocktree.Spatial.create ~capacity:4 ~cell:0.0 ()));
  let idx = Clocktree.Spatial.create ~capacity:4 ~cell:1.0 () in
  Clocktree.Spatial.insert idx 0 (rect_at 0.0 0.0);
  Alcotest.check_raises "double insert"
    (Invalid_argument "Spatial.insert: id already present") (fun () ->
      Clocktree.Spatial.insert idx 0 (rect_at 1.0 1.0));
  Alcotest.check_raises "remove absent"
    (Invalid_argument "Spatial.remove: id not present") (fun () ->
      Clocktree.Spatial.remove idx 2)

(* cheapest over random regions, weights and removals must return a
   scan's answer — the first minimum in rank order among ids below the
   query. Costs are the bound plus a non-negative extra rounded to a
   coarse grid, so exact ties between distinct ids are common. *)
let prop_spatial_cheapest_matches_scan =
  QCheck.Test.make ~name:"spatial cheapest = first minimum of a rank-order scan"
    ~count:80
    QCheck.(pair (int_range 2 70) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let prng = Util.Prng.create (seed + 7) in
      let rect _ =
        let u = Util.Prng.range prng (-300.0) 300.0 in
        let v = Util.Prng.range prng (-300.0) 300.0 in
        let wu = if Util.Prng.int prng 3 = 0 then 0.0 else Util.Prng.range prng 0.0 60.0 in
        let wv = if Util.Prng.int prng 3 = 0 then 0.0 else Util.Prng.range prng 0.0 60.0 in
        Geometry.Rect.make ~ulo:u ~uhi:(u +. wu) ~vlo:v ~vhi:(v +. wv)
      in
      let regions = Array.init n rect in
      let k = Array.init n (fun _ -> Float.round (Util.Prng.range prng 0.0 4.0)) in
      let p = Array.init n (fun _ -> Float.round (Util.Prng.range prng 0.0 4.0) /. 4.0) in
      let extra = Array.init n (fun _ -> Float.round (Util.Prng.range prng 0.0 3.0)) in
      let c = 0.01 in
      let dist i j = Geometry.Rect.distance regions.(i) regions.(j) in
      let cost q u =
        Float.round
          (k.(q) +. k.(u) +. (c *. Float.min p.(q) p.(u) *. dist q u) +. extra.(u) +. 0.5)
      in
      let rank = Array.init n (fun i -> i) in
      for i = n - 1 downto 1 do
        let j = Util.Prng.int prng (i + 1) in
        let x = rank.(i) in
        rank.(i) <- rank.(j);
        rank.(j) <- x
      done;
      let idx = Clocktree.Spatial.create ~capacity:n ~cell:(600.0 /. sqrt (float_of_int n)) () in
      Array.iteri (fun i r -> Clocktree.Spatial.insert idx i r ~k:k.(i) ~p:p.(i)) regions;
      let alive = Array.make n true in
      for _ = 1 to n / 4 do
        let i = Util.Prng.int prng n in
        if alive.(i) then begin
          alive.(i) <- false;
          Clocktree.Spatial.remove idx i
        end
      done;
      let ok = ref true in
      for q = 0 to n - 1 do
        if alive.(q) then begin
          let expect = ref None in
          let order = List.sort (fun a b -> compare rank.(a) rank.(b)) (List.init n Fun.id) in
          List.iter
            (fun u ->
              if alive.(u) && u < q then
                match !expect with
                | Some (_, b) when cost q u >= b -> ()
                | _ -> expect := Some (u, cost q u))
            order;
          let got =
            Clocktree.Spatial.cheapest idx q ~below:q ~c ~dist:(dist q) ~cost:(cost q)
              ~rank:(fun u -> rank.(u))
          in
          if got <> !expect then ok := false
        end
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Nn                                                                 *)
(* ------------------------------------------------------------------ *)

let test_nn_topology_valid () =
  let prng = Util.Prng.create 51 in
  let sinks = random_sinks prng 17 in
  let topo = Clocktree.Nn.topology tech ~edge_gate:None sinks in
  Alcotest.(check int) "sink count" 17 (Clocktree.Topo.n_sinks topo);
  Alcotest.(check (list int)) "covers all sinks" (List.init 17 Fun.id)
    (Clocktree.Topo.leaves_under topo (Clocktree.Topo.root topo))

let test_nn_merges_closest_pair_first () =
  (* sinks at (0,0), (1,0) and (100,100): the first merge must join 0 and 1 *)
  let sinks =
    [| mk_sink 0 0.0 0.0 10.0; mk_sink 1 1.0 0.0 10.0; mk_sink 2 100.0 100.0 10.0 |]
  in
  let topo = Clocktree.Nn.topology tech ~edge_gate:None sinks in
  Alcotest.(check bool) "first internal node joins 0,1" true
    (Clocktree.Topo.children topo 3 = Some (0, 1))

let test_nn_embed_end_to_end () =
  let prng = Util.Prng.create 52 in
  let sinks = random_sinks prng 25 in
  let embed =
    Clocktree.Nn.embed tech ~edge_gate:(Some tech.Clocktree.Tech.buffer)
      ~root_anchor:(pt 500.0 500.0) sinks
  in
  Clocktree.Embed.check_consistency embed;
  Alcotest.(check bool) "positive wirelength" true
    (Clocktree.Embed.total_wirelength embed > 0.0)

let prop_nn_spatial_matches_dense =
  (* The ISSUE acceptance oracle: the spatial-accelerated greedy must
     produce a tree whose total wirelength matches the all-pairs reference
     within float tolerance (random costs are tie-free almost surely, so
     the merge sequences coincide). *)
  QCheck.Test.make ~name:"spatial topology = dense reference (wirelength)"
    ~count:25
    QCheck.(pair (int_range 2 200) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let prng = Util.Prng.create (seed + 7) in
      let sinks = random_sinks prng n in
      let wirelength topo =
        let mseg = Clocktree.Mseg.build tech topo ~sinks ~gate_on_edge:no_gate in
        Clocktree.Mseg.total_wirelength mseg
      in
      let fast = wirelength (Clocktree.Nn.topology tech ~edge_gate:None sinks) in
      let ref_ = wirelength (Clocktree.Nn.topology_dense tech ~edge_gate:None sinks) in
      Float.abs (fast -. ref_) <= 1e-6 *. (1.0 +. Float.abs ref_))

(* Lattice clouds put many sinks on the same few points, with caps from a
   short list, so exact distance ties between distinct pairs are the rule.
   Nn's merge list must still be the exhaustive scan's, tie for tie, with
   and without edge buffers. *)
let prop_nn_matches_scan_on_lattice =
  QCheck.Test.make ~name:"spatial topology = scan merges on lattice clouds (ties)"
    ~count:30
    QCheck.(triple (int_range 49 160) (int_range 2 6) (int_range 0 1_000_000))
    (fun (n, side, seed) ->
      let prng = Util.Prng.create (seed + 11) in
      let sinks =
        Array.init n (fun id ->
            let at () = 100.0 *. float_of_int (Util.Prng.int prng side) in
            let x = at () in
            mk_sink id x (at ()) (10.0 *. float_of_int (1 + Util.Prng.int prng 3)))
      in
      Conformance.Oracles.nn_matches_scan tech sinks;
      true)

(* ------------------------------------------------------------------ *)
(* Arena                                                              *)
(* ------------------------------------------------------------------ *)

let random_node prng =
  let ulo = Util.Prng.range prng 0.0 500.0 in
  let vlo = Util.Prng.range prng 0.0 500.0 in
  {
    Clocktree.Arena.node_region =
      Geometry.Rect.make ~ulo ~uhi:(ulo +. Util.Prng.range prng 0.0 100.0)
        ~vlo ~vhi:(vlo +. Util.Prng.range prng 0.0 100.0);
    node_delay = Util.Prng.range prng 0.0 1e4;
    node_cap = Util.Prng.range prng 0.0 500.0;
    node_edge_len = Util.Prng.range prng 0.0 300.0;
    node_loc = pt (Util.Prng.range prng 0.0 1000.0) (Util.Prng.range prng 0.0 1000.0);
    node_snaked = Util.Prng.int prng 2 = 1;
    node_left = Util.Prng.int prng 5 - 1;
    node_right = Util.Prng.int prng 5 - 1;
    node_parent = Util.Prng.int prng 5 - 1;
  }

let prop_arena_round_trip =
  QCheck.Test.make ~name:"Arena.of_nodes / to_nodes round-trips" ~count:100
    QCheck.(pair (int_range 1 60) (int_range 0 1_000_000))
    (fun (n_sinks, seed) ->
      let prng = Util.Prng.create (seed + 11) in
      (* any defined count up to the 2n-1 capacity is legal *)
      let n_nodes = 1 + Util.Prng.int prng ((2 * n_sinks) - 1) in
      let nodes = Array.init n_nodes (fun _ -> random_node prng) in
      let arena = Clocktree.Arena.of_nodes ~n_sinks nodes in
      arena.Clocktree.Arena.n_nodes = n_nodes
      && Clocktree.Arena.to_nodes arena = nodes
      (* copy is deep: mutating the copy leaves the round-trip intact *)
      &&
      let c = Clocktree.Arena.copy arena in
      Clocktree.Arena.set_snaked c 0 (not (Clocktree.Arena.snaked c 0));
      c.Clocktree.Arena.delay.(0) <- c.Clocktree.Arena.delay.(0) +. 1.0;
      Clocktree.Arena.to_nodes arena = nodes)

let test_arena_validation () =
  Alcotest.check_raises "non-positive sinks"
    (Invalid_argument "Arena.create: n_sinks 0 must be positive") (fun () ->
      ignore (Clocktree.Arena.create ~n_sinks:0));
  let prng = Util.Prng.create 5 in
  let nodes = Array.init 4 (fun _ -> random_node prng) in
  Alcotest.check_raises "overflow"
    (Invalid_argument "Arena.of_nodes: 4 nodes exceed capacity 3") (fun () ->
      ignore (Clocktree.Arena.of_nodes ~n_sinks:2 nodes))

let test_arena_dist_matches_rect () =
  let prng = Util.Prng.create 17 in
  let nodes = Array.init 30 (fun _ -> random_node prng) in
  let arena = Clocktree.Arena.of_nodes ~n_sinks:30 nodes in
  for a = 0 to 29 do
    for b = 0 to 29 do
      check_float
        (Printf.sprintf "dist %d %d" a b)
        (Geometry.Rect.distance (Clocktree.Arena.region arena a)
           (Clocktree.Arena.region arena b))
        (Clocktree.Arena.dist arena a b)
    done
  done

(* ------------------------------------------------------------------ *)
(* Partition                                                          *)
(* ------------------------------------------------------------------ *)

let prop_partition_disjoint_cover =
  QCheck.Test.make
    ~name:"Partition.bisect covers every sink exactly once, sorted" ~count:100
    QCheck.(triple (int_range 1 300) (int_range 1 40) (int_range 0 1_000_000))
    (fun (n, n_regions, seed) ->
      let prng = Util.Prng.create (seed + 3) in
      let sinks = random_sinks prng n in
      let groups = Array.init n (fun i -> i mod 7) in
      let check regions =
        let seen = Array.make n 0 in
        Array.iter
          (fun region ->
            if Array.length region = 0 then
              QCheck.Test.fail_report "empty region";
            Array.iteri
              (fun k id ->
                seen.(id) <- seen.(id) + 1;
                if k > 0 && region.(k - 1) >= id then
                  QCheck.Test.fail_report "region not sorted ascending")
              region)
          regions;
        Array.for_all (fun c -> c = 1) seen
        && Array.length regions <= n_regions
        && Array.length regions >= 1
      in
      check (Clocktree.Partition.bisect ~n_regions sinks)
      && check (Clocktree.Partition.bisect ~groups ~n_regions sinks))

let test_partition_validation () =
  Alcotest.check_raises "empty sinks"
    (Invalid_argument "Partition.bisect: no sinks") (fun () ->
      ignore (Clocktree.Partition.bisect ~n_regions:2 [||]));
  let prng = Util.Prng.create 23 in
  let sinks = random_sinks prng 10 in
  Alcotest.check_raises "mis-sized groups"
    (Invalid_argument "Partition.bisect: 2 group labels for 10 sinks")
    (fun () ->
      ignore
        (Clocktree.Partition.bisect ~groups:[| 0; 1 |] ~n_regions:2 sinks));
  let one = Clocktree.Partition.bisect ~n_regions:1 sinks in
  Alcotest.(check int) "n_regions=1 is one region" 1 (Array.length one);
  Alcotest.(check int) "one region holds all" 10 (Array.length one.(0))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "clocktree"
    [
      ( "tech",
        [
          Alcotest.test_case "default valid" `Quick test_tech_default_valid;
          Alcotest.test_case "buffer half size" `Quick test_tech_buffer_half_size;
          Alcotest.test_case "scale gate" `Quick test_tech_scale_gate;
          Alcotest.test_case "validate catches" `Quick test_tech_validate_catches;
        ] );
      ("sink", [ Alcotest.test_case "validation" `Quick test_sink_validation ]);
      ( "arena",
        [
          Alcotest.test_case "validation" `Quick test_arena_validation;
          Alcotest.test_case "dist = Rect.distance" `Quick
            test_arena_dist_matches_rect;
          qt prop_arena_round_trip;
        ] );
      ( "partition",
        [
          Alcotest.test_case "validation" `Quick test_partition_validation;
          qt prop_partition_disjoint_cover;
        ] );
      ( "zskew",
        [
          Alcotest.test_case "symmetric" `Quick test_zskew_symmetric;
          Alcotest.test_case "heavier side shorter" `Quick test_zskew_heavier_side_shorter;
          Alcotest.test_case "hand computed" `Quick test_zskew_hand_computed;
          Alcotest.test_case "balances" `Quick test_zskew_balances;
          Alcotest.test_case "snake" `Quick test_zskew_snake;
          Alcotest.test_case "snake other side" `Quick test_zskew_snake_other_side;
          Alcotest.test_case "gate decouples cap" `Quick test_zskew_gate_decouples_cap;
          Alcotest.test_case "gate adds delay" `Quick test_zskew_gate_adds_delay;
          Alcotest.test_case "branch delay formula" `Quick test_zskew_branch_delay_formula;
          Alcotest.test_case "head cap" `Quick test_zskew_head_cap;
          Alcotest.test_case "negative dist" `Quick test_zskew_negative_dist;
          qt prop_zskew_always_balances;
        ] );
      ( "topo",
        [
          Alcotest.test_case "basics" `Quick test_topo_basics;
          Alcotest.test_case "depth/leaves" `Quick test_topo_depth_leaves;
          Alcotest.test_case "fold postorder" `Quick test_topo_fold_postorder;
          Alcotest.test_case "single sink" `Quick test_topo_single_sink;
          Alcotest.test_case "replay" `Quick test_topo_replay;
          Alcotest.test_case "validation" `Quick test_topo_validation;
          Alcotest.test_case "is_ancestor" `Quick test_topo_is_ancestor;
          Alcotest.test_case "swap leaves" `Quick test_topo_swap_leaves;
          Alcotest.test_case "swap subtree/leaf" `Quick test_topo_swap_subtree_with_leaf;
          Alcotest.test_case "swap validation" `Quick test_topo_swap_validation;
          qt prop_topo_swap_preserves_leaves;
          Alcotest.test_case "equal" `Quick test_topo_equal;
        ] );
      ( "dme",
        [
          Alcotest.test_case "two sinks" `Quick test_mseg_two_sinks;
          Alcotest.test_case "total wirelength" `Quick test_mseg_total_wirelength;
          Alcotest.test_case "embed consistency" `Quick test_embed_consistency_small;
          Alcotest.test_case "sinks at pins" `Quick test_embed_sinks_at_their_locations;
          Alcotest.test_case "gate location" `Quick test_gate_location;
          Alcotest.test_case "zero skew ungated" `Quick test_zero_skew_ungated;
          Alcotest.test_case "zero skew buffered" `Quick test_zero_skew_buffered;
          Alcotest.test_case "zero skew gated" `Quick test_zero_skew_gated;
          Alcotest.test_case "buffers cut delay" `Quick test_buffers_shorten_delay_on_spread_sinks;
          qt prop_zero_skew_random;
          qt prop_embedding_in_regions;
        ] );
      ( "bst",
        [
          Alcotest.test_case "symmetric" `Quick test_bst_symmetric_no_snake;
          Alcotest.test_case "budget absorbs" `Quick test_bst_budget_absorbs_imbalance;
          Alcotest.test_case "partial snake" `Quick test_bst_partial_snake;
          Alcotest.test_case "zero budget = zskew" `Quick test_bst_zero_budget_matches_zskew;
          Alcotest.test_case "validation" `Quick test_bst_validation;
          qt prop_bst_skew_within_budget;
          qt prop_bst_local_split_never_longer;
          qt prop_bst_huge_budget_never_snakes;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "single" `Quick test_greedy_single;
          Alcotest.test_case "cheapest first" `Quick test_greedy_merges_cheapest_first;
          Alcotest.test_case "validation" `Quick test_greedy_validation;
          qt prop_greedy_matches_reference;
          qt prop_bound_scan_matches_dense;
          qt prop_par_seed_deterministic;
        ] );
      ( "elmore_mismatch",
        [
          Alcotest.test_case "wrong gate assumption breaks zero skew" `Quick
            (fun () ->
              (* embed assuming gates everywhere, evaluate as if bare wire:
                 the measured skew must blow up, showing the verifier is
                 not a tautology *)
              let prng = Util.Prng.create 61 in
              let sinks = random_sinks prng 20 in
              let topo = Clocktree.Nn.topology tech ~edge_gate:(all_gates 0) sinks in
              let embed =
                Clocktree.Embed.build tech topo ~sinks ~gate_on_edge:all_gates
                  ~root_anchor:(pt 500.0 500.0)
              in
              let honest = Clocktree.Elmore.evaluate tech embed ~gate_on_edge:all_gates in
              let lying = Clocktree.Elmore.evaluate tech embed ~gate_on_edge:no_gate in
              Alcotest.(check bool) "honest is zero skew" true
                (honest.Clocktree.Elmore.skew
                 /. (1.0 +. honest.Clocktree.Elmore.max_delay)
                < 1e-9);
              Alcotest.(check bool) "mismatch shows skew" true
                (lying.Clocktree.Elmore.skew > 100.0 *. honest.Clocktree.Elmore.skew));
        ] );
      ( "spatial",
        [
          Alcotest.test_case "basic" `Quick test_spatial_basic;
          Alcotest.test_case "validation" `Quick test_spatial_validation;
          qt prop_spatial_cheapest_matches_scan;
        ] );
      ( "nn",
        [
          Alcotest.test_case "valid topology" `Quick test_nn_topology_valid;
          Alcotest.test_case "closest pair first" `Quick test_nn_merges_closest_pair_first;
          Alcotest.test_case "embed end to end" `Quick test_nn_embed_end_to_end;
          qt prop_nn_spatial_matches_dense;
          qt prop_nn_matches_scan_on_lattice;
        ] );
    ]
