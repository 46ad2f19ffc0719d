(* Tests for the evaluation substrate: the synthetic r1-r5 suites, the
   grouped CPU workload generator and the bundled experiment cases. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rbench                                                             *)
(* ------------------------------------------------------------------ *)

let test_specs_published_sizes () =
  let sizes = Array.map (fun s -> s.Benchmarks.Rbench.n_sinks) Benchmarks.Rbench.specs in
  Alcotest.(check (array int)) "r1..r5 sink counts" [| 267; 598; 862; 1903; 3101 |] sizes;
  let names = Array.map (fun s -> s.Benchmarks.Rbench.name) Benchmarks.Rbench.specs in
  Alcotest.(check (array string)) "names" [| "r1"; "r2"; "r3"; "r4"; "r5" |] names

let test_by_name () =
  Alcotest.(check int) "r3" 862 (Benchmarks.Rbench.by_name "r3").Benchmarks.Rbench.n_sinks;
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Benchmarks.Rbench.by_name "r9"))

let test_sinks_well_formed () =
  let spec = Benchmarks.Rbench.by_name "r1" in
  let sinks = Benchmarks.Rbench.sinks spec in
  Clocktree.Sink.validate_array sinks;
  Alcotest.(check int) "count" 267 (Array.length sinks);
  let die = Benchmarks.Rbench.die spec in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "inside die" true
        (Geometry.Bbox.contains die s.Clocktree.Sink.loc);
      Alcotest.(check bool) "cap range" true
        (s.Clocktree.Sink.cap >= 5.0 && s.Clocktree.Sink.cap <= 50.0);
      Alcotest.(check int) "module = id" s.Clocktree.Sink.id s.Clocktree.Sink.module_id)
    sinks

let test_sinks_deterministic () =
  let spec = Benchmarks.Rbench.by_name "r2" in
  let a = Benchmarks.Rbench.sinks spec and b = Benchmarks.Rbench.sinks spec in
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "sink %d" i)
        true
        (Geometry.Point.equal s.Clocktree.Sink.loc b.(i).Clocktree.Sink.loc))
    a

let test_sinks_spatially_clustered () =
  (* same-group sinks must sit markedly closer together than cross-group *)
  let spec = Benchmarks.Rbench.by_name "r1" in
  let sinks = Benchmarks.Rbench.sinks spec in
  let n = Array.length sinks in
  let group i =
    Benchmarks.Workload.group_of ~n_modules:n ~n_groups:spec.Benchmarks.Rbench.n_groups i
  in
  let same = ref 0.0 and same_n = ref 0 and diff = ref 0.0 and diff_n = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d =
        Geometry.Point.manhattan sinks.(i).Clocktree.Sink.loc sinks.(j).Clocktree.Sink.loc
      in
      if group i = group j then begin
        same := !same +. d;
        incr same_n
      end
      else begin
        diff := !diff +. d;
        incr diff_n
      end
    done
  done;
  let avg_same = !same /. float_of_int !same_n in
  let avg_diff = !diff /. float_of_int !diff_n in
  Alcotest.(check bool)
    (Printf.sprintf "same-group %.0f << cross-group %.0f" avg_same avg_diff)
    true
    (avg_same < 0.5 *. avg_diff)

let test_scaled () =
  let s = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:64 in
  Alcotest.(check int) "64 sinks" 64 (Array.length (Benchmarks.Rbench.sinks s));
  Alcotest.(check bool) "smaller die" true
    (s.Benchmarks.Rbench.die_side < (Benchmarks.Rbench.by_name "r1").Benchmarks.Rbench.die_side)

(* ------------------------------------------------------------------ *)
(* Workload                                                           *)
(* ------------------------------------------------------------------ *)

let test_group_of_contiguous () =
  (* groups are contiguous id blocks covering 0..G-1 monotonically *)
  let n = 100 and g = 7 in
  let prev = ref 0 in
  for m = 0 to n - 1 do
    let grp = Benchmarks.Workload.group_of ~n_modules:n ~n_groups:g m in
    Alcotest.(check bool) "monotone" true (grp >= !prev && grp < g);
    prev := grp
  done;
  Alcotest.(check int) "first" 0 (Benchmarks.Workload.group_of ~n_modules:n ~n_groups:g 0);
  Alcotest.(check int) "last" (g - 1)
    (Benchmarks.Workload.group_of ~n_modules:n ~n_groups:g (n - 1))

let test_default_groups_bounds () =
  Alcotest.(check int) "small" 4 (Benchmarks.Workload.default_groups 6);
  Alcotest.(check int) "large clamps" 16 (Benchmarks.Workload.default_groups 10_000);
  (* never more groups than modules *)
  List.iter
    (fun n ->
      Alcotest.(check int) (Printf.sprintf "n = %d" n) n
        (Benchmarks.Workload.default_groups n))
    [ 1; 2; 3 ]

let test_make_rtl_validation () =
  Alcotest.check_raises "usage 0" (Invalid_argument "Workload.make_rtl: usage outside (0,1]")
    (fun () ->
      ignore
        (Benchmarks.Workload.make_rtl ~n_modules:10 ~n_instructions:4 ~usage:0.0 ~seed:1 ()));
  Alcotest.check_raises "groups"
    (Invalid_argument "Workload.make_rtl: n_groups outside [1, n_modules]") (fun () ->
      ignore
        (Benchmarks.Workload.make_rtl ~n_modules:10 ~n_instructions:4 ~usage:0.4
           ~n_groups:11 ~seed:1 ()))

let test_make_rtl_hits_target_usage () =
  List.iter
    (fun usage ->
      let rtl =
        Benchmarks.Workload.make_rtl ~n_modules:200 ~n_instructions:64 ~usage ~seed:3 ()
      in
      let measured = Activity.Rtl.avg_usage_fraction rtl in
      Alcotest.(check bool)
        (Printf.sprintf "usage %.2f measured %.3f" usage measured)
        true
        (Float.abs (measured -. usage) < 0.08))
    [ 0.2; 0.4; 0.6; 0.8 ]

let test_make_rtl_no_empty_instruction () =
  let rtl =
    Benchmarks.Workload.make_rtl ~n_modules:50 ~n_instructions:40 ~usage:0.05 ~seed:4 ()
  in
  for i = 0 to Activity.Rtl.n_instructions rtl - 1 do
    Alcotest.(check bool) "non-empty" false
      (Activity.Module_set.is_empty (Activity.Rtl.uses rtl i))
  done

let test_profile_activity_near_target () =
  let profile = Benchmarks.Workload.profile ~n_modules:120 ~usage:0.4 ~seed:8 () in
  let a = Activity.Profile.avg_activity profile in
  Alcotest.(check bool) (Printf.sprintf "activity %.3f near 0.4" a) true
    (Float.abs (a -. 0.4) < 0.12)

let test_grouped_activity_is_correlated () =
  (* the point of the grouped model: a whole group's enable probability
     stays far below 1, unlike independent modules where the OR saturates *)
  let n = 120 in
  let profile = Benchmarks.Workload.profile ~n_modules:n ~usage:0.4 ~seed:9 () in
  let g = Benchmarks.Workload.default_groups n in
  (* collect the group with the LOWEST single-module probability to dodge
     core groups; its whole-group enable must stay well below 1 *)
  let best = ref 1.1 in
  for grp = 0 to g - 1 do
    let members =
      List.filter
        (fun m -> Benchmarks.Workload.group_of ~n_modules:n ~n_groups:g m = grp)
        (List.init n Fun.id)
    in
    let set = Activity.Module_set.of_list n members in
    let p = Activity.Profile.p profile set in
    if p < !best then best := p
  done;
  Alcotest.(check bool)
    (Printf.sprintf "quietest group enable %.3f < 0.8" !best)
    true (!best < 0.8)

(* ------------------------------------------------------------------ *)
(* Suite                                                              *)
(* ------------------------------------------------------------------ *)

let test_suite_case () =
  let case = Benchmarks.Suite.by_name ~stream_length:200 "r1" in
  Alcotest.(check string) "name" "r1" case.Benchmarks.Suite.name;
  Alcotest.(check int) "one module per sink" 267
    (Activity.Profile.n_modules case.Benchmarks.Suite.profile);
  Alcotest.(check int) "stream length" 200
    (Activity.Instr_stream.length (Activity.Profile.stream case.Benchmarks.Suite.profile))

let test_suite_table4 () =
  let cases = [ Benchmarks.Suite.by_name ~stream_length:100 "r1" ] in
  let s = Util.Text_table.render (Benchmarks.Suite.characteristics_table cases) in
  Alcotest.(check bool) "has title" true
    (Astring.String.is_prefix ~affix:"Table 4" s);
  Alcotest.(check bool) "row for r1" true (Astring.String.is_infix ~affix:"r1" s)

let test_suite_usage_override () =
  let lo = Benchmarks.Suite.by_name ~stream_length:300 ~usage:0.15 "r1" in
  let hi = Benchmarks.Suite.by_name ~stream_length:300 ~usage:0.8 "r1" in
  Alcotest.(check bool) "usage moves activity" true
    (Activity.Profile.avg_activity lo.Benchmarks.Suite.profile
    < Activity.Profile.avg_activity hi.Benchmarks.Suite.profile);
  check_float "sinks unchanged"
    (float_of_int (Array.length lo.Benchmarks.Suite.sinks))
    (float_of_int (Array.length hi.Benchmarks.Suite.sinks))

(* A suite scaled below four sinks must still route: the default group
   count may not exceed the module universe. *)
let test_suite_tiny_scaled () =
  List.iter
    (fun k ->
      let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r1") ~n_sinks:k in
      let case = Benchmarks.Suite.case ~stream_length:200 spec in
      let tree =
        Gcr.Flow.run case.Benchmarks.Suite.config case.Benchmarks.Suite.profile
          case.Benchmarks.Suite.sinks
      in
      Gcr.Gated_tree.check_invariants tree;
      Alcotest.(check int) (Printf.sprintf "%d sinks routed" k) k
        (Clocktree.Topo.n_sinks tree.Gcr.Gated_tree.topo))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "benchmarks"
    [
      ( "rbench",
        [
          Alcotest.test_case "published sizes" `Quick test_specs_published_sizes;
          Alcotest.test_case "by_name" `Quick test_by_name;
          Alcotest.test_case "sinks well formed" `Quick test_sinks_well_formed;
          Alcotest.test_case "deterministic" `Quick test_sinks_deterministic;
          Alcotest.test_case "spatially clustered" `Quick test_sinks_spatially_clustered;
          Alcotest.test_case "scaled" `Quick test_scaled;
        ] );
      ( "workload",
        [
          Alcotest.test_case "group_of contiguous" `Quick test_group_of_contiguous;
          Alcotest.test_case "default groups" `Quick test_default_groups_bounds;
          Alcotest.test_case "validation" `Quick test_make_rtl_validation;
          Alcotest.test_case "hits target usage" `Quick test_make_rtl_hits_target_usage;
          Alcotest.test_case "no empty instruction" `Quick test_make_rtl_no_empty_instruction;
          Alcotest.test_case "profile activity" `Quick test_profile_activity_near_target;
          Alcotest.test_case "grouped correlation" `Quick test_grouped_activity_is_correlated;
        ] );
      ( "suite",
        [
          Alcotest.test_case "case" `Quick test_suite_case;
          Alcotest.test_case "table4" `Quick test_suite_table4;
          Alcotest.test_case "tiny scaled cases route" `Quick test_suite_tiny_scaled;
          Alcotest.test_case "usage override" `Quick test_suite_usage_override;
        ] );
    ]
