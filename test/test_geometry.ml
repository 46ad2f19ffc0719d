(* Tests for the rotated-frame Manhattan geometry substrate: points,
   rotation, rectangles (TRRs / merging segments, Manhattan arcs as
   degenerate ones) and bounding boxes. These underpin the DME construction, so they are tested both
   with hand-computed cases and with qcheck properties. *)

let check_float = Alcotest.(check (float 1e-9))
let pt = Geometry.Point.make

(* ------------------------------------------------------------------ *)
(* Point                                                              *)
(* ------------------------------------------------------------------ *)

let test_point_manhattan () =
  check_float "manhattan" 7.0 (Geometry.Point.manhattan (pt 1.0 2.0) (pt 4.0 6.0));
  check_float "self" 0.0 (Geometry.Point.manhattan (pt 1.0 2.0) (pt 1.0 2.0))

let test_point_euclidean () =
  check_float "3-4-5" 5.0 (Geometry.Point.euclidean (pt 0.0 0.0) (pt 3.0 4.0))

let test_point_chebyshev () =
  check_float "chebyshev" 4.0 (Geometry.Point.chebyshev (pt 1.0 2.0) (pt 4.0 6.0))

let test_point_midpoint_lerp () =
  let m = Geometry.Point.midpoint (pt 0.0 0.0) (pt 2.0 4.0) in
  Alcotest.(check bool) "midpoint" true (Geometry.Point.equal m (pt 1.0 2.0));
  let q = Geometry.Point.lerp (pt 0.0 0.0) (pt 10.0 0.0) 0.25 in
  Alcotest.(check bool) "lerp" true (Geometry.Point.equal q (pt 2.5 0.0))

let test_point_arith () =
  let a = pt 1.0 2.0 and b = pt 3.0 5.0 in
  Alcotest.(check bool) "add" true
    (Geometry.Point.equal (Geometry.Point.add a b) (pt 4.0 7.0));
  Alcotest.(check bool) "sub" true
    (Geometry.Point.equal (Geometry.Point.sub b a) (pt 2.0 3.0));
  Alcotest.(check bool) "scale" true
    (Geometry.Point.equal (Geometry.Point.scale 2.0 a) (pt 2.0 4.0))

(* ------------------------------------------------------------------ *)
(* Rot                                                                *)
(* ------------------------------------------------------------------ *)

let test_rot_roundtrip () =
  let p = pt 3.5 (-1.25) in
  let q = Geometry.Rot.to_point (Geometry.Rot.of_point p) in
  Alcotest.(check bool) "roundtrip" true (Geometry.Point.equal p q)

let test_rot_metric () =
  let a = pt 1.0 2.0 and b = pt 4.0 6.0 in
  check_float "manhattan = rotated chebyshev"
    (Geometry.Point.manhattan a b)
    (Geometry.Rot.chebyshev (Geometry.Rot.of_point a) (Geometry.Rot.of_point b))

let float_coord = QCheck.float_range (-1000.0) 1000.0

let point_gen = QCheck.map (fun (x, y) -> pt x y) QCheck.(pair float_coord float_coord)

let prop_rot_isometry =
  QCheck.Test.make ~name:"rotation is a Manhattan->Chebyshev isometry" ~count:500
    QCheck.(pair point_gen point_gen)
    (fun (a, b) ->
      let d1 = Geometry.Point.manhattan a b in
      let d2 =
        Geometry.Rot.chebyshev (Geometry.Rot.of_point a) (Geometry.Rot.of_point b)
      in
      Float.abs (d1 -. d2) <= 1e-6 *. (1.0 +. d1))

let prop_rot_roundtrip =
  QCheck.Test.make ~name:"rot roundtrip is identity" ~count:500 point_gen
    (fun p ->
      Geometry.Point.equal ~eps:1e-9 p (Geometry.Rot.to_point (Geometry.Rot.of_point p)))

(* ------------------------------------------------------------------ *)
(* Rect                                                               *)
(* ------------------------------------------------------------------ *)

let rect ulo uhi vlo vhi = Geometry.Rect.make ~ulo ~uhi ~vlo ~vhi

let test_rect_validation () =
  Alcotest.check_raises "reversed" (Invalid_argument "Rect.make: reversed interval")
    (fun () -> ignore (rect 1.0 0.0 0.0 1.0));
  Alcotest.check_raises "nan" (Invalid_argument "Rect.make: non-finite bound")
    (fun () -> ignore (rect Float.nan 0.0 0.0 1.0))

let test_rect_inflate () =
  let r = Geometry.Rect.inflate (Geometry.Rect.of_point (pt 0.0 0.0)) 2.0 in
  (* TRR of radius 2 around the origin: |x| + |y| <= 2. *)
  Alcotest.(check bool) "contains (1,1)" true
    (Geometry.Rect.contains r (Geometry.Rot.of_point (pt 1.0 1.0)));
  Alcotest.(check bool) "contains (2,0)" true
    (Geometry.Rect.contains r (Geometry.Rot.of_point (pt 2.0 0.0)));
  Alcotest.(check bool) "excludes (1.5,1.0)" false
    (Geometry.Rect.contains r (Geometry.Rot.of_point (pt 1.5 1.0)));
  Alcotest.check_raises "negative radius"
    (Invalid_argument "Rect.inflate: negative radius") (fun () ->
      ignore (Geometry.Rect.inflate r (-1.0)))

let test_rect_intersect () =
  let a = rect 0.0 2.0 0.0 2.0 and b = rect 1.0 3.0 1.0 3.0 in
  (match Geometry.Rect.intersect a b with
  | Some i -> Alcotest.(check bool) "overlap" true (Geometry.Rect.equal i (rect 1.0 2.0 1.0 2.0))
  | None -> Alcotest.fail "expected overlap");
  let c = rect 5.0 6.0 0.0 1.0 in
  Alcotest.(check bool) "disjoint" true (Geometry.Rect.intersect a c = None)

let test_rect_distance () =
  let a = rect 0.0 1.0 0.0 1.0 and b = rect 3.0 4.0 0.0 1.0 in
  check_float "u gap" 2.0 (Geometry.Rect.distance a b);
  let c = rect 3.0 4.0 5.0 6.0 in
  check_float "max gap" 4.0 (Geometry.Rect.distance a c);
  check_float "overlap" 0.0 (Geometry.Rect.distance a a)

let test_rect_point_distance_agrees () =
  (* Distance between two degenerate rects equals Manhattan distance of the
     chip points. *)
  let p = pt 1.0 2.0 and q = pt 4.0 6.0 in
  check_float "degenerate"
    (Geometry.Point.manhattan p q)
    (Geometry.Rect.distance (Geometry.Rect.of_point p) (Geometry.Rect.of_point q))

let test_rect_nearest () =
  let r = rect 0.0 2.0 0.0 2.0 in
  let p = Geometry.Rect.nearest_to r { Geometry.Rot.u = 5.0; v = 1.0 } in
  Alcotest.(check bool) "clamped" true
    (Geometry.Rot.equal p { Geometry.Rot.u = 2.0; v = 1.0 })

let test_rect_nearest_pair () =
  let a = rect 0.0 1.0 0.0 1.0 and b = rect 3.0 4.0 2.0 5.0 in
  let p, q = Geometry.Rect.nearest_pair a b in
  Alcotest.(check bool) "p in a" true (Geometry.Rect.contains a p);
  Alcotest.(check bool) "q in b" true (Geometry.Rect.contains b q);
  check_float "realizes distance" (Geometry.Rect.distance a b) (Geometry.Rot.chebyshev p q)

let test_rect_center_point () =
  let r = Geometry.Rect.of_point (pt 3.0 4.0) in
  Alcotest.(check bool) "point center" true
    (Geometry.Point.equal (Geometry.Rect.center_point r) (pt 3.0 4.0))

let test_rect_predicates () =
  Alcotest.(check bool) "point" true
    (Geometry.Rect.is_point (Geometry.Rect.of_point (pt 0.0 0.0)));
  Alcotest.(check bool) "segment" true (Geometry.Rect.is_segment (rect 0.0 1.0 2.0 2.0));
  Alcotest.(check bool) "2d not segment" false (Geometry.Rect.is_segment (rect 0.0 1.0 0.0 1.0));
  Alcotest.(check bool) "2d not point" false (Geometry.Rect.is_point (rect 0.0 1.0 0.0 1.0))

let test_rect_contains_rect () =
  let outer = rect 0.0 10.0 0.0 10.0 in
  Alcotest.(check bool) "subset" true
    (Geometry.Rect.contains_rect outer (rect 1.0 2.0 3.0 4.0));
  Alcotest.(check bool) "not subset" false
    (Geometry.Rect.contains_rect outer (rect 1.0 11.0 3.0 4.0))

let test_rect_corner_points () =
  let n = List.length (Geometry.Rect.corner_points (rect 0.0 1.0 0.0 1.0)) in
  Alcotest.(check int) "4 corners" 4 n;
  let n = List.length (Geometry.Rect.corner_points (rect 0.0 1.0 2.0 2.0)) in
  Alcotest.(check int) "2 for segment" 2 n;
  let n = List.length (Geometry.Rect.corner_points (Geometry.Rect.of_point (pt 0.0 0.0))) in
  Alcotest.(check int) "1 for point" 1 n

let rect_gen =
  let open QCheck in
  map
    (fun ((a, b), (c, d)) ->
      Geometry.Rect.make ~ulo:(Float.min a b) ~uhi:(Float.max a b)
        ~vlo:(Float.min c d) ~vhi:(Float.max c d))
    (pair (pair float_coord float_coord) (pair float_coord float_coord))

let prop_inflate_contains =
  QCheck.Test.make ~name:"inflate r d contains every point within d" ~count:300
    QCheck.(pair rect_gen (float_range 0.0 100.0))
    (fun (r, d) ->
      let prng = Util.Prng.create 11 in
      let inside = Geometry.Rect.inflate r d in
      (* sample a point of r, move by at most d in chebyshev, must stay inside *)
      let p = Geometry.Rect.sample prng r in
      let du = Util.Prng.range prng (-.d) d and dv = Util.Prng.range prng (-.d) d in
      Geometry.Rect.contains ~eps:1e-6 inside { Geometry.Rot.u = p.u +. du; v = p.v +. dv })

let prop_intersection_subset =
  QCheck.Test.make ~name:"intersection is a subset of both" ~count:300
    QCheck.(pair rect_gen rect_gen)
    (fun (a, b) ->
      match Geometry.Rect.intersect a b with
      | None -> Geometry.Rect.distance a b >= -1e-9
      | Some i -> Geometry.Rect.contains_rect a i && Geometry.Rect.contains_rect b i)

let prop_distance_symmetric =
  QCheck.Test.make ~name:"rect distance is symmetric" ~count:300
    QCheck.(pair rect_gen rect_gen)
    (fun (a, b) ->
      Float.abs (Geometry.Rect.distance a b -. Geometry.Rect.distance b a) < 1e-9)

let prop_distance_zero_iff_intersect =
  QCheck.Test.make ~name:"distance 0 iff rectangles intersect" ~count:300
    QCheck.(pair rect_gen rect_gen)
    (fun (a, b) ->
      let d = Geometry.Rect.distance a b in
      match Geometry.Rect.intersect a b with
      | Some _ -> d <= 1e-9
      | None -> d > 0.0)

let prop_nearest_pair_realizes_distance =
  QCheck.Test.make ~name:"nearest_pair realizes rect distance" ~count:300
    QCheck.(pair rect_gen rect_gen)
    (fun (a, b) ->
      let p, q = Geometry.Rect.nearest_pair a b in
      Geometry.Rect.contains ~eps:1e-6 a p
      && Geometry.Rect.contains ~eps:1e-6 b q
      && Float.abs (Geometry.Rot.chebyshev p q -. Geometry.Rect.distance a b) <= 1e-6)

let prop_nearest_is_closest =
  QCheck.Test.make ~name:"nearest_to at most as far as random points" ~count:300
    QCheck.(pair rect_gen (pair float_coord float_coord))
    (fun (r, (u, v)) ->
      let p = { Geometry.Rot.u; v } in
      let near = Geometry.Rect.nearest_to r p in
      let prng = Util.Prng.create 5 in
      let other = Geometry.Rect.sample prng r in
      Geometry.Rot.chebyshev p near <= Geometry.Rot.chebyshev p other +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Bbox                                                               *)
(* ------------------------------------------------------------------ *)

let test_bbox_of_points () =
  let b = Geometry.Bbox.of_points [| pt 1.0 5.0; pt (-2.0) 0.0; pt 4.0 2.0 |] in
  check_float "width" 6.0 (Geometry.Bbox.width b);
  check_float "height" 5.0 (Geometry.Bbox.height b);
  Alcotest.(check bool) "center" true
    (Geometry.Point.equal (Geometry.Bbox.center b) (pt 1.0 2.5))

let test_bbox_contains_clamp () =
  let b = Geometry.Bbox.square ~side:10.0 in
  Alcotest.(check bool) "inside" true (Geometry.Bbox.contains b (pt 5.0 5.0));
  Alcotest.(check bool) "outside" false (Geometry.Bbox.contains b (pt 11.0 5.0));
  Alcotest.(check bool) "clamp" true
    (Geometry.Point.equal (Geometry.Bbox.clamp b (pt 11.0 (-3.0))) (pt 10.0 0.0))

let test_bbox_split_grid () =
  let b = Geometry.Bbox.square ~side:8.0 in
  let cells = Geometry.Bbox.split_grid b 2 in
  Alcotest.(check int) "4 cells" 4 (Array.length cells);
  Alcotest.(check bool) "cell 0 lower-left" true
    (Geometry.Point.equal (Geometry.Bbox.center cells.(0)) (pt 2.0 2.0));
  Alcotest.(check bool) "cell 3 upper-right" true
    (Geometry.Point.equal (Geometry.Bbox.center cells.(3)) (pt 6.0 6.0))

let test_bbox_cell_index () =
  let b = Geometry.Bbox.square ~side:8.0 in
  Alcotest.(check int) "lower-left" 0 (Geometry.Bbox.cell_index b 2 (pt 1.0 1.0));
  Alcotest.(check int) "upper-right" 3 (Geometry.Bbox.cell_index b 2 (pt 7.0 7.0));
  Alcotest.(check int) "outside clamps" 2 (Geometry.Bbox.cell_index b 2 (pt (-5.0) 100.0))

let prop_bbox_cell_consistent =
  QCheck.Test.make ~name:"cell_index matches the containing grid cell" ~count:300
    QCheck.(pair (int_range 1 5) (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun (g, (x, y)) ->
      let b = Geometry.Bbox.square ~side:100.0 in
      let p = pt x y in
      let idx = Geometry.Bbox.cell_index b g p in
      let cells = Geometry.Bbox.split_grid b g in
      Geometry.Bbox.contains ~eps:1e-6 cells.(idx) p)

let prop_rect_sample_inside =
  QCheck.Test.make ~name:"sample always lands inside the rectangle" ~count:200
    rect_gen
    (fun r ->
      let prng = Util.Prng.create 17 in
      let ok = ref true in
      for _ = 1 to 20 do
        if not (Geometry.Rect.contains ~eps:1e-9 r (Geometry.Rect.sample prng r)) then
          ok := false
      done;
      !ok)

let prop_bbox_clamp_idempotent =
  QCheck.Test.make ~name:"bbox clamp is idempotent and inside" ~count:200
    QCheck.(pair float_coord float_coord)
    (fun (x, y) ->
      let b = Geometry.Bbox.square ~side:100.0 in
      let p = Geometry.Bbox.clamp b (pt x y) in
      Geometry.Bbox.contains b p
      && Geometry.Point.equal p (Geometry.Bbox.clamp b p))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "geometry"
    [
      ( "point",
        [
          Alcotest.test_case "manhattan" `Quick test_point_manhattan;
          Alcotest.test_case "euclidean" `Quick test_point_euclidean;
          Alcotest.test_case "chebyshev" `Quick test_point_chebyshev;
          Alcotest.test_case "midpoint/lerp" `Quick test_point_midpoint_lerp;
          Alcotest.test_case "arith" `Quick test_point_arith;
        ] );
      ( "rot",
        [
          Alcotest.test_case "roundtrip" `Quick test_rot_roundtrip;
          Alcotest.test_case "metric" `Quick test_rot_metric;
          qt prop_rot_isometry;
          qt prop_rot_roundtrip;
        ] );
      ( "rect",
        [
          Alcotest.test_case "validation" `Quick test_rect_validation;
          Alcotest.test_case "inflate" `Quick test_rect_inflate;
          Alcotest.test_case "intersect" `Quick test_rect_intersect;
          Alcotest.test_case "distance" `Quick test_rect_distance;
          Alcotest.test_case "degenerate distance" `Quick test_rect_point_distance_agrees;
          Alcotest.test_case "nearest" `Quick test_rect_nearest;
          Alcotest.test_case "nearest pair" `Quick test_rect_nearest_pair;
          Alcotest.test_case "center point" `Quick test_rect_center_point;
          Alcotest.test_case "predicates" `Quick test_rect_predicates;
          Alcotest.test_case "contains_rect" `Quick test_rect_contains_rect;
          Alcotest.test_case "corner points" `Quick test_rect_corner_points;
          qt prop_inflate_contains;
          qt prop_intersection_subset;
          qt prop_distance_symmetric;
          qt prop_distance_zero_iff_intersect;
          qt prop_nearest_pair_realizes_distance;
          qt prop_nearest_is_closest;
          qt prop_rect_sample_inside;
        ] );
      ( "bbox",
        [
          Alcotest.test_case "of_points" `Quick test_bbox_of_points;
          Alcotest.test_case "contains/clamp" `Quick test_bbox_contains_clamp;
          Alcotest.test_case "split grid" `Quick test_bbox_split_grid;
          Alcotest.test_case "cell index" `Quick test_bbox_cell_index;
          qt prop_bbox_cell_consistent;
          qt prop_bbox_clamp_idempotent;
        ] );
    ]
