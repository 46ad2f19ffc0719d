type t = { ulo : float; uhi : float; vlo : float; vhi : float }

let make ~ulo ~uhi ~vlo ~vhi =
  let finite x = Float.is_finite x in
  if not (finite ulo && finite uhi && finite vlo && finite vhi) then
    invalid_arg "Rect.make: non-finite bound";
  if ulo > uhi || vlo > vhi then invalid_arg "Rect.make: reversed interval";
  { ulo; uhi; vlo; vhi }

let of_rot (r : Rot.t) = { ulo = r.u; uhi = r.u; vlo = r.v; vhi = r.v }

let of_point p = of_rot (Rot.of_point p)

let inflate r d =
  if d < 0.0 then invalid_arg "Rect.inflate: negative radius";
  { ulo = r.ulo -. d; uhi = r.uhi +. d; vlo = r.vlo -. d; vhi = r.vhi +. d }

let intersect a b =
  let ulo = Float.max a.ulo b.ulo and uhi = Float.min a.uhi b.uhi in
  let vlo = Float.max a.vlo b.vlo and vhi = Float.min a.vhi b.vhi in
  if ulo > uhi || vlo > vhi then None else Some { ulo; uhi; vlo; vhi }

(* Distance between two closed intervals. *)
let interval_gap alo ahi blo bhi = Float.max 0.0 (Float.max (blo -. ahi) (alo -. bhi))

let distance a b =
  Float.max (interval_gap a.ulo a.uhi b.ulo b.uhi) (interval_gap a.vlo a.vhi b.vlo b.vhi)

let clamp lo hi x = Float.min hi (Float.max lo x)

let nearest_to r (p : Rot.t) : Rot.t =
  { u = clamp r.ulo r.uhi p.u; v = clamp r.vlo r.vhi p.v }

(* Nearest pair of two closed intervals: coincide on the overlap midpoint
   when they intersect, otherwise face each other across the gap. *)
let interval_nearest alo ahi blo bhi =
  if ahi < blo then (ahi, blo)
  else if bhi < alo then (alo, bhi)
  else
    let m = (Float.max alo blo +. Float.min ahi bhi) /. 2.0 in
    (m, m)

let nearest_pair a b =
  (* The dimensions are independent under the L-inf metric. *)
  let ua, ub = interval_nearest a.ulo a.uhi b.ulo b.uhi in
  let va, vb = interval_nearest a.vlo a.vhi b.vlo b.vhi in
  (Rot.{ u = ua; v = va }, Rot.{ u = ub; v = vb })

let center r : Rot.t = { u = (r.ulo +. r.uhi) /. 2.0; v = (r.vlo +. r.vhi) /. 2.0 }

let center_point r = Rot.to_point (center r)

let contains ?(eps = 1e-9) r (p : Rot.t) =
  p.u >= r.ulo -. eps && p.u <= r.uhi +. eps && p.v >= r.vlo -. eps
  && p.v <= r.vhi +. eps

let contains_rect ?(eps = 1e-9) outer inner =
  inner.ulo >= outer.ulo -. eps
  && inner.uhi <= outer.uhi +. eps
  && inner.vlo >= outer.vlo -. eps
  && inner.vhi <= outer.vhi +. eps

let width_u r = r.uhi -. r.ulo

let width_v r = r.vhi -. r.vlo

let is_point ?(eps = 1e-9) r = width_u r <= eps && width_v r <= eps

let is_segment ?(eps = 1e-9) r =
  let du = width_u r <= eps and dv = width_v r <= eps in
  (du || dv) && not (du && dv)

let corner_points r =
  let corners =
    [
      Rot.{ u = r.ulo; v = r.vlo };
      Rot.{ u = r.uhi; v = r.vlo };
      Rot.{ u = r.uhi; v = r.vhi };
      Rot.{ u = r.ulo; v = r.vhi };
    ]
  in
  let distinct =
    List.fold_left
      (fun acc c -> if List.exists (Rot.equal c) acc then acc else acc @ [ c ])
      [] corners
  in
  List.map Rot.to_point distinct

let sample prng r : Rot.t =
  let pick lo hi = if hi > lo then Util.Prng.range prng lo hi else lo in
  { u = pick r.ulo r.uhi; v = pick r.vlo r.vhi }

let equal ?(eps = 1e-9) a b =
  Float.abs (a.ulo -. b.ulo) <= eps
  && Float.abs (a.uhi -. b.uhi) <= eps
  && Float.abs (a.vlo -. b.vlo) <= eps
  && Float.abs (a.vhi -. b.vhi) <= eps
