type t = { u : float; v : float }

let of_point (p : Point.t) = { u = p.x +. p.y; v = p.x -. p.y }

let to_point r = Point.make ((r.u +. r.v) /. 2.0) ((r.u -. r.v) /. 2.0)

let chebyshev a b = Float.max (Float.abs (a.u -. b.u)) (Float.abs (a.v -. b.v))

let equal ?(eps = 1e-9) a b =
  Float.abs (a.u -. b.u) <= eps && Float.abs (a.v -. b.v) <= eps

