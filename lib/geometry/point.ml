type t = { x : float; y : float }

let make x y = { x; y }

let manhattan a b = Float.abs (a.x -. b.x) +. Float.abs (a.y -. b.y)

let euclidean a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

let chebyshev a b = Float.max (Float.abs (a.x -. b.x)) (Float.abs (a.y -. b.y))

let midpoint a b = { x = (a.x +. b.x) /. 2.0; y = (a.y +. b.y) /. 2.0 }

let add a b = { x = a.x +. b.x; y = a.y +. b.y }

let sub a b = { x = a.x -. b.x; y = a.y -. b.y }

let scale k p = { x = k *. p.x; y = k *. p.y }

let lerp a b f = { x = a.x +. ((b.x -. a.x) *. f); y = a.y +. ((b.y -. a.y) *. f) }

let equal ?(eps = 1e-9) a b =
  Float.abs (a.x -. b.x) <= eps && Float.abs (a.y -. b.y) <= eps

let compare a b =
  match Float.compare a.x b.x with 0 -> Float.compare a.y b.y | c -> c

let pp ppf p = Format.fprintf ppf "(%g, %g)" p.x p.y

