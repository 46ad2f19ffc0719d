(* Struct-of-arrays flat storage for clock-tree nodes. See arena.mli. *)

type t = {
  n_sinks : int;
  mutable n_nodes : int;
  ulo : float array;
  uhi : float array;
  vlo : float array;
  vhi : float array;
  delay : float array;
  cap : float array;
  edge_len : float array;
  px : float array;
  py : float array;
  snaked : Bytes.t;
  left : int array;
  right : int array;
  parent : int array;
}

let create ~n_sinks =
  if n_sinks <= 0 then
    invalid_arg (Printf.sprintf "Arena.create: n_sinks %d must be positive" n_sinks);
  let cap = (2 * n_sinks) - 1 in
  {
    n_sinks;
    n_nodes = 0;
    ulo = Array.make cap 0.0;
    uhi = Array.make cap 0.0;
    vlo = Array.make cap 0.0;
    vhi = Array.make cap 0.0;
    delay = Array.make cap 0.0;
    cap = Array.make cap 0.0;
    edge_len = Array.make cap 0.0;
    px = Array.make cap 0.0;
    py = Array.make cap 0.0;
    snaked = Bytes.make cap '\000';
    left = Array.make cap (-1);
    right = Array.make cap (-1);
    parent = Array.make cap (-1);
  }

let capacity t = Array.length t.delay

let region t v =
  Geometry.Rect.make ~ulo:t.ulo.(v) ~uhi:t.uhi.(v) ~vlo:t.vlo.(v) ~vhi:t.vhi.(v)

let set_region t v r =
  t.ulo.(v) <- r.Geometry.Rect.ulo;
  t.uhi.(v) <- r.Geometry.Rect.uhi;
  t.vlo.(v) <- r.Geometry.Rect.vlo;
  t.vhi.(v) <- r.Geometry.Rect.vhi

let set_region_point t v p =
  let r = Geometry.Rot.of_point p in
  t.ulo.(v) <- r.Geometry.Rot.u;
  t.uhi.(v) <- r.Geometry.Rot.u;
  t.vlo.(v) <- r.Geometry.Rot.v;
  t.vhi.(v) <- r.Geometry.Rot.v

(* Float.max by plain comparisons: Stdlib's is an out-of-line call that
   boxes both operands, once per cost evaluation. A NaN operand fails
   both comparisons and propagates through [a +. b], so a NaN region
   still yields a NaN distance, which Zskew rejects. *)
let[@inline] fmax (a : float) b = if a >= b then a else if a < b then b else a +. b

(* Mirrors Rect.interval_gap / Rect.distance exactly so that callers
   switching from materialized rectangles to column reads see
   bit-identical distances (and therefore identical greedy choices).
   [fmax] may keep a -0.0 that Float.max would turn into +0.0 only in
   the inner max; the outer max with 0.0 returns +0.0 either way, so
   every result matches Float.max's bit for bit. *)
let[@inline] interval_gap alo ahi blo bhi = fmax 0.0 (fmax (blo -. ahi) (alo -. bhi))

let dist t a b =
  let du = interval_gap t.ulo.(a) t.uhi.(a) t.ulo.(b) t.uhi.(b) in
  let dv = interval_gap t.vlo.(a) t.vhi.(a) t.vlo.(b) t.vhi.(b) in
  fmax du dv

let center_point t v =
  Geometry.Rot.to_point
    {
      Geometry.Rot.u = 0.5 *. (t.ulo.(v) +. t.uhi.(v));
      v = 0.5 *. (t.vlo.(v) +. t.vhi.(v));
    }

let loc t v = Geometry.Point.make t.px.(v) t.py.(v)

let set_loc t v p =
  t.px.(v) <- p.Geometry.Point.x;
  t.py.(v) <- p.Geometry.Point.y

let snaked t v = Bytes.get t.snaked v <> '\000'
let set_snaked t v b = Bytes.set t.snaked v (if b then '\001' else '\000')

let copy t =
  {
    n_sinks = t.n_sinks;
    n_nodes = t.n_nodes;
    ulo = Array.copy t.ulo;
    uhi = Array.copy t.uhi;
    vlo = Array.copy t.vlo;
    vhi = Array.copy t.vhi;
    delay = Array.copy t.delay;
    cap = Array.copy t.cap;
    edge_len = Array.copy t.edge_len;
    px = Array.copy t.px;
    py = Array.copy t.py;
    snaked = Bytes.copy t.snaked;
    left = Array.copy t.left;
    right = Array.copy t.right;
    parent = Array.copy t.parent;
  }

type node = {
  node_region : Geometry.Rect.t;
  node_delay : float;
  node_cap : float;
  node_edge_len : float;
  node_loc : Geometry.Point.t;
  node_snaked : bool;
  node_left : int;
  node_right : int;
  node_parent : int;
}

let to_nodes t =
  Array.init t.n_nodes (fun v ->
      {
        node_region = region t v;
        node_delay = t.delay.(v);
        node_cap = t.cap.(v);
        node_edge_len = t.edge_len.(v);
        node_loc = loc t v;
        node_snaked = snaked t v;
        node_left = t.left.(v);
        node_right = t.right.(v);
        node_parent = t.parent.(v);
      })

let of_nodes ~n_sinks nodes =
  let t = create ~n_sinks in
  if Array.length nodes > capacity t then
    invalid_arg
      (Printf.sprintf "Arena.of_nodes: %d nodes exceed capacity %d"
         (Array.length nodes) (capacity t));
  Array.iteri
    (fun v n ->
      set_region t v n.node_region;
      t.delay.(v) <- n.node_delay;
      t.cap.(v) <- n.node_cap;
      t.edge_len.(v) <- n.node_edge_len;
      set_loc t v n.node_loc;
      set_snaked t v n.node_snaked;
      t.left.(v) <- n.node_left;
      t.right.(v) <- n.node_right;
      t.parent.(v) <- n.node_parent)
    nodes;
  t.n_nodes <- Array.length nodes;
  t
