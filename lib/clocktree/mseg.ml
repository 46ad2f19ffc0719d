type t = Arena.t

(* The two inflated child regions meet in exact arithmetic; under floating
   point they can miss by a hair, so retry with a small relative slack and
   finally fall back to the midpoint of the closest pair. *)
let merge_region ra ea rb eb dist =
  let ta = Geometry.Rect.inflate ra ea and tb = Geometry.Rect.inflate rb eb in
  match Geometry.Rect.intersect ta tb with
  | Some r -> r
  | None ->
    let slack = 1e-9 *. (1.0 +. dist) in
    (match
       Geometry.Rect.intersect (Geometry.Rect.inflate ta slack)
         (Geometry.Rect.inflate tb slack)
     with
    | Some r -> r
    | None ->
      let p, q = Geometry.Rect.nearest_pair ta tb in
      Geometry.Rect.of_rot
        { Geometry.Rot.u = (p.Geometry.Rot.u +. q.Geometry.Rot.u) /. 2.0;
          v = (p.Geometry.Rot.v +. q.Geometry.Rot.v) /. 2.0;
        })

let build tech topo ~sinks ~gate_on_edge =
  Sink.validate_array sinks;
  if Array.length sinks <> Topo.n_sinks topo then
    invalid_arg "Mseg.build: sink count does not match topology";
  let n_sinks = Topo.n_sinks topo in
  let t = Arena.create ~n_sinks in
  t.Arena.n_nodes <- Topo.n_nodes topo;
  Topo.iter_bottom_up topo (fun v ->
      (match Topo.parent topo v with
      | Some p -> t.Arena.parent.(v) <- p
      | None -> t.Arena.parent.(v) <- -1);
      match Topo.children topo v with
      | None ->
        Arena.set_region_point t v sinks.(v).Sink.loc;
        t.Arena.cap.(v) <- sinks.(v).Sink.cap
      | Some (a, b) ->
        t.Arena.left.(v) <- a;
        t.Arena.right.(v) <- b;
        let branch c =
          { Zskew.delay = t.Arena.delay.(c); cap = t.Arena.cap.(c); gate = gate_on_edge c }
        in
        let dist = Arena.dist t a b in
        let split = Zskew.split tech (branch a) (branch b) ~dist in
        t.Arena.edge_len.(a) <- split.Zskew.ea;
        t.Arena.edge_len.(b) <- split.Zskew.eb;
        (match split.Zskew.snaked with
        | Zskew.No_snake -> ()
        | Zskew.Snake_a -> Arena.set_snaked t a true
        | Zskew.Snake_b -> Arena.set_snaked t b true);
        Arena.set_region t v
          (merge_region (Arena.region t a) split.Zskew.ea (Arena.region t b)
             split.Zskew.eb dist);
        t.Arena.delay.(v) <- split.Zskew.merged_delay;
        t.Arena.cap.(v) <- split.Zskew.merged_cap);
  t

let region = Arena.region
let cap (t : t) v = t.Arena.cap.(v)
let edge_len (t : t) v = t.Arena.edge_len.(v)
let set_edge_len (t : t) v x = t.Arena.edge_len.(v) <- x
let snaked = Arena.snaked
let copy = Arena.copy

let total_wirelength (t : t) =
  let acc = ref 0.0 in
  for v = 0 to t.Arena.n_nodes - 1 do
    acc := !acc +. t.Arena.edge_len.(v)
  done;
  !acc
