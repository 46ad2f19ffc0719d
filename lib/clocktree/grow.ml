type t = {
  tech : Tech.t;
  edge_gate : Tech.gate option;
  arena : Arena.t; (* capacity 2N-1; n_nodes = ids allocated so far *)
  alive : bool array;
  mutable n_active : int;
  merge_list : (int * int) array;
}

let create tech ~edge_gate sinks =
  Sink.validate_array sinks;
  let n = Array.length sinks in
  let arena = Arena.create ~n_sinks:n in
  for v = 0 to n - 1 do
    Arena.set_region_point arena v sinks.(v).Sink.loc;
    arena.Arena.cap.(v) <- sinks.(v).Sink.cap
  done;
  arena.Arena.n_nodes <- n;
  {
    tech;
    edge_gate;
    arena;
    alive = Array.init (Arena.capacity arena) (fun v -> v < n);
    n_active = n;
    merge_list = Array.make (max 0 (n - 1)) (0, 0);
  }

let n_sinks t = t.arena.Arena.n_sinks

let n_nodes t = t.arena.Arena.n_nodes

let n_active t = t.n_active

let is_active t v = v >= 0 && v < t.arena.Arena.n_nodes && t.alive.(v)

let active t =
  let rec go v acc = if v < 0 then acc else go (v - 1) (if t.alive.(v) then v :: acc else acc) in
  go (t.arena.Arena.n_nodes - 1) []

let check_active name t v =
  if not (is_active t v) then
    invalid_arg (Printf.sprintf "Grow.%s: %d is not an active root" name v)

let region t v = Arena.region t.arena v

let center_point t v = Arena.center_point t.arena v

let dist t a b = Arena.dist t.arena a b

let branch t v =
  { Zskew.delay = t.arena.Arena.delay.(v); cap = t.arena.Arena.cap.(v); gate = t.edge_gate }

let peek_split t a b =
  check_active "peek_split" t a;
  check_active "peek_split" t b;
  Zskew.split t.tech (branch t a) (branch t b) ~dist:(dist t a b)

let peek_lengths t a b lengths =
  check_active "peek_lengths" t a;
  check_active "peek_lengths" t b;
  Zskew.lengths_into t.tech t.edge_gate ~delay:t.arena.Arena.delay ~cap:t.arena.Arena.cap a
    b ~dist:(dist t a b) lengths

let merge t a b =
  check_active "merge" t a;
  check_active "merge" t b;
  if a = b then invalid_arg "Grow.merge: merging a root with itself";
  let split = peek_split t a b in
  let ar = t.arena in
  let k = ar.Arena.n_nodes in
  Arena.set_region ar k
    (Mseg.merge_region (region t a) split.Zskew.ea (region t b) split.Zskew.eb
       (dist t a b));
  ar.Arena.delay.(k) <- split.Zskew.merged_delay;
  ar.Arena.cap.(k) <- split.Zskew.merged_cap;
  ar.Arena.edge_len.(a) <- split.Zskew.ea;
  ar.Arena.edge_len.(b) <- split.Zskew.eb;
  ar.Arena.left.(k) <- a;
  ar.Arena.right.(k) <- b;
  ar.Arena.parent.(a) <- k;
  ar.Arena.parent.(b) <- k;
  t.merge_list.(k - ar.Arena.n_sinks) <- (a, b);
  t.alive.(a) <- false;
  t.alive.(b) <- false;
  t.alive.(k) <- true;
  ar.Arena.n_nodes <- k + 1;
  t.n_active <- t.n_active - 1;
  k

let merges t = Array.sub t.merge_list 0 (t.arena.Arena.n_nodes - t.arena.Arena.n_sinks)

let topology t =
  if t.n_active <> 1 then
    invalid_arg
      (Printf.sprintf "Grow.topology: %d roots still active" t.n_active);
  Topo.of_merges ~n_sinks:(n_sinks t) (merges t)
