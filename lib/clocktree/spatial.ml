(* Uniform grid over merging-region centers in the rotated (u, v) plane —
   the plane in which Rect lives and in which Rect.distance is the max of
   per-axis interval gaps (an L-inf geometry). An id lives in the cell of
   its region's center. Cells are addressed by
   integer coordinates with no fixed bounds: leaves are found through a
   hash table, so regions that drift outside the initial sink hull
   (snaking inflates merging regions) need no clamping and every pruning
   bound stays exact.

   Above the cells sits a quadtree pyramid: the node at level l covers
   the 2^l x 2^l block of cells whose pyramid coordinates (cell
   coordinates plus a base) shifted right by l equal its own, and its
   aggregate is the minimum K, the minimum P, the bounding box of the
   regions and the smallest id registered below it. The root grows upward whenever an insert
   lands outside its block. A block's aggregate bounds its members
   whatever the block's position, so the base only decides how deep the
   pyramid is: {!for_sinks} aligns the sink cloud inside one block. *)

(* Aggregate slots: min K, min P, bounding box of the member regions,
   smallest member id (exact as a float). An empty node has ulo > uhi;
   an id's own aggregate is its weights, its region and itself. *)
let a_k = 0

let a_p = 1

let a_ulo = 2

let a_uhi = 3

let a_vlo = 4

let a_vhi = 5

let a_id = 6

let slots = 7

type node = {
  level : int;
  nu : int; (* block coordinates: pyramid coordinates asr level *)
  nv : int;
  mutable parent : int; (* -1 at the root *)
  kids : int array; (* four quadrant children, -1 absent; [||] on leaves *)
  mutable head : int; (* leaves: first member, -1 when empty *)
  agg : float array;
}

type t = {
  cell : float; (* cell side, in rotated coordinates *)
  base_u : int; (* cell coordinates + base = pyramid coordinates *)
  base_v : int;
  leaves : (int, int) Hashtbl.t; (* packed cell coords -> leaf node *)
  own : float array; (* id's own aggregate, at id * slots *)
  leaf : int array; (* leaf node per id; -1 = absent *)
  next : int array; (* leaf member lists, most recent insert first *)
  prev : int array;
  mutable nodes : node array;
  mutable n_nodes : int;
  mutable root : int; (* -1 while nothing was ever inserted *)
  saved : float array; (* an aggregate before its recomputation *)
  (* [cheapest]'s best-first frontier: a binary min-heap of nodes keyed
     by their bound. Query scratch, so one index serves one querier. *)
  mutable hkey : float array;
  mutable hnode : int array;
  mutable hsize : int;
  push_key : float array;
}

let greedy_bound_evals = Util.Obs.counter "greedy.bound_evals"

let greedy_cells_visited = Util.Obs.counter "greedy.cells_visited"

(* Cell coordinates stay small (die span / cell size), but pack with a
   generous offset so even far-flung regions cannot collide. *)
let offset = 1 lsl 25

let pack_cell cu cv = ((cu + offset) lsl 27) lor (cv + offset)

let cell_coord_of cell x = int_of_float (Float.floor (x /. cell))

let make ~capacity ~cell ~base_u ~base_v =
  if capacity <= 0 then invalid_arg "Spatial.create: non-positive capacity";
  if not (Float.is_finite cell && cell > 0.0) then
    invalid_arg "Spatial.create: cell side must be positive and finite";
  let ints v = Array.make capacity v in
  {
    cell;
    base_u;
    base_v;
    leaves = Hashtbl.create capacity;
    own = Array.make (capacity * slots) 0.0;
    leaf = ints (-1);
    next = ints (-1);
    prev = ints (-1);
    nodes = [||];
    n_nodes = 0;
    root = -1;
    saved = Array.make slots 0.0;
    hkey = Array.make 64 0.0;
    hnode = Array.make 64 0;
    hsize = 0;
    push_key = [| 0.0 |];
  }

(* Pyramid coordinates must stay non-negative: a negative and a
   non-negative coordinate never share a block under [asr]. *)
let create ~capacity ~cell () = make ~capacity ~cell ~base_u:offset ~base_v:offset

(* Cells of side span / sqrt n hold O(1) sinks at constant density.
   The base puts the sinks' cells inside [2^24 + m, 2^24 + 2m) on each
   axis, with m a power of two above the cloud's span in cells: one
   block of level log2 m holds them all, and a region straying up to m
   cells outside costs at most two more levels. (Aligned at 2^25
   instead, a cloud whose coordinates straddle 0 would hang from a root
   at level 26 and every query would walk two chains of single-child
   blocks.) *)
let for_sinks ~capacity sinks =
  let ulo = ref infinity and uhi = ref neg_infinity in
  let vlo = ref infinity and vhi = ref neg_infinity in
  Array.iter
    (fun s ->
      let r = Geometry.Rot.of_point s.Sink.loc in
      if r.Geometry.Rot.u < !ulo then ulo := r.Geometry.Rot.u;
      if r.Geometry.Rot.u > !uhi then uhi := r.Geometry.Rot.u;
      if r.Geometry.Rot.v < !vlo then vlo := r.Geometry.Rot.v;
      if r.Geometry.Rot.v > !vhi then vhi := r.Geometry.Rot.v)
    sinks;
  let span = Float.max (!uhi -. !ulo) (!vhi -. !vlo) in
  let cell =
    Float.max (span /. sqrt (float_of_int (max (Array.length sinks) 1))) 1e-3
  in
  let base lo hi =
    let klo = cell_coord_of cell lo and khi = cell_coord_of cell hi in
    let m = ref 1 in
    while !m <= khi - klo do
      m := 2 * !m
    done;
    (1 lsl 24) + !m - klo
  in
  make ~capacity ~cell ~base_u:(base !ulo !uhi) ~base_v:(base !vlo !vhi)

let check_id name t id =
  if id < 0 || id >= Array.length t.leaf then
    invalid_arg (Printf.sprintf "Spatial.%s: id %d outside capacity" name id)

let cell_coord t x = cell_coord_of t.cell x

(* ------------------------------------------------------------------ *)
(* Pyramid maintenance                                                 *)
(* ------------------------------------------------------------------ *)

let clear_agg a =
  a.(a_k) <- infinity;
  a.(a_p) <- infinity;
  a.(a_ulo) <- infinity;
  a.(a_uhi) <- neg_infinity;
  a.(a_vlo) <- infinity;
  a.(a_vhi) <- neg_infinity;
  a.(a_id) <- infinity

let new_node t ~level ~nu ~nv ~parent =
  let nd =
    {
      level;
      nu;
      nv;
      parent;
      kids = (if level = 0 then [||] else Array.make 4 (-1));
      head = -1;
      agg = Array.make slots 0.0;
    }
  in
  clear_agg nd.agg;
  if t.n_nodes = Array.length t.nodes then begin
    let bigger = Array.make (max 16 (2 * t.n_nodes)) nd in
    Array.blit t.nodes 0 bigger 0 t.n_nodes;
    t.nodes <- bigger
  end;
  t.nodes.(t.n_nodes) <- nd;
  t.n_nodes <- t.n_nodes + 1;
  t.n_nodes - 1

(* Quadrant of cell (ku, kv) inside its level-[l+1] block. *)
let quadrant ku kv l = ((ku asr l) land 1) lor (((kv asr l) land 1) lsl 1)

(* The leaf of cell (ku, kv), created on first use: the root first grows
   upward until its block covers the cell, then the path down to the
   cell is filled in. *)
let leaf_for t ku kv =
  let key = pack_cell ku kv in
  match Hashtbl.find_opt t.leaves key with
  | Some l -> l
  | None ->
    let ku = ku + t.base_u and kv = kv + t.base_v in
    if ku < 0 || kv < 0 then
      invalid_arg "Spatial.insert: region center too far from the indexed cloud";
    if t.root < 0 then t.root <- new_node t ~level:0 ~nu:ku ~nv:kv ~parent:(-1);
    let covers r =
      let nd = t.nodes.(r) in
      ku asr nd.level = nd.nu && kv asr nd.level = nd.nv
    in
    while not (covers t.root) do
      let old = t.nodes.(t.root) in
      let up =
        new_node t ~level:(old.level + 1) ~nu:(old.nu asr 1) ~nv:(old.nv asr 1)
          ~parent:(-1)
      in
      let upn = t.nodes.(up) in
      upn.kids.(quadrant old.nu old.nv 0) <- t.root;
      Array.blit old.agg 0 upn.agg 0 slots;
      old.parent <- up;
      t.root <- up
    done;
    let rec down r =
      let nd = t.nodes.(r) in
      if nd.level = 0 then r
      else begin
        let l = nd.level - 1 in
        let q = quadrant ku kv l in
        if nd.kids.(q) < 0 then
          nd.kids.(q) <- new_node t ~level:l ~nu:(ku asr l) ~nv:(kv asr l) ~parent:r;
        down nd.kids.(q)
      end
    in
    let l = down t.root in
    Hashtbl.replace t.leaves key l;
    l

(* Fold the aggregate at [src.(o) ..] into [a]; true when [a] changed.
   An ancestor's aggregate already covers its child's, so a walk up
   after an insert stops at the first node left unchanged. *)
let absorb (a : float array) (src : float array) o =
  let changed = ref false in
  for slot = 0 to slots - 1 do
    let x = src.(o + slot) in
    let upper = slot = a_uhi || slot = a_vhi in
    if (upper && x > a.(slot)) || ((not upper) && x < a.(slot)) then begin
      a.(slot) <- x;
      changed := true
    end
  done;
  !changed

let rec widen_up t n id =
  if n >= 0 && absorb t.nodes.(n).agg t.own (id * slots) then
    widen_up t t.nodes.(n).parent id

(* Recompute node [n]'s aggregate from its members (leaf) or children,
   then its ancestors', stopping at the first one left unchanged. *)
let rec shrink_up t n =
  if n >= 0 then begin
    let nd = t.nodes.(n) in
    let a = nd.agg in
    Array.blit a 0 t.saved 0 slots;
    clear_agg a;
    if nd.level = 0 then begin
      let u = ref nd.head in
      while !u >= 0 do
        ignore (absorb a t.own (!u * slots) : bool);
        u := t.next.(!u)
      done
    end
    else
      Array.iter
        (fun k -> if k >= 0 then ignore (absorb a t.nodes.(k).agg 0 : bool))
        nd.kids;
    let same = ref true in
    for i = 0 to slots - 1 do
      if a.(i) <> t.saved.(i) then same := false
    done;
    if not !same then shrink_up t nd.parent
  end

(* ------------------------------------------------------------------ *)
(* Insert / remove                                                     *)
(* ------------------------------------------------------------------ *)

let insert ?(k = 0.0) ?(p = 0.0) t id (r : Geometry.Rect.t) =
  check_id "insert" t id;
  if t.leaf.(id) >= 0 then invalid_arg "Spatial.insert: id already present";
  let c = Geometry.Rect.center r in
  let o = id * slots in
  t.own.(o + a_k) <- k;
  t.own.(o + a_p) <- p;
  t.own.(o + a_ulo) <- r.Geometry.Rect.ulo;
  t.own.(o + a_uhi) <- r.Geometry.Rect.uhi;
  t.own.(o + a_vlo) <- r.Geometry.Rect.vlo;
  t.own.(o + a_vhi) <- r.Geometry.Rect.vhi;
  t.own.(o + a_id) <- float_of_int id;
  let ku = cell_coord t c.Geometry.Rot.u and kv = cell_coord t c.Geometry.Rot.v in
  let l = leaf_for t ku kv in
  let nd = t.nodes.(l) in
  t.leaf.(id) <- l;
  t.prev.(id) <- -1;
  t.next.(id) <- nd.head;
  if nd.head >= 0 then t.prev.(nd.head) <- id;
  nd.head <- id;
  widen_up t l id

let remove t id =
  check_id "remove" t id;
  let l = t.leaf.(id) in
  if l < 0 then invalid_arg "Spatial.remove: id not present";
  let nd = t.nodes.(l) in
  let p = t.prev.(id) and nx = t.next.(id) in
  if p >= 0 then t.next.(p) <- nx else nd.head <- nx;
  if nx >= 0 then t.prev.(nx) <- p;
  t.leaf.(id) <- -1;
  shrink_up t l

(* ------------------------------------------------------------------ *)
(* Cost-distance query: best-first pyramid walk                        *)
(* ------------------------------------------------------------------ *)

(* The key travels in [t.push_key], not as an argument: a float argument
   would be boxed on every push. *)
let heap_push t n =
  let key = t.push_key.(0) in
  if t.hsize = Array.length t.hkey then begin
    let cap = 2 * t.hsize in
    let keys = Array.make cap 0.0 and nodes = Array.make cap 0 in
    Array.blit t.hkey 0 keys 0 t.hsize;
    Array.blit t.hnode 0 nodes 0 t.hsize;
    t.hkey <- keys;
    t.hnode <- nodes
  end;
  let i = ref t.hsize in
  while !i > 0 && t.hkey.((!i - 1) / 2) > key do
    let parent = (!i - 1) / 2 in
    t.hkey.(!i) <- t.hkey.(parent);
    t.hnode.(!i) <- t.hnode.(parent);
    i := parent
  done;
  t.hkey.(!i) <- key;
  t.hnode.(!i) <- n;
  t.hsize <- t.hsize + 1

(* Remove the minimum; the caller reads it from slot 0 first. *)
let heap_drop t =
  t.hsize <- t.hsize - 1;
  let size = t.hsize in
  if size > 0 then begin
    let key = t.hkey.(size) and n = t.hnode.(size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let left = (2 * !i) + 1 in
      if left >= size then sifting := false
      else begin
        let right = left + 1 in
        let child =
          if right < size && t.hkey.(right) < t.hkey.(left) then right else left
        in
        if t.hkey.(child) >= key then sifting := false
        else begin
          t.hkey.(!i) <- t.hkey.(child);
          t.hnode.(!i) <- t.hnode.(child);
          i := child
        end
      end
    done;
    t.hkey.(!i) <- key;
    t.hnode.(!i) <- n
  end

(* Relative slack on every pruning test. The bound K(q) + K(u) +
   c·min(P_q,P_u)·d(q,u) under-estimates the true cost only in exact
   arithmetic: zero skew gives e_q + e_u >= d because Zskew.split either
   splits d as x and d - x or snakes with [max dist ...], but x + (d - x)
   can round a few ulps below d, and the cost sums its terms in another
   order than the bound. Every term is non-negative, so a relative 1e-9
   dwarfs that rounding. Without it a bound a few ulps above a true
   minimum would prune that minimum and change the topology; nothing in
   the arithmetic rules that out, even though r1 at 1000-4000 sinks and
   2000 fuzz draws happen to route identically with no slack. *)
let slack = 1e-9

(* Plain comparisons: no operand is ever NaN, and Float.min/max pay a C
   call each for their signed-zero rule. *)
let[@inline] fmin (a : float) b = if a <= b then a else b

let[@inline] fmax (a : float) b = if a >= b then a else b

let cheapest t q ~below ~c ~dist ~cost ~rank =
  check_id "cheapest" t q;
  if t.leaf.(q) < 0 then invalid_arg "Spatial.cheapest: id not present";
  let own = t.own and oq = q * slots in
  let kq = own.(oq + a_k) and pq = own.(oq + a_p) in
  let qulo = own.(oq + a_ulo) and quhi = own.(oq + a_uhi) in
  let qvlo = own.(oq + a_vlo) and qvhi = own.(oq + a_vhi) in
  let fbelow = float_of_int below in
  let best_id = ref (-1) and best = ref infinity and limit = ref infinity in
  let cells = ref 0 and bounds = ref 0 in
  (* A node's bound is [lb] with the node's minima and the gap from q's
     region to the node's bounding box: each factor is at most the
     member's own (rounding is monotone), so it never exceeds a member's
     [lb]. Written inline, with the key handed over in [push_key], so the
     walk allocates nothing. A node is pushed only when it holds an id
     below [below] and its bound can still win. *)
  let consider n =
    let a = t.nodes.(n).agg in
    if a.(a_id) < fbelow then begin
      let gu = fmax 0.0 (fmax (a.(a_ulo) -. quhi) (qulo -. a.(a_uhi))) in
      let gv = fmax 0.0 (fmax (a.(a_vlo) -. qvhi) (qvlo -. a.(a_vhi))) in
      t.push_key.(0) <- kq +. a.(a_k) +. (c *. fmin pq a.(a_p) *. fmax gu gv);
      if t.push_key.(0) <= !limit then heap_push t n
    end
  in
  t.hsize <- 0;
  if t.root >= 0 then consider t.root;
  while t.hsize > 0 && t.hkey.(0) <= !limit do
    let nd = t.nodes.(t.hnode.(0)) in
    heap_drop t;
    incr cells;
    if nd.level = 0 then begin
      let u = ref nd.head in
      while !u >= 0 do
        let v = !u in
        u := t.next.(v);
        if v < below then begin
          incr bounds;
          let ov = v * slots in
          let lb = kq +. own.(ov + a_k) +. (c *. fmin pq own.(ov + a_p) *. dist v) in
          if lb <= !limit then begin
            let cv = cost v in
            (* strict <, then the lower active rank: the first minimum a
               scan over the active order would keep *)
            if cv < !best || (cv = !best && !best_id >= 0 && rank v < rank !best_id)
            then begin
              best := cv;
              best_id := v;
              limit := cv *. (1.0 +. slack)
            end
          end
        end
      done
    end
    else
      for i = 0 to 3 do
        let k = nd.kids.(i) in
        if k >= 0 then consider k
      done
  done;
  Util.Obs.add greedy_cells_visited !cells;
  Util.Obs.add greedy_bound_evals !bounds;
  if !best_id < 0 then None else Some (!best_id, !best)

(* ------------------------------------------------------------------ *)
(* Greedy candidate source                                             *)
(* ------------------------------------------------------------------ *)

(* A query owns only partners u < q and calls [view.cost q u] in that
   order; cheapest's ties go to the lower active rank, as a scan's do. *)
let source grow sinks ~k:weight_k ~p:weight_p ~c (view : Greedy.view) =
  let n = view.Greedy.n in
  let idx = for_sinks ~capacity:((2 * n) - 1) sinks in
  let activate v = insert idx v (Grow.region grow v) ~k:(weight_k v) ~p:(weight_p v) in
  for v = 0 to n - 1 do
    activate v
  done;
  {
    Greedy.best =
      (fun q ->
        cheapest idx q ~below:q ~c ~dist:(Grow.dist grow q) ~cost:(view.Greedy.cost q)
          ~rank:view.Greedy.rank);
    merged =
      (fun ~a ~b ~k ->
        remove idx a;
        remove idx b;
        activate k);
  }
