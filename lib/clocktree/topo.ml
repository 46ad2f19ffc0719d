type t = {
  n_sinks : int;
  left : int array; (* -1 for leaves *)
  right : int array;
  parent : int array; (* -1 for the root *)
}

let of_merges ~n_sinks merges =
  if n_sinks <= 0 then invalid_arg "Topo.of_merges: need at least one sink";
  if Array.length merges <> n_sinks - 1 then
    invalid_arg
      (Printf.sprintf "Topo.of_merges: expected %d merges, got %d" (n_sinks - 1)
         (Array.length merges));
  let n_nodes = (2 * n_sinks) - 1 in
  let left = Array.make n_nodes (-1) in
  let right = Array.make n_nodes (-1) in
  let parent = Array.make n_nodes (-1) in
  Array.iteri
    (fun k (a, b) ->
      let node = n_sinks + k in
      let check_child c =
        if c < 0 || c >= node then
          invalid_arg
            (Printf.sprintf "Topo.of_merges: merge %d uses invalid child %d" k c);
        if parent.(c) <> -1 then
          invalid_arg
            (Printf.sprintf "Topo.of_merges: node %d used as a child twice" c)
      in
      check_child a;
      check_child b;
      if a = b then invalid_arg "Topo.of_merges: merging a node with itself";
      left.(node) <- a;
      right.(node) <- b;
      parent.(a) <- node;
      parent.(b) <- node)
    merges;
  (* Exactly the last-created node (or the lone sink) must be parentless. *)
  for v = 0 to n_nodes - 2 do
    if parent.(v) = -1 then
      invalid_arg (Printf.sprintf "Topo.of_merges: node %d is disconnected" v)
  done;
  { n_sinks; left; right; parent }

(* Local id -> outer id: leaves map through [leaves], internal nodes
   through the ids [merge] returns as the list is replayed. *)
let replay ~leaves ~merges ~merge =
  let k = Array.length leaves in
  if k = 1 then leaves.(0)
  else begin
    let gmap = Array.make ((2 * k) - 1) (-1) in
    Array.blit leaves 0 gmap 0 k;
    Array.iteri
      (fun step (la, lb) -> gmap.(k + step) <- merge gmap.(la) gmap.(lb))
      merges;
    gmap.((2 * k) - 2)
  end

let n_sinks t = t.n_sinks

let n_nodes t = (2 * t.n_sinks) - 1

let root t = n_nodes t - 1

let is_leaf t v = v < t.n_sinks

let children t v = if is_leaf t v then None else Some (t.left.(v), t.right.(v))

let parent t v = if t.parent.(v) = -1 then None else Some (t.parent.(v))

let depth t v =
  let rec up v acc = if t.parent.(v) = -1 then acc else up t.parent.(v) (acc + 1) in
  up v 0

let rec leaves_under t v =
  if is_leaf t v then [ v ]
  else
    List.merge compare (leaves_under t t.left.(v)) (leaves_under t t.right.(v))

let fold_postorder t leaf node =
  let results = Array.make (n_nodes t) None in
  for v = 0 to n_nodes t - 1 do
    let r =
      if is_leaf t v then leaf v
      else
        match (results.(t.left.(v)), results.(t.right.(v))) with
        | Some a, Some b -> node v a b
        | _ -> assert false (* ids ascend bottom-up by construction *)
    in
    results.(v) <- Some r
  done;
  match results.(root t) with Some r -> r | None -> assert false

let iter_bottom_up t f =
  for v = 0 to n_nodes t - 1 do
    f v
  done

let iter_top_down t f =
  for v = n_nodes t - 1 downto 0 do
    f v
  done

let internal_nodes t = List.init (t.n_sinks - 1) (fun k -> t.n_sinks + k)

let is_ancestor t a v =
  let rec up v = v = a || (t.parent.(v) <> -1 && up t.parent.(v)) in
  up v

let swap t u v =
  let root_id = root t in
  if u = root_id || v = root_id then invalid_arg "Topo.swap: cannot swap the root";
  if is_ancestor t u v || is_ancestor t v u then
    invalid_arg "Topo.swap: nodes are on one root path";
  (* rebuild as a nested tree with the two subtrees exchanged, then
     re-emit merges in postorder so ids stay children-before-parents *)
  let rec subtree x =
    if x = u then `Sub v
    else if x = v then `Sub u
    else if is_leaf t x then `Leaf x
    else `Node (subtree t.left.(x), subtree t.right.(x))
  (* `Sub y stands for the original subtree at y, moved wholesale *)
  and original y =
    if is_leaf t y then `Leaf y
    else `Node (original t.left.(y), original t.right.(y))
  in
  let rec resolve = function
    | `Sub y -> original y
    | `Leaf _ as l -> l
    | `Node (l, r) -> `Node (resolve l, resolve r)
  in
  let tree = resolve (subtree root_id) in
  let merges = ref [] in
  let next = ref t.n_sinks in
  let rec emit = function
    | `Leaf s -> s
    | `Node (l, r) ->
      let a = emit l in
      let b = emit r in
      let id = !next in
      incr next;
      merges := (a, b) :: !merges;
      id
  in
  let _root = emit tree in
  of_merges ~n_sinks:t.n_sinks (Array.of_list (List.rev !merges))

let equal a b =
  a.n_sinks = b.n_sinks && a.left = b.left && a.right = b.right
