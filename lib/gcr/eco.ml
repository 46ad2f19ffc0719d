(* ECO-style local re-route under workload drift. See eco.mli. *)

let default_threshold = 0.05

(* Relative drift with an absolute floor: a probability that moved by
   more than [threshold] of its old magnitude counts, but old values
   near zero are compared against [rel_floor] instead so vanishing
   probabilities don't flag on noise-scale absolute moves. *)
let rel_floor = 0.05

type drift = {
  node : int;
  p_old : float;
  p_new : float;
  ptr_old : float;
  ptr_new : float;
}

type report = {
  tree : Gated_tree.t;
  drifted : drift list;
  stale : int list;
  resinks : int;
  full_rebuild : bool;
}

let drift_counter = Util.Obs.counter "eco.drifted_nodes"

let resink_counter = Util.Obs.counter "eco.repaired_sinks"

let moved ~threshold old_v new_v =
  Float.abs (new_v -. old_v) > threshold *. Float.max (Float.abs old_v) rel_floor

let detect ?(threshold = default_threshold) (tree : Gated_tree.t) profile =
  if not (Float.is_finite threshold && threshold > 0.0) then
    invalid_arg "Eco.detect: threshold must be finite and positive";
  let fresh =
    Enable.compute_all profile tree.Gated_tree.topo tree.Gated_tree.sinks
  in
  let out = ref [] in
  for v = Array.length fresh - 1 downto 0 do
    let old_e = tree.Gated_tree.enables.(v) and new_e = fresh.(v) in
    if
      moved ~threshold old_e.Enable.p new_e.Enable.p
      || moved ~threshold old_e.Enable.ptr new_e.Enable.ptr
    then
      out :=
        {
          node = v;
          p_old = old_e.Enable.p;
          p_new = new_e.Enable.p;
          ptr_old = old_e.Enable.ptr;
          ptr_new = new_e.Enable.ptr;
        }
        :: !out
  done;
  Util.Obs.add drift_counter (List.length !out);
  !out

let stale_roots topo drifted =
  let n = Clocktree.Topo.n_nodes topo in
  let mark = Array.make n false in
  (* Leaf drift promotes to the parent: a single sink has no internal
     merge structure to redo, but its moved probability can flip which
     sibling it should have merged with — the parent's subtree is the
     smallest re-routable unit containing it. *)
  List.iter
    (fun d ->
      let v = d.node in
      if Clocktree.Topo.is_leaf topo v then
        match Clocktree.Topo.parent topo v with
        | Some p -> mark.(p) <- true
        | None -> mark.(v) <- true
      else mark.(v) <- true)
    drifted;
  (* Keep only maximal marked nodes: repair regions must be disjoint. *)
  let has_marked_ancestor v =
    let rec up v =
      match Clocktree.Topo.parent topo v with
      | None -> false
      | Some p -> mark.(p) || up p
    in
    up v
  in
  let roots = ref [] in
  for v = n - 1 downto 0 do
    if mark.(v) && not (has_marked_ancestor v) then roots := v :: !roots
  done;
  !roots

(* Re-emit the old topology with each stale subtree replaced by its
   freshly re-merged counterpart, postorder so node ids stay
   children-before-parents (Topo.swap's emission pattern). Stale roots
   are pairwise disjoint, so every leaf is emitted exactly once. *)
let splice topo repairs =
  let merges_out = ref [] in
  let next = ref (Clocktree.Topo.n_sinks topo) in
  let emit_merge a b =
    let id = !next in
    incr next;
    merges_out := (a, b) :: !merges_out;
    id
  in
  let rec emit v =
    match Hashtbl.find_opt repairs v with
    | Some (leaves, merges) ->
      Clocktree.Topo.replay ~leaves ~merges ~merge:emit_merge
    | None -> (
      match Clocktree.Topo.children topo v with
      | None -> v
      | Some (l, r) ->
        let a = emit l in
        let b = emit r in
        emit_merge a b)
  in
  ignore (emit (Clocktree.Topo.root topo));
  Clocktree.Topo.of_merges ~n_sinks:(Clocktree.Topo.n_sinks topo)
    (Array.of_list (List.rev !merges_out))

let threshold_of (options : Flow.options) =
  match options.Flow.eco with
  | Flow.Eco { threshold } -> threshold
  | Flow.No_eco -> default_threshold

let repair ?threshold ~(options : Flow.options) (tree : Gated_tree.t) profile =
  Util.Obs.span ~name:"eco.repair" (fun () ->
      let threshold =
        match threshold with Some t -> t | None -> threshold_of options
      in
      let drifted = detect ~threshold tree profile in
      let topo = tree.Gated_tree.topo in
      let sinks = tree.Gated_tree.sinks in
      let config = tree.Gated_tree.config in
      let with_test_en t =
        if tree.Gated_tree.test_en then Gated_tree.with_test_en t true else t
      in
      let stale = stale_roots topo drifted in
      let root_id = Clocktree.Topo.root topo in
      let n_sinks = Clocktree.Topo.n_sinks topo in
      let stale_sinks =
        List.fold_left
          (fun acc r -> acc + List.length (Clocktree.Topo.leaves_under topo r))
          0 stale
      in
      if List.mem root_id stale || 2 * stale_sinks > n_sinks then begin
        (* Root drift, or drift spread over most of the tree: a local
           repair would re-merge the majority of the sinks while pinning
           the survivors' merge structure — all of the cost of a
           re-route with none of the freedom. Run the ordinary pipeline
           instead; locality only pays when the stale region is small. *)
        Util.Obs.add resink_counter n_sinks;
        let t = with_test_en (Flow.run ~options config profile sinks) in
        { tree = t; drifted; stale; resinks = n_sinks; full_rebuild = true }
      end
      else begin
        let repairs = Hashtbl.create 8 in
        let resinks = ref 0 in
        List.iter
          (fun r ->
            let leaves = Array.of_list (Clocktree.Topo.leaves_under topo r) in
            resinks := !resinks + Array.length leaves;
            let ls = Clocktree.Sink.subset sinks leaves in
            let f = Router.forest config profile ls in
            Router.run f;
            Hashtbl.replace repairs r
              (leaves, Clocktree.Grow.merges (Router.grow f)))
          stale;
        Util.Obs.add resink_counter !resinks;
        let topo' = if stale = [] then topo else splice topo repairs in
        (* Even with no stale subtree the tree is rebuilt over the new
           profile: every node's enable statistics moved (sub-threshold),
           and reduce/share/size decide on those numbers. The merge
           structure outside stale subtrees is preserved exactly; the
           DME embedding is recomputed because zero skew is a global
           constraint. *)
        let routed =
          Gated_tree.build ?skew_budget:(Flow.skew_budget options) config
            profile sinks topo' ~kind:(fun _ -> Gated_tree.Gated)
        in
        let t = with_test_en (Flow.optimize options routed) in
        { tree = t; drifted; stale; resinks = !resinks; full_rebuild = false }
      end)
