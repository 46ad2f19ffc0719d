(* Pairs are packed into one heap payload: ids stay below 2^20, well within
   a 63-bit immediate. *)

let id_bits = 21

let max_ids = 1 lsl 20

let pack a b = (a lsl id_bits) lor b

let unpack p = (p lsr id_bits, p land ((1 lsl id_bits) - 1))

let validate n =
  if n <= 0 then invalid_arg "Greedy.merge_all: no elements";
  if n > max_ids / 2 then invalid_arg "Greedy.merge_all: too many elements"

(* Swap-remove [v] from the [!n_active] live entries of [active], with
   [pos] its inverse: O(1) per removal, in both engines. *)
let remove_active active pos n_active v =
  let i = pos.(v) in
  let last = active.(!n_active - 1) in
  active.(i) <- last;
  pos.(last) <- i;
  decr n_active

(* Shared by both engines so traced runs expose the lazy-revalidation
   economics: stale_discards / heap_pops is the waste rate. *)
let merge_steps = Util.Obs.counter "greedy.merge_steps"

let heap_pops = Util.Obs.counter "greedy.heap_pops"

let stale_discards = Util.Obs.counter "greedy.stale_discards"

(* Work per query: queries are the seedings plus one per merge and one
   per stale-partner revalidation; cost_evals / queries is what a
   candidate source spends to answer one. *)
let queries = Util.Obs.counter "greedy.queries"

let cost_evals = Util.Obs.counter "greedy.cost_evals"

(* ------------------------------------------------------------------ *)
(* Pluggable candidate sources                                        *)
(* ------------------------------------------------------------------ *)

type view = {
  n : int;
  cost : int -> int -> float;
  cost_many : int -> int array -> int -> float array -> unit;
  iter_active : (int -> unit) -> unit;
  rank : int -> int;
}

(* Candidate partners are gathered into a fixed-size buffer and costed
   [chunk] at a time through [view.cost_many], so a batched cost (one C
   kernel call per chunk — see Activity.Signature) amortizes its call
   overhead without the source holding O(n) scratch. The buffer is
   allocated per [best] query, NOT kept in shared or domain-local
   scratch: the initial seedings run across domains under [par_seed],
   and whole routes run concurrently on sibling systhreads of one
   domain (the serve daemon's in-process ground-truth checks), so any
   buffer that outlives a single query is clobbered mid-use when a
   thread switch lands inside [cost_many]. Two chunk-sized minor
   allocations per query are noise next to the batched kernel call. *)
let chunk = 64

type scratch = { ids : int array; costs : float array }

let fresh_scratch () = { ids = Array.make chunk 0; costs = Array.make chunk 0.0 }

type candidates = {
  best : int -> (int * float) option;
  merged : a:int -> b:int -> k:int -> unit;
}

type source = view -> candidates

(* Each root is responsible only for partners with a smaller id: every
   unordered pair is then owned by exactly one entry (the larger id), which
   halves the cost evaluations without weakening the coverage invariant —
   a fresh node k sees all other roots (their ids are smaller), and when a
   root's entry is revalidated its smaller-id partners are all rescanned. *)
let scan view =
  let best v =
    let s = fresh_scratch () in
    let best_id = ref (-1) and best_cost = ref infinity in
    let fill = ref 0 in
    let flush () =
      view.cost_many v s.ids !fill s.costs;
      for i = 0 to !fill - 1 do
        if s.costs.(i) < !best_cost then begin
          best_cost := s.costs.(i);
          best_id := s.ids.(i)
        end
      done;
      fill := 0
    in
    view.iter_active (fun u ->
        if u < v then begin
          s.ids.(!fill) <- u;
          incr fill;
          if !fill = chunk then flush ()
        end);
    if !fill > 0 then flush ();
    if !best_id < 0 then None else Some (!best_id, !best_cost)
  in
  { best; merged = (fun ~a:_ ~b:_ ~k:_ -> ()) }

(* Best-first scan under an admissible per-root bound: [lower v] must
   satisfy cost(u, v) >= max(lower u, lower v) for every active pair.
   Active roots are kept in an array sorted ascending by bound; a query
   walks it in that order and stops as soon as the next bound cannot beat
   the best cost found — any best-so-far cost is >= lower(query), so the
   one stopping test [lower u >= best] covers both halves of the max.
   Exact: every skipped candidate provably costs at least the returned
   one (ties may resolve differently than an exhaustive scan, exactly as
   heap order already does). The sorted array is maintained by shifted
   insertion — O(n) per merge, trivial against the cost evaluations the
   bound avoids. *)
let bound_scan ~lower view =
  let size = (2 * view.n) - 1 in
  let key = Array.make size infinity in
  let order = Array.make size (-1) in
  let rank = Array.make size (-1) in
  let count = ref 0 in
  let insert v =
    let kv = lower v in
    key.(v) <- kv;
    (* binary search for the insertion point, then shift right *)
    let lo = ref 0 and hi = ref !count in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if key.(order.(mid)) <= kv then lo := mid + 1 else hi := mid
    done;
    let at = !lo in
    Array.blit order at order (at + 1) (!count - at);
    order.(at) <- v;
    incr count;
    for i = at to !count - 1 do
      rank.(order.(i)) <- i
    done
  in
  let remove v =
    let at = rank.(v) in
    Array.blit order (at + 1) order at (!count - at - 1);
    decr count;
    for i = at to !count - 1 do
      rank.(order.(i)) <- i
    done;
    rank.(v) <- -1
  in
  view.iter_active insert;
  (* Chunked walk: gather up to [chunk] candidates whose bound can still
     beat the best flushed so far, then cost them in one [cost_many]
     call. The running best only tightens at flush boundaries, so the
     stopping test fires no earlier than the per-candidate walk's and a
     superset of its candidates gets costed — but every extra candidate
     was skippable (cost >= its bound >= the final minimum) and sits
     after the walk's winner in order, so under the same strict-< update
     the returned (partner, cost) is identical, ties included. *)
  let best v =
    let s = fresh_scratch () in
    let best_id = ref (-1) and best_cost = ref infinity in
    let i = ref 0 in
    let stop = ref false in
    while (not !stop) && !i < !count do
      let fill = ref 0 in
      while (not !stop) && !fill < chunk && !i < !count do
        let u = order.(!i) in
        if key.(u) >= !best_cost then stop := true
        else begin
          if u <> v then begin
            s.ids.(!fill) <- u;
            incr fill
          end;
          incr i
        end
      done;
      if !fill > 0 then begin
        view.cost_many v s.ids !fill s.costs;
        for j = 0 to !fill - 1 do
          if s.costs.(j) < !best_cost then begin
            best_cost := s.costs.(j);
            best_id := s.ids.(j)
          end
        done
      end
    done;
    if !best_id < 0 then None else Some (!best_id, !best_cost)
  in
  {
    best;
    merged =
      (fun ~a ~b ~k ->
        remove a;
        remove b;
        insert k);
  }

(* ------------------------------------------------------------------ *)
(* Nearest-neighbor heap engine                                       *)
(* ------------------------------------------------------------------ *)

(* One heap entry per root: (cost, (v, partner)) where partner was v's
   best partner when the entry was pushed. Lazy revalidation: popping an
   entry whose partner has died recomputes v's best and re-pushes.

   Soundness sketch. An entry's key is the exact cost of a concrete pair,
   so any both-alive entry keys >= the true global minimum m. Conversely
   the heap always holds an entry with key <= m: for the minimizing pair
   (u, v), whichever endpoint was created (or last revalidated) latest
   computed its best over a set containing the other, so its key <= m.
   Hence the first both-alive pop is exactly a minimum-cost pair. *)
let merge_all_with ?(par_seed = false) ?cost_many source ~n ~cost ~merge =
  validate n;
  if n = 1 then 0
  else begin
    let size = (2 * n) - 1 in
    let alive = Array.init size (fun v -> v < n) in
    (* Active roots in a swap-remove array for O(1) removal. *)
    let active = Array.init size (fun v -> v) in
    let pos = Array.init size (fun v -> v) in
    let n_active = ref n in
    let cost_many =
      match cost_many with
      | Some f ->
        fun v us cnt out ->
          Util.Obs.add cost_evals cnt;
          f v us cnt out
      | None ->
        fun v us cnt out ->
          Util.Obs.add cost_evals cnt;
          for i = 0 to cnt - 1 do
            out.(i) <- cost v us.(i)
          done
    in
    let view =
      {
        n;
        cost =
          (fun a b ->
            Util.Obs.incr cost_evals;
            cost a b);
        cost_many;
        iter_active =
          (fun f ->
            for i = 0 to !n_active - 1 do
              f active.(i)
            done);
        rank = (fun v -> pos.(v));
      }
    in
    let cands = source view in
    let heap = Util.Bin_heap.create ~capacity:(2 * n) () in
    let push_best v =
      Util.Obs.incr queries;
      match cands.best v with
      | None -> ()
      | Some (u, c) -> Util.Bin_heap.push heap c (pack v u)
    in
    (* The n initial seedings are independent read-only queries; with
       par_seed they run across domains, but the heap pushes stay in id
       order so the run is bit-identical to the sequential one. *)
    if par_seed then begin
      Util.Obs.add queries n;
      let bests = Util.Parallel.init n (fun v -> cands.best v) in
      Array.iteri
        (fun v b ->
          match b with None -> () | Some (u, c) -> Util.Bin_heap.push heap c (pack v u))
        bests
    end
    else
      for v = 0 to n - 1 do
        push_best v
      done;
    let add_active v =
      active.(!n_active) <- v;
      pos.(v) <- !n_active;
      incr n_active
    in
    let rec loop () =
      if !n_active = 1 then active.(0)
      else
        match Util.Bin_heap.pop heap with
        (* Internal invariant, kept as failwith: every live root pushes a
           candidate before the heap is popped again, so an empty heap with
           two or more roots is unreachable for any input that passed
           [validate]. Boundaries classify it as Internal via
           [Gcr_error.of_exn]. *)
        | None -> failwith "Greedy.merge_all: heap exhausted with roots remaining"
        | Some (_, payload) ->
          Util.Obs.incr heap_pops;
          let v, u = unpack payload in
          if not alive.(v) then begin
            Util.Obs.incr stale_discards;
            loop ()
          end
          else if not alive.(u) then begin
            (* stale partner: revalidate v and retry *)
            Util.Obs.incr stale_discards;
            push_best v;
            loop ()
          end
          else begin
            (* merge (smaller, larger), as the dense engine always did *)
            Util.Obs.incr merge_steps;
            let a = min v u and b = max v u in
            let k = merge a b in
            alive.(a) <- false;
            alive.(b) <- false;
            alive.(k) <- true;
            remove_active active pos n_active a;
            remove_active active pos n_active b;
            add_active k;
            cands.merged ~a ~b ~k;
            push_best k;
            loop ()
          end
    in
    loop ()
  end

let merge_all ~n ~cost ~merge = merge_all_with scan ~n ~cost ~merge

(* ------------------------------------------------------------------ *)
(* All-pairs reference oracle                                         *)
(* ------------------------------------------------------------------ *)

(* The original engine: seed a lazy-deletion heap with all n(n-1)/2 pairs.
   O(n^2 log n) time and O(n^2) heap memory — kept as the reference the
   accelerated path is validated against. *)
let merge_all_dense ~n ~cost ~merge =
  validate n;
  if n = 1 then 0
  else begin
    let size = (2 * n) - 1 in
    let alive = Array.init size (fun v -> v < n) in
    let active = Array.init size (fun v -> v) in
    let pos = Array.init size (fun v -> v) in
    let n_active = ref n in
    let heap = Util.Bin_heap.create ~capacity:(n * n / 2) () in
    let push_pair a b =
      Util.Obs.incr cost_evals;
      Util.Bin_heap.push heap (cost a b) (pack a b)
    in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        push_pair i j
      done
    done;
    let rec loop () =
      if !n_active = 1 then active.(0)
      else
        match Util.Bin_heap.pop heap with
        (* Internal invariant, kept as failwith: the dense seeding pushes
           every pair up front and merges re-push against all live roots,
           so exhaustion with roots remaining is unreachable. Boundaries
           classify it as Internal via [Gcr_error.of_exn]. *)
        | None -> failwith "Greedy.merge_all: heap exhausted with roots remaining"
        | Some (_, payload) ->
          Util.Obs.incr heap_pops;
          let a, b = unpack payload in
          if not (alive.(a) && alive.(b)) then begin
            Util.Obs.incr stale_discards;
            loop ()
          end
          else begin
            Util.Obs.incr merge_steps;
            let k = merge a b in
            alive.(a) <- false;
            alive.(b) <- false;
            alive.(k) <- true;
            remove_active active pos n_active a;
            remove_active active pos n_active b;
            for i = 0 to !n_active - 1 do
              push_pair active.(i) k
            done;
            active.(!n_active) <- k;
            pos.(k) <- !n_active;
            incr n_active;
            loop ()
          end
    in
    loop ()
  end
