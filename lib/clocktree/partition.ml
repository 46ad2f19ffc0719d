(* Recursive bisection over sink index sets. See partition.mli. *)

let bisect ?groups ~n_regions sinks =
  let n = Array.length sinks in
  if n = 0 then invalid_arg "Partition.bisect: no sinks";
  if n_regions < 1 then
    invalid_arg
      (Printf.sprintf "Partition.bisect: n_regions %d must be positive" n_regions);
  (match groups with
  | Some g when Array.length g <> n ->
    invalid_arg
      (Printf.sprintf "Partition.bisect: %d group labels for %d sinks"
         (Array.length g) n)
  | _ -> ());
  let xs = Array.map (fun s -> s.Sink.loc.Geometry.Point.x) sinks in
  let ys = Array.map (fun s -> s.Sink.loc.Geometry.Point.y) sinks in
  let out = ref [] in
  (* [idxs] is mutated in place by the coordinate sorts; every sink index
     appears in exactly one recursive call, so no copying is needed. *)
  let rec go idxs k =
    let len = Array.length idxs in
    if k <= 1 || len < 2 then begin
      Array.sort Int.compare idxs;
      out := idxs :: !out
    end
    else begin
      let kl = (k + 1) / 2 in
      let kr = k - kl in
      (* proportional order statistic keeps leaf regions near-equal even
         when k is not a power of two *)
      let target = max 1 (min (len - 1) (len * kl / k)) in
      let span (keys : float array) =
        let lo = ref infinity and hi = ref neg_infinity in
        for j = 0 to len - 1 do
          let c = keys.(idxs.(j)) in
          if c < !lo then lo := c;
          if c > !hi then hi := c
        done;
        !hi -. !lo
      in
      let keys = if span xs >= span ys then xs else ys in
      (* ties broken by index: the order is total, so any sort (stable
         merge sort here, faster than the heap sort of Array.sort) gives
         the same permutation, a pure function of the sink array *)
      Array.stable_sort
        (fun i j ->
          match Float.compare keys.(i) keys.(j) with
          | 0 -> Int.compare i j
          | c -> c)
        idxs;
      let cut =
        match groups with
        | None -> target
        | Some g ->
          (* snap to the nearest group boundary within a window, so a
             floorplan cluster is not halved when balance allows *)
          let window = max 1 (len / 8) in
          let lo = max 1 (target - window) and hi = min (len - 1) (target + window) in
          let boundary c = g.(idxs.(c - 1)) <> g.(idxs.(c)) in
          let best = ref target and best_d = ref max_int in
          for c = lo to hi do
            let d = abs (c - target) in
            if boundary c && d < !best_d then begin
              best := c;
              best_d := d
            end
          done;
          !best
      in
      go (Array.sub idxs 0 cut) kl;
      go (Array.sub idxs cut (len - cut)) kr
    end
  in
  go (Array.init n (fun i -> i)) (min n_regions n);
  let regions = Array.of_list (List.rev !out) in
  regions
