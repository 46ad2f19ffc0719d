type t = { mods : Activity.Module_set.t; p : float; ptr : float }

(* Sampled profiles answer through the instruction-hit signature kernel:
   one pass over the K instructions builds the hit bitset, and both
   probabilities fall out of weighted popcounts — the same integer hit
   counts the IFT/IMATT scans produce, divided identically, so the floats
   are bit-for-bit equal. Analytic profiles keep the closed-form path. *)
let of_signature kern mods s =
  { mods; p = Activity.Signature.p kern s; ptr = Activity.Signature.ptr kern s }

let of_set profile mods =
  match Activity.Profile.signature_kernel profile with
  | Some kern -> of_signature kern mods (Activity.Signature.of_set kern mods)
  | None ->
    {
      mods;
      p = Activity.Profile.p profile mods;
      ptr = Activity.Profile.ptr profile mods;
    }

let sink_set profile sink =
  let n = Activity.Profile.n_modules profile in
  let m = sink.Clocktree.Sink.module_id in
  if m >= n then
    invalid_arg
      (Printf.sprintf "Enable.of_sink: sink module %d outside the %d-module profile" m n);
  Activity.Module_set.singleton n m

let of_sink profile sink = of_set profile (sink_set profile sink)

let merge profile a b = of_set profile (Activity.Module_set.union a.mods b.mods)

type grown = { enable : t; signature : Activity.Signature.t option }

let adopt enable = { enable; signature = None }

let grow_sink profile sink =
  let mods = sink_set profile sink in
  match Activity.Profile.signature_kernel profile with
  | Some kern ->
    let s = Activity.Signature.of_set kern mods in
    { enable = of_signature kern mods s; signature = Some s }
  | None -> adopt (of_set profile mods)

(* H(S u T) = H(S) | H(T), so a union's signature is the word-wise OR of
   its children's and answers P/Ptr bit for bit like a fresh scan of the
   union's modules ({!compute_all} relies on the same identity). *)
let grow_merge profile a b =
  let mods = Activity.Module_set.union a.enable.mods b.enable.mods in
  match (Activity.Profile.signature_kernel profile, a.signature, b.signature) with
  | Some kern, Some sa, Some sb ->
    let s = Activity.Signature.union sa sb in
    { enable = of_signature kern mods s; signature = Some s }
  | _ -> adopt (of_set profile mods)

let compute_all profile topo sinks =
  let n = Clocktree.Topo.n_nodes topo in
  let n_mods = Activity.Profile.n_modules profile in
  let enables =
    Array.make n (of_set profile (Activity.Module_set.empty n_mods))
  in
  (match Activity.Profile.signature_kernel profile with
  | Some kern ->
    (* Bottom-up over signatures: a parent's hit bitset is the word-wise
       OR of its children's, so only the leaves ever scan instructions.
       Probabilities are filled afterwards by two batched kernel calls
       over the whole node array (bit-for-bit the per-node queries)
       instead of 2n scalar calls. *)
    let sigs = Array.make n (Activity.Signature.create kern) in
    Clocktree.Topo.iter_bottom_up topo (fun v ->
        match Clocktree.Topo.children topo v with
        | None ->
          let m = sinks.(v).Clocktree.Sink.module_id in
          if m >= n_mods then
            invalid_arg
              (Printf.sprintf
                 "Enable.of_sink: sink module %d outside the %d-module profile" m
                 n_mods);
          let mods = Activity.Module_set.singleton n_mods m in
          sigs.(v) <- Activity.Signature.of_set kern mods;
          enables.(v) <- { enables.(v) with mods }
        | Some (a, b) ->
          sigs.(v) <- Activity.Signature.union sigs.(a) sigs.(b);
          enables.(v) <-
            {
              enables.(v) with
              mods = Activity.Module_set.union enables.(a).mods enables.(b).mods;
            });
    let ps = Array.make n 0.0 and ptrs = Array.make n 0.0 in
    Activity.Signature.p_batch kern sigs ps;
    Activity.Signature.ptr_batch kern sigs ptrs;
    for v = 0 to n - 1 do
      enables.(v) <- { enables.(v) with p = ps.(v); ptr = ptrs.(v) }
    done
  | None ->
    Clocktree.Topo.iter_bottom_up topo (fun v ->
        match Clocktree.Topo.children topo v with
        | None -> enables.(v) <- of_sink profile sinks.(v)
        | Some (a, b) -> enables.(v) <- merge profile enables.(a) enables.(b)));
  enables

let pp ppf t =
  Format.fprintf ppf "EN%a P=%.4f Ptr=%.4f" Activity.Module_set.pp t.mods t.p t.ptr
