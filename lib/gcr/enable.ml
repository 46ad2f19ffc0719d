type t = { mods : Activity.Module_set.t; p : float; ptr : float }

(* Sampled profiles answer through the instruction-hit signature kernel:
   the kernel's per-module columns build the hit bitset, and both
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

(* [f] once per distinct module, its value shared by every sink of that
   module: module sets and signatures are immutable, so a shared leaf is
   as good as a private one. *)
let per_module sinks f =
  let memo = Hashtbl.create 64 in
  Array.map
    (fun s ->
      let m = s.Clocktree.Sink.module_id in
      match Hashtbl.find_opt memo m with
      | Some x -> x
      | None ->
        let x = f s in
        Hashtbl.add memo m x;
        x)
    sinks

let grow_sinks profile sinks = per_module sinks (grow_sink profile)

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
  match Activity.Profile.signature_kernel profile with
  | Some kern ->
    (* Bottom-up over signatures: a parent's hit bitset is the word-wise
       OR of its children's, so only the leaves build one from modules,
       once per distinct module. Probabilities are filled afterwards by
       two batched kernel calls over the whole node array (bit-for-bit
       the per-node queries) instead of 2n scalar calls. *)
    let leaves =
      per_module sinks (fun s ->
          let mods = sink_set profile s in
          (mods, Activity.Signature.of_set kern mods))
    in
    let mods = Array.make n (fst leaves.(0)) and sigs = Array.make n (snd leaves.(0)) in
    Clocktree.Topo.iter_bottom_up topo (fun v ->
        match Clocktree.Topo.children topo v with
        | None ->
          mods.(v) <- fst leaves.(v);
          sigs.(v) <- snd leaves.(v)
        | Some (a, b) ->
          sigs.(v) <- Activity.Signature.union sigs.(a) sigs.(b);
          mods.(v) <- Activity.Module_set.union mods.(a) mods.(b));
    let ps = Array.make n 0.0 and ptrs = Array.make n 0.0 in
    Activity.Signature.p_batch kern sigs ps;
    Activity.Signature.ptr_batch kern sigs ptrs;
    Array.init n (fun v -> { mods = mods.(v); p = ps.(v); ptr = ptrs.(v) })
  | None ->
    let leaves = per_module sinks (of_sink profile) in
    let enables = Array.make n leaves.(0) in
    Clocktree.Topo.iter_bottom_up topo (fun v ->
        match Clocktree.Topo.children topo v with
        | None -> enables.(v) <- leaves.(v)
        | Some (a, b) -> enables.(v) <- merge profile enables.(a) enables.(b));
    enables

let pp ppf t =
  Format.fprintf ppf "EN%a P=%.4f Ptr=%.4f" Activity.Module_set.pp t.mods t.p t.ptr
