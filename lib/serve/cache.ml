type entry = {
  mutable profile : Activity.Profile.t;
  mutable epoch : int;  (* bumped by every profile update *)
  mutable stamp : int;  (* LRU clock value of the last touch *)
  update_m : Mutex.t;  (* serializes updates for this workload only *)
  mutable acc : Activity.Stream_update.t option;  (* guarded by update_m *)
}

type t = {
  mutex : Mutex.t;
  table : (int64, entry) Hashtbl.t;
  capacity : int;
  mutable clock : int;
}

let create ?(capacity = 32) () =
  if capacity <= 0 then invalid_arg "Cache.create: non-positive capacity";
  { mutex = Mutex.create (); table = Hashtbl.create 64; capacity; clock = 0 }

let workload_key (scn : Conformance.Scenario.t) =
  let rtl = Formats.Rtl_format.render scn.Conformance.Scenario.rtl in
  let stream =
    Formats.Stream_format.render (Conformance.Scenario.instr_stream scn)
  in
  let st = Digest.start () in
  Digest.string st rtl;
  Digest.byte st 0;
  Digest.string st stream;
  Digest.value st

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let touch t entry =
  t.clock <- t.clock + 1;
  entry.stamp <- t.clock

let evict_lru_locked t =
  if Hashtbl.length t.table > t.capacity then begin
    let victim = ref None in
    Hashtbl.iter
      (fun k e ->
        match !victim with
        | Some (_, s) when s <= e.stamp -> ()
        | _ -> victim := Some (k, e.stamp))
      t.table;
    match !victim with
    | Some (k, _) -> Hashtbl.remove t.table k
    | None -> ()
  end

let profile t scn =
  let key = workload_key scn in
  let resident =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some e ->
          touch t e;
          Some (e.profile, e.epoch)
        | None -> None)
  in
  match resident with
  | Some (p, epoch) -> (key, p, epoch, true)
  | None ->
    (* Build outside the lock: table construction over a long stream is
       the expensive part and must not serialize unrelated workloads.
       The kernel is forced before publication — [Profile.kernel] is a
       lazily-filled mutable field, and publishing it unforced would
       race every domain that touches the profile. *)
    let fresh = Conformance.Scenario.profile scn in
    ignore (Activity.Profile.signature_kernel fresh);
    let adopted =
      locked t (fun () ->
          match Hashtbl.find_opt t.table key with
          | Some e ->
            (* A concurrent first sight won the insert; adopt its value
               so every request for the workload shares one profile. *)
            touch t e;
            (e.profile, e.epoch)
          | None ->
            let e =
              {
                profile = fresh;
                epoch = 0;
                stamp = 0;
                update_m = Mutex.create ();
                acc = None;
              }
            in
            touch t e;
            Hashtbl.replace t.table key e;
            evict_lru_locked t;
            (e.profile, e.epoch))
    in
    let p, epoch = adopted in
    (key, p, epoch, false)

(* The entry for [scn], inserting via {!profile} when absent. The retry
   covers the window where another workload's insert evicts ours between
   the build and the re-lookup — one extra round trip in practice. *)
let rec ensure_entry t scn key =
  let resident =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some e ->
          touch t e;
          Some e
        | None -> None)
  in
  match resident with
  | Some e -> e
  | None ->
    ignore (profile t scn);
    ensure_entry t scn key

let update t scn ~chunk =
  let key = workload_key scn in
  let entry = ensure_entry t scn key in
  (* Per-entry update lock: updates to one workload serialize against
     each other (the accumulator is single-owner mutable state) but the
     expensive part — ingesting and rebuilding tables plus forcing the
     fresh kernel — runs outside the table mutex, so routes and updates
     of unrelated workloads never wait on it. *)
  Mutex.lock entry.update_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock entry.update_m)
    (fun () ->
      let acc =
        match entry.acc with
        | Some acc -> acc
        | None ->
          let acc =
            Activity.Stream_update.of_stream
              (Conformance.Scenario.instr_stream scn)
          in
          entry.acc <- Some acc;
          acc
      in
      Activity.Stream_update.ingest acc chunk;
      (* [~patch:false]: in-flight readers of the previous epoch keep a
         profile whose kernel is never mutated under them. *)
      let fresh = Activity.Stream_update.profile ~patch:false acc in
      ignore (Activity.Profile.signature_kernel fresh);
      locked t (fun () ->
          (* Publish epoch-atomically: profile swap and epoch bump are
             one critical section, so no lookup can pair the new
             profile with the old epoch or vice versa. *)
          entry.profile <- fresh;
          entry.epoch <- entry.epoch + 1;
          if not (Hashtbl.mem t.table key) then begin
            (* Evicted while we were building: re-adopt our entry so the
               epoch history of the workload stays monotonic. *)
            Hashtbl.replace t.table key entry;
            evict_lru_locked t
          end;
          touch t entry;
          (entry.epoch, fresh)))

let audit pc (tree : Gcr.Gated_tree.t) =
  let n = Clocktree.Topo.n_nodes tree.Gcr.Gated_tree.topo in
  for v = 0 to n - 1 do
    let e = tree.Gcr.Gated_tree.enables.(v) in
    let p = Activity.Pcache.p pc e.Gcr.Enable.mods in
    if p <> e.Gcr.Enable.p then
      Util.Gcr_error.mismatch ~stage:"serve:audit"
        "node %d: audited enable probability %.17g disagrees with the \
         routed tree's %.17g"
        v p e.Gcr.Enable.p
  done;
  (0, n)

let resident t = locked t (fun () -> Hashtbl.length t.table)

let epoch t ~key =
  locked t (fun () ->
      Option.map (fun e -> e.epoch) (Hashtbl.find_opt t.table key))
