(* Streaming accumulator for the profile tables. The IFT is a plain
   per-instruction count vector and the IMATT a pair-count multiset, so
   both are additive over stream concatenation: ingesting a chunk adds
   its hit counts, its internal consecutive pairs, and the one boundary
   pair joining the previous chunk's last cycle to this chunk's first.
   Rebuilding through [Ift.of_counts] / [Imatt.of_pair_counts] then
   yields tables bit-for-bit equal to a from-scratch [build] over the
   concatenated stream — integer counts, identical row order. *)

type t = {
  rtl : Rtl.t;
  counts : int array; (* per-instruction hits, accumulated *)
  pairs : (int, int ref) Hashtbl.t; (* packed first*k+second -> count *)
  mutable chunks_rev : int array list; (* ingested chunks, newest first *)
  mutable total : int; (* cycles ingested *)
  mutable last : int; (* last instruction seen; -1 before any *)
  mutable kernel : Signature.kernel option; (* owned by this accumulator *)
}

let create rtl =
  {
    rtl;
    counts = Array.make (Rtl.n_instructions rtl) 0;
    pairs = Hashtbl.create 1024;
    chunks_rev = [];
    total = 0;
    last = -1;
    kernel = None;
  }

let total_cycles t = t.total

let distinct_pairs t = Hashtbl.length t.pairs

let ingest t chunk =
  let k = Rtl.n_instructions t.rtl in
  Array.iter
    (fun i ->
      if i < 0 || i >= k then
        invalid_arg
          (Printf.sprintf "Stream_update.ingest: instruction %d out of range" i))
    chunk;
  let n = Array.length chunk in
  (* An empty chunk is a legal no-op: a trace source may deliver empty
     batches between bursts, and concatenation with an empty stream is
     the identity. *)
  if n > 0 then begin
    t.chunks_rev <- Array.copy chunk :: t.chunks_rev;
    let add_pair a b =
      let idx = (a * k) + b in
      match Hashtbl.find_opt t.pairs idx with
      | Some c -> incr c
      | None -> Hashtbl.add t.pairs idx (ref 1)
    in
    (* The chunk boundary is itself a cycle boundary of the concatenated
       trace: the pair (previous last, chunk head) must be counted or a
       NOW/NEXT pair split across two chunks would vanish. *)
    if t.last >= 0 then add_pair t.last chunk.(0);
    for i = 0 to n - 1 do
      t.counts.(chunk.(i)) <- t.counts.(chunk.(i)) + 1;
      if i > 0 then add_pair chunk.(i - 1) chunk.(i)
    done;
    t.total <- t.total + n;
    t.last <- chunk.(n - 1)
  end

let ingest_stream t stream =
  let r = Instr_stream.rtl stream in
  if
    Rtl.n_modules r <> Rtl.n_modules t.rtl
    || Rtl.n_instructions r <> Rtl.n_instructions t.rtl
  then invalid_arg "Stream_update.ingest_stream: mismatched RTL";
  ingest t (Array.init (Instr_stream.length stream) (Instr_stream.get stream))

let of_stream stream =
  let t = create (Instr_stream.rtl stream) in
  ingest_stream t stream;
  t

let stream t =
  if t.total = 0 then invalid_arg "Stream_update.stream: no cycles ingested";
  Instr_stream.make t.rtl (Array.concat (List.rev t.chunks_rev))

let ift t =
  if t.total = 0 then invalid_arg "Stream_update.ift: no cycles ingested";
  Ift.of_counts t.rtl t.counts

let imatt t =
  if t.total < 2 then
    invalid_arg "Stream_update.imatt: fewer than two cycles ingested";
  let k = Rtl.n_instructions t.rtl in
  let rows = Array.make (Hashtbl.length t.pairs) (0, 0, 0) in
  let i = ref 0 in
  Hashtbl.iter
    (fun idx c ->
      rows.(!i) <- (idx / k, idx mod k, !c);
      incr i)
    t.pairs;
  Imatt.of_pair_counts t.rtl rows

let profile ?(patch = true) t =
  let ift = ift t and imatt = imatt t in
  if patch then begin
    let kernel =
      match t.kernel with
      | None -> Signature.kernel ift imatt
      | Some k -> (
        (* Counts-only drift keeps the bit geometry: patch the planes in
           place. New pairs change the IMATT row set, and a patch that
           fails its check is dropped; rebuild then. *)
        match Signature.patch_kernel k ift imatt with
        | Some _ as k' -> k'
        | None -> Signature.kernel ift imatt)
    in
    t.kernel <- kernel;
    match kernel with
    | Some kernel -> Profile.of_tables ~kernel (stream t) ift imatt
    | None -> Profile.tables_only (Profile.of_tables (stream t) ift imatt)
  end
  else Profile.of_tables (stream t) ift imatt
