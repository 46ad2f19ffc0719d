(* Bounded memo table: an array of short bucket lists keyed by the scratch
   hash. Probing compares the scratch buffer against frozen keys
   word-by-word, so a cache hit allocates nothing — the common case during
   greedy merging when module sets repeat across candidates (sinks sharing
   modules, grouped workloads).

   The table is deliberately bounded: bucket count stops doubling at
   [max_buckets] and each chain keeps at most [chain_cap] entries; once a
   chain is full, further misses in that bucket are computed directly from
   the scratch buffer and NOT inserted. On workloads where nearly every
   queried union is distinct (one module per sink: ~n^2 distinct candidate
   sets) an unbounded table would retain gigabytes of frozen bitsets and
   drown the run in GC work — worse than not memoizing at all. Here a
   steady-state miss allocates nothing at all (no union set, no frozen
   key): it costs one hash plus a short probe on top of the direct
   computation, while repeat-heavy workloads still hit. First-in wins over
   eviction because the sets that repeat (sink singletons, early unions)
   are exactly the ones seen first.

   Even the hash + probe can be a net loss when the key space is
   effectively distinct per query, so the table watches its own hit rate:
   after every [bypass_window] misses, if hits are below 1/16 of misses,
   it stops probing for good and answers every further query directly
   from the scratch buffer.

   Concurrency contract (enforced, see [check_owner]): queries are
   single-writer. The scratch buffer, the buckets and the bypass decision
   belong to exactly one domain — the first domain to query after
   creation. A query from any other domain raises a typed
   [Gcr_error.Internal] instead of silently corrupting the scratch
   state. The statistics, by contrast, are atomics: [stats] and
   [flush_obs] may be called from any domain while the owner is
   mid-query, and [flush_obs] publishes every delta exactly once (CAS on
   the flushed watermark), so a monitoring domain can flush a worker's
   cache without tearing or double-counting. *)

type entry = { key : Module_set.t; h : int; p : float }

type t = {
  profile : Profile.t;
  buf : Module_set.scratch;
  mutable buckets : entry list array; (* length is a power of two *)
  mutable size : int;
  mutable owner : int; (* domain id pinned by the first query; -1 = none *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  flushed_hits : int Atomic.t;
  flushed_misses : int Atomic.t;
  mutable bypass : bool;
}

let max_buckets = 1 lsl 15

let chain_cap = 4

let bypass_window = 1 lsl 14

let create profile =
  {
    profile;
    buf = Module_set.scratch (Profile.n_modules profile);
    buckets = Array.make 256 [];
    size = 0;
    owner = -1;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    flushed_hits = Atomic.make 0;
    flushed_misses = Atomic.make 0;
    bypass = false;
  }

(* Single-writer enforcement: the first querying domain pins the cache
   for good. One int compare on the query path. *)
let check_owner t =
  let me = (Domain.self () :> int) in
  if t.owner <> me then begin
    if t.owner = -1 then t.owner <- me
    else
      Util.Gcr_error.internal ~stage:"Pcache"
        "single-writer contract violated: cache owned by domain %d queried \
         from domain %d (create one cache per querying domain)"
        t.owner me
  end

(* The global Obs pair aggregates across every cache in the process.
   Per-query increments from worker domains would contend on the shared
   atomics (and serialize unrelated caches on one cache line), so each
   instance accumulates its own counters and publishes the delta via
   [flush_obs], from any domain, exactly once per delta. *)
let hits_counter = Util.Obs.counter "pcache.hits"

let misses_counter = Util.Obs.counter "pcache.misses"

(* Publish [total - flushed] and advance the watermark atomically: the
   CAS loses exactly when another flusher published the same delta first,
   and increments that land between the read and the CAS are picked up by
   the next flush. *)
let flush_one ~total ~flushed counter =
  let rec go () =
    let t = Atomic.get total in
    let f = Atomic.get flushed in
    let d = t - f in
    if d > 0 then
      if Atomic.compare_and_set flushed f t then Util.Obs.add counter d
      else go ()
  in
  go ()

let flush_obs t =
  flush_one ~total:t.hits ~flushed:t.flushed_hits hits_counter;
  flush_one ~total:t.misses ~flushed:t.flushed_misses misses_counter

let resize t =
  let old = t.buckets in
  let cap = 2 * Array.length old in
  let buckets = Array.make cap [] in
  Array.iter
    (List.iter (fun e ->
         let i = e.h land (cap - 1) in
         buckets.(i) <- e :: buckets.(i)))
    old;
  t.buckets <- buckets

(* Look up the probability of the set currently held by [t.buf]. *)
let lookup t =
  if t.bypass then begin
    Atomic.incr t.misses;
    Profile.p_scratch t.profile t.buf
  end
  else begin
  let h = Module_set.scratch_hash t.buf in
  let i = h land (Array.length t.buckets - 1) in
  let rec find len = function
    | [] ->
      let m = 1 + Atomic.fetch_and_add t.misses 1 in
      if m land (bypass_window - 1) = 0 && Atomic.get t.hits * 16 < m then
        t.bypass <- true;
      let p = Profile.p_scratch t.profile t.buf in
      if len < chain_cap then begin
        let key = Module_set.freeze t.buf in
        t.buckets.(i) <- { key; h; p } :: t.buckets.(i);
        t.size <- t.size + 1;
        if t.size > 2 * Array.length t.buckets && Array.length t.buckets < max_buckets
        then resize t
      end;
      p
    | e :: tl ->
      if e.h = h && Module_set.scratch_equal t.buf e.key
      then begin
        Atomic.incr t.hits;
        e.p
      end
      else find (len + 1) tl
  in
  find 0 t.buckets.(i)
  end

let p_union t a b =
  check_owner t;
  Module_set.union_into t.buf a b;
  lookup t

(* Element-wise [p_union] over one base set: the batched shape the greedy
   engine's [cost_many] hands us. Each element runs the ordinary
   union-into-scratch + lookup, so it counts exactly one hit or one miss
   and fills the memo table exactly as [cnt] scalar calls would — the
   batching here is purely the call shape (the scratch buffer and hash
   state are reused across the loop with no per-element setup). *)
let p_union_batch t a ?n bs out =
  let cnt = match n with Some n -> n | None -> Array.length bs in
  if cnt < 0 || cnt > Array.length bs then
    invalid_arg "Pcache.p_union_batch: n exceeds input array";
  if cnt > Array.length out then
    invalid_arg "Pcache.p_union_batch: output array too short";
  check_owner t;
  for i = 0 to cnt - 1 do
    Module_set.union_into t.buf a bs.(i);
    out.(i) <- lookup t
  done

let p t s =
  check_owner t;
  Module_set.blit_into t.buf s;
  lookup t

let stats t = (Atomic.get t.hits, Atomic.get t.misses)
