let fail oracle fmt =
  Printf.ksprintf
    (fun detail ->
      Util.Gcr_error.raise_t
        (Util.Gcr_error.Engine_mismatch { stage = "Oracles." ^ oracle; detail }))
    fmt

let set_str s = Format.asprintf "%a" Activity.Module_set.pp s

let fail_tree what fmt =
  Printf.ksprintf
    (fun detail ->
      Util.Gcr_error.raise_t
        (Util.Gcr_error.Engine_mismatch
           { stage = Printf.sprintf "Oracles.same_tree (%s)" what; detail }))
    fmt

let same_tree ~what (a : Gcr.Gated_tree.t) (b : Gcr.Gated_tree.t) =
  let fail fmt = fail_tree what fmt in
  if not (Clocktree.Topo.equal a.Gcr.Gated_tree.topo b.Gcr.Gated_tree.topo) then
    fail "topologies differ";
  if a.Gcr.Gated_tree.skew_budget <> b.Gcr.Gated_tree.skew_budget then
    fail "skew budgets differ (%.17g vs %.17g)" a.Gcr.Gated_tree.skew_budget
      b.Gcr.Gated_tree.skew_budget;
  (match (a.Gcr.Gated_tree.sharing, b.Gcr.Gated_tree.sharing) with
  | None, None -> ()
  | Some (mi, eps), Some (mi', eps') when mi = mi' && eps = eps' -> ()
  | _ -> fail "sharing parameters differ");
  if a.Gcr.Gated_tree.test_en <> b.Gcr.Gated_tree.test_en then
    fail "test_en differs (%b vs %b)" a.Gcr.Gated_tree.test_en
      b.Gcr.Gated_tree.test_en;
  let n = Clocktree.Topo.n_nodes a.Gcr.Gated_tree.topo in
  for v = 0 to n - 1 do
    if a.Gcr.Gated_tree.kind.(v) <> b.Gcr.Gated_tree.kind.(v) then
      fail "node %d: hardware kinds differ" v;
    if a.Gcr.Gated_tree.governing.(v) <> b.Gcr.Gated_tree.governing.(v) then
      fail "node %d: governing gates differ (%d vs %d)" v
        a.Gcr.Gated_tree.governing.(v) b.Gcr.Gated_tree.governing.(v);
    if a.Gcr.Gated_tree.scale.(v) <> b.Gcr.Gated_tree.scale.(v) then
      fail "node %d: size factors differ (%.17g vs %.17g)" v
        a.Gcr.Gated_tree.scale.(v) b.Gcr.Gated_tree.scale.(v);
    let ea = a.Gcr.Gated_tree.enables.(v) and eb = b.Gcr.Gated_tree.enables.(v) in
    if not (Activity.Module_set.equal ea.Gcr.Enable.mods eb.Gcr.Enable.mods) then
      fail "node %d: enable sets differ (%s vs %s)" v (set_str ea.Gcr.Enable.mods)
        (set_str eb.Gcr.Enable.mods);
    if ea.Gcr.Enable.p <> eb.Gcr.Enable.p || ea.Gcr.Enable.ptr <> eb.Gcr.Enable.ptr
    then
      fail "node %d: enable statistics differ (P %.17g vs %.17g, Ptr %.17g vs %.17g)"
        v ea.Gcr.Enable.p eb.Gcr.Enable.p ea.Gcr.Enable.ptr eb.Gcr.Enable.ptr;
    let la = Clocktree.Embed.loc a.Gcr.Gated_tree.embed v
    and lb = Clocktree.Embed.loc b.Gcr.Gated_tree.embed v in
    if la.Geometry.Point.x <> lb.Geometry.Point.x
       || la.Geometry.Point.y <> lb.Geometry.Point.y
    then
      fail "node %d: embedded locations differ ((%.17g, %.17g) vs (%.17g, %.17g))"
        v la.Geometry.Point.x la.Geometry.Point.y lb.Geometry.Point.x
        lb.Geometry.Point.y;
    let wa = Clocktree.Embed.edge_len a.Gcr.Gated_tree.embed v
    and wb = Clocktree.Embed.edge_len b.Gcr.Gated_tree.embed v in
    if wa <> wb then
      fail "node %d: edge lengths differ (%.17g vs %.17g)" v wa wb;
    if a.Gcr.Gated_tree.share_rep.(v) <> b.Gcr.Gated_tree.share_rep.(v) then
      fail "node %d: share representatives differ (%d vs %d)" v
        a.Gcr.Gated_tree.share_rep.(v) b.Gcr.Gated_tree.share_rep.(v);
    let sa = a.Gcr.Gated_tree.shared_enables.(v)
    and sb = b.Gcr.Gated_tree.shared_enables.(v) in
    if not (Activity.Module_set.equal sa.Gcr.Enable.mods sb.Gcr.Enable.mods)
    then
      fail "node %d: shared enable sets differ (%s vs %s)" v
        (set_str sa.Gcr.Enable.mods) (set_str sb.Gcr.Enable.mods);
    if sa.Gcr.Enable.p <> sb.Gcr.Enable.p || sa.Gcr.Enable.ptr <> sb.Gcr.Enable.ptr
    then
      fail
        "node %d: shared enable statistics differ (P %.17g vs %.17g, Ptr \
         %.17g vs %.17g)"
        v sa.Gcr.Enable.p sb.Gcr.Enable.p sa.Gcr.Enable.ptr sb.Gcr.Enable.ptr;
    if a.Gcr.Gated_tree.bypass.(v) <> b.Gcr.Gated_tree.bypass.(v) then
      fail "node %d: bypass flags differ" v
  done

let analytic_vs_simulated tree = Gsim.Check.validate ~structural:false tree

(* Test mode is the scan/ATPG contract: with [test_en] forced on and
   every bypass honored, the tree must clock like the ungated tree —
   whose waveform is trivially all-true on every edge, every cycle. The
   comparison is bit-for-bit against the simulator's replay, so a single
   gate left opaque (or a stuck bypass bit) on any cycle fails. *)
let test_mode_bypass (tree : Gcr.Gated_tree.t) stream =
  let forced = Gcr.Gated_tree.with_test_en tree true in
  let wave = Gsim.Gate_sim.clock_waveforms forced stream in
  Array.iteri
    (fun v row ->
      Array.iteri
        (fun t on ->
          if not on then
            fail "test_mode_bypass"
              "node %d: clock gated off at cycle %d despite test_en" v t)
        row)
    wave

(* A sampled profile without a kernel: the check rejected a correct one. *)
let checked_kernel ~what profile =
  match Activity.Profile.signature_kernel profile with
  | None when not (Activity.Profile.is_analytic profile) ->
    fail what "sampled profile has no signature kernel (check rejected it)"
  | k -> k

let signature_vs_tables (tree : Gcr.Gated_tree.t) =
  let profile = tree.Gcr.Gated_tree.profile in
  match checked_kernel ~what:"signature_vs_tables" profile with
  | None -> ()
  | Some kernel ->
    let ift = Activity.Profile.ift profile in
    let imatt = Activity.Profile.imatt profile in
    let topo = tree.Gcr.Gated_tree.topo in
    let mods v = tree.Gcr.Gated_tree.enables.(v).Gcr.Enable.mods in
    for v = 0 to Clocktree.Topo.n_nodes topo - 1 do
      let s = Activity.Signature.of_set kernel (mods v) in
      let p_sig = Activity.Signature.p kernel s
      and p_tab = Activity.Ift.p_any ift (mods v) in
      if p_sig <> p_tab then
        fail "signature_vs_tables"
          "node %d: kernel P %.17g <> IFT scan %.17g over %s" v p_sig p_tab
          (set_str (mods v));
      let ptr_sig = Activity.Signature.ptr kernel s
      and ptr_tab = Activity.Imatt.ptr imatt (mods v) in
      if ptr_sig <> ptr_tab then
        fail "signature_vs_tables"
          "node %d: kernel Ptr %.17g <> IMATT scan %.17g over %s" v ptr_sig
          ptr_tab (set_str (mods v));
      match Clocktree.Topo.children topo v with
      | None -> ()
      | Some (l, r) ->
        (* The greedy candidate fast path: union answered from the child
           signatures without materializing the merged module set. *)
        let sl = Activity.Signature.of_set kernel (mods l)
        and sr = Activity.Signature.of_set kernel (mods r) in
        let u = Activity.Module_set.union (mods l) (mods r) in
        let pu_sig = Activity.Signature.p_union kernel sl sr
        and pu_tab = Activity.Ift.p_any ift u in
        if pu_sig <> pu_tab then
          fail "signature_vs_tables"
            "node %d: p_union %.17g <> IFT scan %.17g over %s" v pu_sig pu_tab
            (set_str u);
        let tu_sig = Activity.Signature.ptr_union kernel sl sr
        and tu_tab = Activity.Imatt.ptr imatt u in
        if tu_sig <> tu_tab then
          fail "signature_vs_tables"
            "node %d: ptr_union %.17g <> IMATT scan %.17g over %s" v tu_sig
            tu_tab (set_str u)
    done

(* Replay one engine's merge sequence (ascending internal-node ids are
   the commit order) and require every chosen pair to achieve the exact
   brute-force minimum of the activity-merge cost over the roots active
   at that step. The replayed Grow state and signature unions evolve
   through the same operations as the engine's, so the recomputed costs
   are bit-identical and the comparison needs no tolerance — and unlike a
   topology diff, any min-achieving choice passes, so the ubiquitous
   exact cost ties (saturated P(EN) with overlapping regions at distance
   zero) cannot produce false alarms. *)
let greedy_optimal ~what (config : Gcr.Config.t) profile sinks topo =
  match Activity.Profile.signature_kernel profile with
  | None -> ()
  | Some kern ->
    let tech = config.Gcr.Config.tech in
    let n = Array.length sinks in
    let grow =
      Clocktree.Grow.create tech
        ~edge_gate:(Some tech.Clocktree.Tech.and_gate)
        sinks
    in
    let n_mods = Activity.Profile.n_modules profile in
    let size = (2 * n) - 1 in
    let sigs =
      Array.init n (fun v ->
          Activity.Signature.of_set kern
            (Activity.Module_set.singleton n_mods
               sinks.(v).Clocktree.Sink.module_id))
    in
    let sigs = Array.append sigs (Array.make (n - 1) sigs.(0)) in
    let tie = 1e-6 /. (1.0 +. Geometry.Bbox.width config.Gcr.Config.die) in
    let cost a b =
      Activity.Signature.p_union kern sigs.(a) sigs.(b)
      +. (tie *. Clocktree.Grow.dist grow a b)
    in
    let active = Array.make size false in
    for v = 0 to n - 1 do
      active.(v) <- true
    done;
    for v = n to size - 1 do
      let a, b =
        match Clocktree.Topo.children topo v with
        | Some pair -> pair
        | None ->
          Util.Gcr_error.internal ~stage:"engine_vs_dense"
            "%s: internal node %d has no children in the replayed topology"
            what v
      in
      if not (active.(a) && active.(b)) then
        fail "engine_vs_dense" "%s: merge %d joins non-roots (%d, %d)" what
          (v - n) a b;
      let chosen = cost a b in
      let best = ref infinity in
      for i = 0 to v - 1 do
        if active.(i) then
          for j = i + 1 to v - 1 do
            if active.(j) then best := Float.min !best (cost i j)
          done
      done;
      if chosen > !best then
        fail "engine_vs_dense"
          "%s: merge %d chose (%d, %d) at cost %.17g but the cheapest \
           available pair costs %.17g"
          what (v - n) a b chosen !best;
      let k = Clocktree.Grow.merge grow a b in
      if k <> v then
        fail "engine_vs_dense" "%s: replay numbered merge %d as %d" what v k;
      sigs.(k) <- Activity.Signature.union sigs.(a) sigs.(b);
      active.(a) <- false;
      active.(b) <- false;
      active.(k) <- true
    done

(* Each region of a sharded plan is routed by the same greedy engine over
   its own sinks, so each region's merge list must be greedy-optimal over
   that region in isolation — replayed through a fresh {!Gcr.Router.forest}
   whose Eq. (3) cost evolves through exactly the operations the region
   router performed. The replay scans pairs as (i, j) with i < j while
   the engine's partner scan may have evaluated the same pair the other
   way round, and [Cost.merge_sc] is orientation-sensitive in the last
   ulp — so on exact cost ties (degenerate profiles, coincident sinks)
   the brute-force minimum can undercut the chosen pair's recomputed
   cost by ~1 ulp. A relative tolerance of 1e-12 absorbs that noise;
   genuinely non-greedy choices miss by whole cost units. (The stitch
   above the regions is not globally greedy-optimal by design; its
   tolerance is measured in EXPERIMENTS.md, not asserted here.) *)
let sharded_regions_optimal ?shards (config : Gcr.Config.t) profile sinks =
  let plan = Gcr.Shard_router.plan ?shards ~domains:1 config profile sinks in
  Array.iteri
    (fun r ls ->
      let k = Array.length ls in
      if k > 1 then begin
        let forest = Gcr.Router.forest config profile ls in
        let active = Array.make ((2 * k) - 1) false in
        for v = 0 to k - 1 do
          active.(v) <- true
        done;
        Array.iteri
          (fun step (a, b) ->
            if not (active.(a) && active.(b)) then
              fail "sharded_regions_optimal"
                "region %d: merge %d joins non-roots (%d, %d)" r step a b;
            let chosen = Gcr.Router.cost forest a b in
            let m = k + step in
            let best = ref infinity in
            for i = 0 to m - 1 do
              if active.(i) then
                for j = i + 1 to m - 1 do
                  if active.(j) then
                    best := Float.min !best (Gcr.Router.cost forest i j)
                done
            done;
            if not (Util.Tol.within ~rel:1e-12 ~value:chosen ~bound:!best ())
            then
              fail "sharded_regions_optimal"
                "region %d: merge %d chose (%d, %d) at cost %.17g but the \
                 cheapest available pair costs %.17g"
                r step a b chosen !best;
            let v = Gcr.Router.merge forest a b in
            if v <> m then
              fail "sharded_regions_optimal"
                "region %d: replay numbered merge %d as %d" r m v;
            active.(a) <- false;
            active.(b) <- false;
            active.(v) <- true)
          plan.Gcr.Shard_router.region_merges.(r)
      end)
    plan.Gcr.Shard_router.region_sinks

(* The flat router answers each Eq. (3) query from the spatial index;
   the scan source costs every partner. Both own partners u < q, call
   [cost q u] in that order and keep the first minimum in active order,
   so the merge lists must be equal — not just tie-equivalent. *)
let router_matches_scan (config : Gcr.Config.t) profile sinks =
  let routed = Gcr.Router.forest config profile sinks in
  Gcr.Router.run routed;
  let scanned = Gcr.Router.forest config profile sinks in
  ignore
    (Clocktree.Greedy.merge_all ~n:(Array.length sinks)
       ~cost:(Gcr.Router.cost scanned) ~merge:(Gcr.Router.merge scanned)
      : int);
  let a = Clocktree.Grow.merges (Gcr.Router.grow routed) in
  let b = Clocktree.Grow.merges (Gcr.Router.grow scanned) in
  Array.iteri
    (fun step (x, y) ->
      let u, v = b.(step) in
      if x <> u || y <> v then
        fail "router_matches_scan"
          "merge %d: the index chose (%d, %d), the scan (%d, %d)" step x y u v)
    a

let nn_matches_scan (tech : Clocktree.Tech.t) sinks =
  let n = Array.length sinks in
  List.iter
    (fun edge_gate ->
      let topo = Clocktree.Nn.topology tech ~edge_gate sinks in
      let grow = Clocktree.Grow.create tech ~edge_gate sinks in
      ignore
        (Clocktree.Greedy.merge_all ~n ~cost:(Clocktree.Grow.dist grow)
           ~merge:(Clocktree.Grow.merge grow)
          : int);
      Array.iteri
        (fun step (u, v) ->
          match Clocktree.Topo.children topo (n + step) with
          | Some (x, y) when x = u && y = v -> ()
          | got ->
            let x, y = Option.value got ~default:(-1, -1) in
            fail "nn_matches_scan"
              "merge %d (%s): the index chose (%d, %d), the scan (%d, %d)" step
              (if edge_gate = None then "no edge gate" else "buffered")
              x y u v)
        (Clocktree.Grow.merges grow))
    [ None; Some tech.Clocktree.Tech.buffer ]

let engine_vs_dense (sc : Scenario.t) =
  let config = Scenario.config sc in
  let profile = Scenario.profile sc in
  let sinks = sc.Scenario.sinks in
  greedy_optimal ~what:"NN-heap engine" config profile sinks
    (Gcr.Activity_router.topology config profile sinks);
  greedy_optimal ~what:"dense oracle" config profile sinks
    (Gcr.Activity_router.topology_dense config profile sinks)

(* Deterministic drift on top of a scenario's trace: one chunk replaying
   the trace reversed (moves the pair distribution, i.e. Ptr, while
   keeping every hit count) and one chunk hammering the trace's first
   instruction (moves the hit distribution, i.e. P, in both
   directions). *)
let drift_chunks (sc : Scenario.t) =
  let stream = sc.Scenario.stream in
  let len = Array.length stream in
  [ Array.init len (fun i -> stream.(len - 1 - i));
    Array.make (Int.max 8 len) stream.(0) ]

(* Streaming ingestion is additive over concatenation, so any chunking
   of the trace — including degenerate chunks — must land on the same
   tables bit-for-bit and therefore the same routed tree. The split here
   deliberately exercises every boundary shape at once: an empty chunk,
   a single-instruction chunk (whose only contribution is one hit count
   and the boundary pair), and a cut point inside a NOW/NEXT pair. *)
let chunked_vs_whole (sc : Scenario.t) =
  let stream = Scenario.instr_stream sc in
  let len = Activity.Instr_stream.length stream in
  let acc = Activity.Stream_update.create sc.Scenario.rtl in
  let cut = 1 + ((len - 1) / 2) in
  let slice pos n = Array.init n (fun i -> Activity.Instr_stream.get stream (pos + i)) in
  Activity.Stream_update.ingest acc (slice 0 1);
  Activity.Stream_update.ingest acc [||];
  Activity.Stream_update.ingest acc (slice 1 (cut - 1));
  Activity.Stream_update.ingest acc (slice cut (len - cut));
  let ift_c = Activity.Stream_update.ift acc
  and ift_w = Activity.Ift.build stream in
  if Activity.Ift.total_cycles ift_c <> Activity.Ift.total_cycles ift_w then
    fail "chunked_vs_whole" "IFT totals differ (%d chunked vs %d whole)"
      (Activity.Ift.total_cycles ift_c)
      (Activity.Ift.total_cycles ift_w);
  for i = 0 to Activity.Rtl.n_instructions sc.Scenario.rtl - 1 do
    if Activity.Ift.count ift_c i <> Activity.Ift.count ift_w i then
      fail "chunked_vs_whole" "IFT count of instruction %d differs (%d vs %d)"
        i
        (Activity.Ift.count ift_c i)
        (Activity.Ift.count ift_w i)
  done;
  let imatt_c = Activity.Stream_update.imatt acc
  and imatt_w = Activity.Imatt.build stream in
  if
    Activity.Imatt.total_pairs imatt_c <> Activity.Imatt.total_pairs imatt_w
  then
    fail "chunked_vs_whole" "IMATT totals differ (%d chunked vs %d whole)"
      (Activity.Imatt.total_pairs imatt_c)
      (Activity.Imatt.total_pairs imatt_w);
  let rows_c = Activity.Imatt.rows imatt_c
  and rows_w = Activity.Imatt.rows imatt_w in
  if Array.length rows_c <> Array.length rows_w then
    fail "chunked_vs_whole" "IMATT row counts differ (%d vs %d)"
      (Array.length rows_c) (Array.length rows_w);
  Array.iteri
    (fun r (a : Activity.Imatt.row) ->
      let b = rows_w.(r) in
      if
        a.Activity.Imatt.first <> b.Activity.Imatt.first
        || a.Activity.Imatt.second <> b.Activity.Imatt.second
        || a.Activity.Imatt.count <> b.Activity.Imatt.count
      then
        fail "chunked_vs_whole"
          "IMATT row %d differs ((%d,%d)x%d vs (%d,%d)x%d)" r
          a.Activity.Imatt.first a.Activity.Imatt.second a.Activity.Imatt.count
          b.Activity.Imatt.first b.Activity.Imatt.second b.Activity.Imatt.count)
    rows_c;
  (* Same tables => same routed tree, bit for bit. *)
  let config = Scenario.config sc in
  let route profile =
    Gcr.Flow.run ~options:sc.Scenario.options config profile sc.Scenario.sinks
  in
  same_tree ~what:"chunked ingestion vs whole-trace build"
    (route (Activity.Stream_update.profile acc))
    (route (Scenario.profile sc));
  (* Drift on the warm accumulator: each patched or rebuilt kernel is checked. *)
  List.iter
    (fun chunk ->
      Activity.Stream_update.ingest acc chunk;
      ignore (checked_kernel ~what:"chunked_vs_whole" (Activity.Stream_update.profile acc)))
    (drift_chunks sc)

(* The locality bound for ECO repair: the switched capacitance of a
   locally repaired tree may not stray from a from-scratch route under
   the updated profile by more than this relative tolerance. Measured
   over fuzz smoke populations (EXPERIMENTS.md, "Streaming updates and
   ECO repair"); genuine repair
   bugs (stale enables, a mis-spliced subtree) miss by whole factors.
   Greedy is no optimum, so the scratch route can itself be the outlier:
   below scratch, the repair is held against the cheaper of the scratch
   route and the old topology re-embedded under the updated profile. *)
let eco_w_tolerance = 0.25

let eco_repair_matches_scratch ?threshold (sc : Scenario.t) =
  let config = Scenario.config sc in
  let options = sc.Scenario.options in
  let with_test t = if sc.Scenario.test_en then Gcr.Gated_tree.with_test_en t true else t in
  let acc = Activity.Stream_update.of_stream (Scenario.instr_stream sc) in
  let base = with_test (Gcr.Flow.run ~options config (Activity.Stream_update.profile acc) sc.Scenario.sinks) in
  List.iter (Activity.Stream_update.ingest acc) (drift_chunks sc);
  let updated = Activity.Stream_update.profile acc in
  let report = Gcr.Eco.repair ?threshold ~options base updated in
  let repaired = report.Gcr.Eco.tree in
  Gcr.Verify.structural repaired;
  analytic_vs_simulated repaired;
  let scratch = with_test (Gcr.Flow.run ~options config updated sc.Scenario.sinks) in
  if report.Gcr.Eco.full_rebuild then
    (* Root drift degenerates to the ordinary pipeline — then the repair
       must be the from-scratch route, bit for bit. *)
    same_tree ~what:"eco full rebuild vs scratch" repaired scratch
  else begin
    let w_rep = Gcr.Cost.w_total repaired
    and w_scr = Gcr.Cost.w_total scratch in
    if not (Float.is_finite w_rep && w_rep >= 0.0) then
      fail "eco_repair_matches_scratch" "repaired W is %.17g" w_rep;
    let near w = Util.Tol.close ~rel:eco_w_tolerance w_rep w in
    let w_old =
      lazy
        (Gcr.Cost.w_total
           (with_test
              (Gcr.Flow.optimize options
                 (Gcr.Gated_tree.build
                    ?skew_budget:(Gcr.Flow.skew_budget options)
                    config updated sc.Scenario.sinks base.Gcr.Gated_tree.topo
                    ~kind:(fun _ -> Gcr.Gated_tree.Gated)))))
    in
    let below_scratch_ok () =
      w_rep < w_scr
      && (w_rep >= Lazy.force w_old || near (Lazy.force w_old))
    in
    if not (near w_scr || below_scratch_ok ()) then
      fail "eco_repair_matches_scratch"
        "repaired W %.17g strays more than %g%% from the from-scratch W \
         %.17g%s (%d drifted nodes, %d stale subtrees, %d sinks re-merged)"
        w_rep (100.0 *. eco_w_tolerance) w_scr
        (if Lazy.is_val w_old then
           Printf.sprintf " and the re-embedded old topology's W %.17g"
             (Lazy.force w_old)
         else "")
        (List.length report.Gcr.Eco.drifted)
        (List.length report.Gcr.Eco.stale)
        report.Gcr.Eco.resinks
  end

let with_domains value f =
  let old = Sys.getenv_opt "GCR_DOMAINS" in
  Unix.putenv "GCR_DOMAINS" value;
  Fun.protect
    (* An empty value counts as unset (see Util.Parallel.default_domains),
       so a previously-absent variable is restored faithfully. *)
    ~finally:(fun () -> Unix.putenv "GCR_DOMAINS" (Option.value old ~default:""))
    f

let kind_str = function
  | Gcr.Gated_tree.Plain -> "plain"
  | Gcr.Gated_tree.Buffered -> "buffered"
  | Gcr.Gated_tree.Gated -> "gated"

let reduce_matches_reference routed =
  let same what reduced reference =
    Array.iteri
      (fun v k ->
        if k <> reference.(v) then
          fail "reduce_matches_reference" "%s: node %d is %s, reference %s" what v
            (kind_str k) (kind_str reference.(v)))
      (Gcr.Gated_tree.kinds_copy reduced)
  in
  same "reduce_greedy"
    (Gcr.Gate_reduction.reduce_greedy routed)
    (Reduce_reference.greedy_kinds routed);
  let g = Gcr.Gated_tree.gate_count routed in
  List.iter
    (fun remove ->
      same
        (Printf.sprintf "reduce_count ~remove:%d" remove)
        (Gcr.Gate_reduction.reduce_count routed ~remove)
        (Reduce_reference.count_kinds routed ~remove))
    (List.sort_uniq compare [ 0; g / 2; g ])

let domains_determinism (sc : Scenario.t) =
  let run () =
    let profile = Scenario.profile sc in
    Gcr.Flow.run ~options:sc.Scenario.options (Scenario.config sc) profile
      sc.Scenario.sinks
  in
  let sequential = with_domains "1" run in
  let parallel = with_domains "4" run in
  same_tree ~what:"GCR_DOMAINS=1 vs GCR_DOMAINS=4" sequential parallel
