let group_of ~n_modules ~n_groups m = m * n_groups / n_modules

let default_groups n_modules = min n_modules (max 4 (min 16 (n_modules / 24)))

(* Solve for the per-instruction probability q that a non-core group is
   used, so that the average fraction of active modules hits [usage]:
   usage = within * (core + (1 - core) * q). *)
let group_use_prob ~usage ~within_density ~core_fraction =
  let q =
    ((usage /. within_density) -. core_fraction) /. (1.0 -. core_fraction)
  in
  Float.min 1.0 (Float.max 0.0 q)

let make_rtl ~n_modules ~n_instructions ~usage ?n_groups
    ?(within_density = 0.9) ?(core_fraction = 0.1) ~seed () =
  if usage <= 0.0 || usage > 1.0 then
    invalid_arg "Workload.make_rtl: usage outside (0,1]";
  if n_modules <= 0 || n_instructions <= 0 then
    invalid_arg "Workload.make_rtl: non-positive size";
  if within_density <= 0.0 || within_density > 1.0 then
    invalid_arg "Workload.make_rtl: within_density outside (0,1]";
  if core_fraction < 0.0 || core_fraction >= 1.0 then
    invalid_arg "Workload.make_rtl: core_fraction outside [0,1)";
  let n_groups =
    match n_groups with
    | Some g ->
      if g <= 0 || g > n_modules then
        invalid_arg "Workload.make_rtl: n_groups outside [1, n_modules]";
      g
    | None -> default_groups n_modules
  in
  let prng = Util.Prng.create seed in
  let q = group_use_prob ~usage ~within_density ~core_fraction in
  let n_core = int_of_float (Float.round (core_fraction *. float_of_int n_groups)) in
  (* which groups form the always-on datapath core *)
  let group_ids = Array.init n_groups Fun.id in
  Util.Prng.shuffle prng group_ids;
  let is_core = Array.make n_groups false in
  for i = 0 to n_core - 1 do
    is_core.(group_ids.(i)) <- true
  done;
  let uses =
    Array.init n_instructions (fun _ ->
        let used_group =
          Array.init n_groups (fun g ->
              is_core.(g) || Util.Prng.float prng 1.0 < q)
        in
        let set = ref (Activity.Module_set.empty n_modules) in
        for m = 0 to n_modules - 1 do
          if
            used_group.(group_of ~n_modules ~n_groups m)
            && Util.Prng.float prng 1.0 < within_density
          then set := Activity.Module_set.add !set m
        done;
        if Activity.Module_set.is_empty !set then
          set := Activity.Module_set.add !set (Util.Prng.int prng n_modules);
        !set)
  in
  Activity.Rtl.make ~n_modules ~uses ()

let cpu_model ?(zipf_s = 1.1) ?(locality = 0.7) rtl =
  Activity.Cpu_model.make ~locality
    ~weights:(Activity.Cpu_model.zipf_weights rtl ~s:zipf_s)
    rtl

let profile ~n_modules ?(n_instructions = 32) ?(usage = 0.4) ?n_groups
    ?within_density ?core_fraction ?(stream_length = 10_000) ?(locality = 0.7)
    ~seed () =
  let rtl =
    make_rtl ~n_modules ~n_instructions ~usage ?n_groups ?within_density
      ?core_fraction ~seed ()
  in
  let model = cpu_model ~locality rtl in
  Activity.Profile.generate model ~seed:(seed + 7919) ~length:stream_length
