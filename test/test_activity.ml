(* Tests for the activity substrate: module bitsets, RTL descriptions,
   instruction streams, the IFT/IMATT tables and the brute-force oracle.
   Includes the paper's Section 3 worked example (Tables 1-3) as golden
   values and qcheck properties establishing that the table-driven
   computation agrees exactly with rescanning the stream. *)

let check_float = Alcotest.(check (float 1e-12))

module Ms = Activity.Module_set

(* ------------------------------------------------------------------ *)
(* Module_set                                                         *)
(* ------------------------------------------------------------------ *)

let test_ms_empty_full () =
  let e = Ms.empty 10 and f = Ms.full 10 in
  Alcotest.(check bool) "empty" true (Ms.is_empty e);
  Alcotest.(check int) "empty card" 0 (Ms.cardinal e);
  Alcotest.(check int) "full card" 10 (Ms.cardinal f);
  Alcotest.(check bool) "full not empty" false (Ms.is_empty f);
  Alcotest.(check int) "universe" 10 (Ms.universe_size e)

let test_ms_add_mem () =
  let s = Ms.of_list 8 [ 0; 3; 7 ] in
  Alcotest.(check bool) "mem 0" true (Ms.mem s 0);
  Alcotest.(check bool) "mem 3" true (Ms.mem s 3);
  Alcotest.(check bool) "mem 7" true (Ms.mem s 7);
  Alcotest.(check bool) "not mem 1" false (Ms.mem s 1);
  Alcotest.(check (list int)) "to_list ascending" [ 0; 3; 7 ] (Ms.to_list s)

let test_ms_add_immutable () =
  let s = Ms.empty 4 in
  let s' = Ms.add s 2 in
  Alcotest.(check bool) "original unchanged" true (Ms.is_empty s);
  Alcotest.(check bool) "new has member" true (Ms.mem s' 2)

let test_ms_bounds () =
  Alcotest.check_raises "singleton out of range"
    (Invalid_argument "Module_set.singleton: module 6 outside [0,6)") (fun () ->
      ignore (Ms.singleton 6 6));
  Alcotest.check_raises "negative universe"
    (Invalid_argument "Module_set.empty: negative universe") (fun () ->
      ignore (Ms.empty (-1)))

let test_ms_set_ops () =
  let a = Ms.of_list 8 [ 0; 1; 2 ] and b = Ms.of_list 8 [ 2; 3 ] in
  Alcotest.(check (list int)) "union" [ 0; 1; 2; 3 ] (Ms.to_list (Ms.union a b));
  Alcotest.(check (list int)) "inter" [ 2 ] (Ms.to_list (Ms.inter a b));
  Alcotest.(check (list int)) "diff" [ 0; 1 ] (Ms.to_list (Ms.diff a b));
  Alcotest.(check bool) "intersects" true (Ms.intersects a b);
  Alcotest.(check bool) "disjoint" false (Ms.intersects a (Ms.of_list 8 [ 5; 6 ]));
  Alcotest.(check bool) "subset" true (Ms.subset (Ms.of_list 8 [ 1 ]) a);
  Alcotest.(check bool) "not subset" false (Ms.subset b a)

let test_ms_universe_mismatch () =
  let a = Ms.empty 4 and b = Ms.empty 5 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Module_set.union: universe mismatch (4 vs 5)") (fun () ->
      ignore (Ms.union a b))

let test_ms_large_universe () =
  (* exercises multi-word bitsets (universe > 62) *)
  let n = 200 in
  let members = [ 0; 61; 62; 63; 123; 199 ] in
  let s = Ms.of_list n members in
  Alcotest.(check (list int)) "members" members (Ms.to_list s);
  Alcotest.(check int) "cardinal" (List.length members) (Ms.cardinal s);
  let t = Ms.of_list n [ 62; 150 ] in
  Alcotest.(check bool) "intersects across words" true (Ms.intersects s t);
  Alcotest.(check (list int)) "inter" [ 62 ] (Ms.to_list (Ms.inter s t))

let test_ms_equal_hash () =
  let a = Ms.of_list 100 [ 1; 99 ] and b = Ms.of_list 100 [ 99; 1 ] in
  Alcotest.(check bool) "equal" true (Ms.equal a b)

let ms_gen n =
  QCheck.map (fun l -> Ms.of_list n (List.filter (fun x -> x < n) l))
    QCheck.(small_list (int_bound (n - 1)))

let prop_ms_union_cardinal =
  QCheck.Test.make ~name:"inclusion-exclusion on cardinals" ~count:300
    QCheck.(pair (ms_gen 70) (ms_gen 70))
    (fun (a, b) ->
      Ms.cardinal (Ms.union a b) + Ms.cardinal (Ms.inter a b)
      = Ms.cardinal a + Ms.cardinal b)

let prop_ms_intersects_consistent =
  QCheck.Test.make ~name:"intersects = not (is_empty inter)" ~count:300
    QCheck.(pair (ms_gen 70) (ms_gen 70))
    (fun (a, b) -> Ms.intersects a b = not (Ms.is_empty (Ms.inter a b)))

let prop_ms_diff_disjoint =
  QCheck.Test.make ~name:"diff is disjoint from subtrahend" ~count:300
    QCheck.(pair (ms_gen 70) (ms_gen 70))
    (fun (a, b) -> not (Ms.intersects (Ms.diff a b) b))

(* ------------------------------------------------------------------ *)
(* Rtl                                                                *)
(* ------------------------------------------------------------------ *)

let test_rtl_paper_example () =
  let rtl = Activity.Rtl.paper_example in
  Alcotest.(check int) "modules" 6 (Activity.Rtl.n_modules rtl);
  Alcotest.(check int) "instructions" 4 (Activity.Rtl.n_instructions rtl);
  (* Table 1: I1 -> M1 M2 M3 M5 *)
  Alcotest.(check (list int)) "I1 uses" [ 0; 1; 2; 4 ]
    (Ms.to_list (Activity.Rtl.uses rtl 0));
  Alcotest.(check (list int)) "I4 uses" [ 2; 3 ] (Ms.to_list (Activity.Rtl.uses rtl 3));
  Alcotest.(check string) "default names" "M1" (Activity.Rtl.module_name rtl 0);
  Alcotest.(check string) "instr names" "I3" (Activity.Rtl.instr_name rtl 2)

let test_rtl_instructions_using () =
  let rtl = Activity.Rtl.paper_example in
  (* M5 or M6 is used by I1 and I3 only (paper Section 3.2) *)
  let set = Ms.of_list 6 [ 4; 5 ] in
  Alcotest.(check (list int)) "I1 and I3" [ 0; 2 ]
    (Activity.Rtl.instructions_using rtl set)

let test_rtl_validation () =
  Alcotest.check_raises "no instructions"
    (Invalid_argument "Rtl.make: need at least one instruction") (fun () ->
      ignore (Activity.Rtl.make ~n_modules:3 ~uses:[||] ()));
  Alcotest.check_raises "wrong universe"
    (Invalid_argument "Rtl.make: used-module set over wrong universe") (fun () ->
      ignore (Activity.Rtl.make ~n_modules:3 ~uses:[| Ms.empty 4 |] ()))

let test_rtl_avg_usage () =
  (* paper example: (4 + 2 + 3 + 2) / (4 * 6) = 11/24 *)
  check_float "avg usage" (11.0 /. 24.0)
    (Activity.Rtl.avg_usage_fraction Activity.Rtl.paper_example)

(* ------------------------------------------------------------------ *)
(* Instr_stream                                                       *)
(* ------------------------------------------------------------------ *)

let test_stream_basics () =
  let s = Activity.Instr_stream.paper_example in
  Alcotest.(check int) "20 cycles" 20 (Activity.Instr_stream.length s);
  let counts = Activity.Instr_stream.counts s in
  Alcotest.(check (array int)) "counts" [| 10; 5; 1; 4 |] counts

let test_stream_of_names_unknown () =
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Instr_stream.of_names: unknown instruction I9") (fun () ->
      ignore (Activity.Instr_stream.of_names Activity.Rtl.paper_example [ "I9" ]))

let test_stream_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Instr_stream.make: empty stream")
    (fun () -> ignore (Activity.Instr_stream.make Activity.Rtl.paper_example [||]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Instr_stream.make: instruction 7 out of range") (fun () ->
      ignore (Activity.Instr_stream.make Activity.Rtl.paper_example [| 7 |]))

let test_stream_active_modules () =
  let s = Activity.Instr_stream.paper_example in
  (* cycle 0 executes I1 *)
  Alcotest.(check (list int)) "cycle 0" [ 0; 1; 2; 4 ]
    (Ms.to_list (Activity.Instr_stream.active_modules s 0))

let test_stream_concat_slice_repeat () =
  let s = Activity.Instr_stream.paper_example in
  let doubled = Activity.Instr_stream.concat [ s; s ] in
  Alcotest.(check int) "concat length" 40 (Activity.Instr_stream.length doubled);
  Alcotest.(check int) "second copy aligned" (Activity.Instr_stream.get s 3)
    (Activity.Instr_stream.get doubled 23);
  let mid = Activity.Instr_stream.slice s ~pos:5 ~len:10 in
  Alcotest.(check int) "slice length" 10 (Activity.Instr_stream.length mid);
  Alcotest.(check int) "slice content" (Activity.Instr_stream.get s 5)
    (Activity.Instr_stream.get mid 0);
  let tripled = Activity.Instr_stream.repeat s 3 in
  Alcotest.(check int) "repeat length" 60 (Activity.Instr_stream.length tripled);
  (* statistics are invariant under repetition *)
  Alcotest.(check (float 1e-12)) "activity preserved"
    (Activity.Instr_stream.avg_active_fraction s)
    (Activity.Instr_stream.avg_active_fraction tripled)

let test_stream_utils_validation () =
  let s = Activity.Instr_stream.paper_example in
  Alcotest.check_raises "empty concat"
    (Invalid_argument "Instr_stream.concat: no streams") (fun () ->
      ignore (Activity.Instr_stream.concat []));
  Alcotest.check_raises "bad slice"
    (Invalid_argument "Instr_stream.slice: range outside the stream") (fun () ->
      ignore (Activity.Instr_stream.slice s ~pos:15 ~len:10));
  Alcotest.check_raises "zero repeat"
    (Invalid_argument "Instr_stream.repeat: need at least one copy") (fun () ->
      ignore (Activity.Instr_stream.repeat s 0))

(* ------------------------------------------------------------------ *)
(* Ift: paper Section 3.2 golden values                               *)
(* ------------------------------------------------------------------ *)

let paper_profile = Activity.Profile.paper_example

let test_ift_p_m1 () =
  (* "M1 appears in I1 and I2, and these two instructions occur 15 times in
     the stream, so P(M1) = 15/20 = 0.75" *)
  check_float "P(M1)" 0.75 (Activity.Profile.p_module paper_profile 0)

let test_ift_p_en_m5_m6 () =
  (* "I1 and I3 are such instructions, so P(EN) = P(M5 or M6) = 11/20 = 0.55" *)
  let set = Ms.of_list 6 [ 4; 5 ] in
  check_float "P(M5 or M6)" 0.55 (Activity.Profile.p paper_profile set)

let test_ift_probs_sum_to_one () =
  let ift = Activity.Profile.ift paper_profile in
  let total = ref 0.0 in
  for i = 0 to 3 do
    total := !total +. Activity.Ift.prob ift i
  done;
  check_float "sum" 1.0 !total

let test_ift_full_set () =
  (* every instruction uses some module, so P(any module) = 1 *)
  check_float "P(all)" 1.0 (Activity.Profile.p paper_profile (Ms.full 6))

let test_ift_empty_set () =
  check_float "P(none)" 0.0 (Activity.Profile.p paper_profile (Ms.empty 6))

let test_ift_of_counts_validation () =
  let rtl = Activity.Rtl.paper_example in
  Alcotest.check_raises "negative" (Invalid_argument "Ift.of_counts: negative count")
    (fun () -> ignore (Activity.Ift.of_counts rtl [| 1; -1; 0; 0 |]));
  Alcotest.check_raises "empty" (Invalid_argument "Ift.of_counts: empty table")
    (fun () -> ignore (Activity.Ift.of_counts rtl [| 0; 0; 0; 0 |]))

(* ------------------------------------------------------------------ *)
(* Imatt                                                              *)
(* ------------------------------------------------------------------ *)

let test_imatt_total_pairs () =
  let imatt = Activity.Profile.imatt paper_profile in
  Alcotest.(check int) "B-1 pairs" 19 (Activity.Imatt.total_pairs imatt)

let test_imatt_counts_sum () =
  let imatt = Activity.Profile.imatt paper_profile in
  let total =
    Array.fold_left (fun acc r -> acc + r.Activity.Imatt.count) 0
      (Activity.Imatt.rows imatt)
  in
  Alcotest.(check int) "rows sum to B-1" 19 total

let test_imatt_activation_tags () =
  let rtl = Activity.Rtl.paper_example in
  (* across I2 -> I3: M1 used by I2 only -> "10"; M5 used by I3 only -> "01";
     M4 used by I2 only -> "10"; M3 by neither -> "00" *)
  Alcotest.(check string) "M1 tag" "10"
    (Activity.Imatt.activation_tag rtl ~first:1 ~second:2 0);
  Alcotest.(check string) "M5 tag" "01"
    (Activity.Imatt.activation_tag rtl ~first:1 ~second:2 4);
  Alcotest.(check string) "M3 tag" "00"
    (Activity.Imatt.activation_tag rtl ~first:1 ~second:2 2);
  (* across I1 -> I1 every used module stays active *)
  Alcotest.(check string) "M1 stays" "11"
    (Activity.Imatt.activation_tag rtl ~first:0 ~second:0 0)

let test_imatt_toggles () =
  let rtl = Activity.Rtl.paper_example in
  let m56 = Ms.of_list 6 [ 4; 5 ] in
  (* I1 uses M5, I2 uses neither: the enable falls -> toggle *)
  Alcotest.(check bool) "I1->I2 toggles" true
    (Activity.Imatt.toggles rtl ~first:0 ~second:1 m56);
  (* I1 -> I3 both keep the enable high -> no toggle *)
  Alcotest.(check bool) "I1->I3 no toggle" false
    (Activity.Imatt.toggles rtl ~first:0 ~second:2 m56);
  (* I2 -> I4 both keep it low *)
  Alcotest.(check bool) "I2->I4 no toggle" false
    (Activity.Imatt.toggles rtl ~first:1 ~second:3 m56)

let test_imatt_ptr_paper_set () =
  (* golden value computed by hand from our concrete 20-cycle stream: the
     EN(M5,M6) waveform over instruction classes is high exactly on I1/I3
     cycles. Our stream: 1 2 4 1 3 1 2 1 1 2 4 1 2 4 1 1 2 1 4 1 ->
     high:  H L L H H H L H H L L H L L H H L H L H -> count boundaries
     where the level changes: positions (1,2):no ... count = 12 *)
  let imatt = Activity.Profile.imatt paper_profile in
  let stream = Activity.Profile.stream paper_profile in
  let m56 = Ms.of_list 6 [ 4; 5 ] in
  let expected = Activity.Brute.ptr stream m56 in
  check_float "ptr matches brute" expected (Activity.Imatt.ptr imatt m56);
  Alcotest.(check int) "transition count" 12
    (Activity.Brute.transition_count stream m56)

let test_imatt_single_cycle_rejected () =
  let s = Activity.Instr_stream.make Activity.Rtl.paper_example [| 0 |] in
  Alcotest.check_raises "too short"
    (Invalid_argument "Imatt.build: stream shorter than two cycles") (fun () ->
      ignore (Activity.Imatt.build s))

(* ------------------------------------------------------------------ *)
(* Table-driven = brute-force (the paper's key claim in Sec. 3.3)     *)
(* ------------------------------------------------------------------ *)

let random_rtl prng ~n_modules ~n_instr =
  let uses =
    Array.init n_instr (fun _ ->
        let s = ref (Ms.empty n_modules) in
        (* ensure non-empty usage and ~40% density *)
        s := Ms.add !s (Util.Prng.int prng n_modules);
        for m = 0 to n_modules - 1 do
          if Util.Prng.float prng 1.0 < 0.4 then s := Ms.add !s m
        done;
        !s)
  in
  Activity.Rtl.make ~n_modules ~uses ()

let random_set prng n =
  let s = ref (Ms.empty n) in
  for m = 0 to n - 1 do
    if Util.Prng.bool prng then s := Ms.add !s m
  done;
  !s

let prop_tables_match_brute =
  QCheck.Test.make ~name:"IFT/IMATT agree exactly with stream rescans" ~count:60
    QCheck.(pair (int_range 2 6) (int_range 1 1000))
    (fun (seed, len) ->
      let prng = Util.Prng.create seed in
      let rtl = random_rtl prng ~n_modules:10 ~n_instr:5 in
      let model = Activity.Cpu_model.make ~locality:0.3 rtl in
      let stream = Activity.Cpu_model.generate model prng (len + 1) in
      let profile = Activity.Profile.of_stream stream in
      let ok = ref true in
      for _ = 1 to 10 do
        let set = random_set prng 10 in
        let p_table = Activity.Profile.p profile set in
        let p_brute = Activity.Brute.p_any stream set in
        let ptr_table = Activity.Profile.ptr profile set in
        let ptr_brute = Activity.Brute.ptr stream set in
        if p_table <> p_brute || ptr_table <> ptr_brute then ok := false
      done;
      !ok)

let prop_p_monotone_in_set =
  QCheck.Test.make ~name:"P(EN) is monotone under set inclusion" ~count:100
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let rtl = random_rtl prng ~n_modules:12 ~n_instr:6 in
      let model = Activity.Cpu_model.make rtl in
      let profile =
        Activity.Profile.of_stream (Activity.Cpu_model.generate model prng 200)
      in
      let a = random_set prng 12 in
      let b = Ms.union a (random_set prng 12) in
      Activity.Profile.p profile a <= Activity.Profile.p profile b +. 1e-12)

let prop_ptr_bounded_by_2min =
  (* A signal with duty cycle p toggles at most min(2p, 2(1-p)) of the
     boundaries (each high interval contributes at most 2 toggles). *)
  QCheck.Test.make ~name:"Ptr(EN) <= 2 min(P, 1-P) + edge slack" ~count:100
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let rtl = random_rtl prng ~n_modules:8 ~n_instr:5 in
      let model = Activity.Cpu_model.make rtl in
      let stream = Activity.Cpu_model.generate model prng 400 in
      let profile = Activity.Profile.of_stream stream in
      let set = random_set prng 8 in
      let p = Activity.Profile.p profile set in
      let ptr = Activity.Profile.ptr profile set in
      let b = float_of_int (Activity.Instr_stream.length stream) in
      ptr <= (2.0 *. Float.min p (1.0 -. p)) +. (2.0 /. b) +. 1e-12)

(* ------------------------------------------------------------------ *)
(* Popcount, pair_count, Pcache                                       *)
(* ------------------------------------------------------------------ *)

let prop_ms_walk_matches_mem =
  QCheck.Test.make ~name:"fold/iter/to_list = ascending mem scan" ~count:200
    QCheck.(pair (oneofl [ 0; 1; 61; 62; 63; 124; 125 ]) (int_range 1 100_000))
    (fun (n, seed) ->
      let prng = Util.Prng.create seed in
      let s =
        match seed mod 4 with
        | 0 -> Ms.empty n
        | 1 -> Ms.full n
        | _ ->
          let density = Util.Prng.float prng 1.0 in
          let s = ref (Ms.empty n) in
          for m = 0 to n - 1 do
            if Util.Prng.float prng 1.0 < density then s := Ms.add !s m
          done;
          !s
      in
      let naive = List.filter (Ms.mem s) (List.init n Fun.id) in
      let iterated = ref [] in
      Ms.iter (fun m -> iterated := m :: !iterated) s;
      Ms.to_list s = naive
      && Ms.fold (fun m acc -> m :: acc) s [] = List.rev naive
      && !iterated = List.rev naive)

let prop_ms_popcount =
  (* Kernighan-loop cardinal vs. counting members one by one *)
  QCheck.Test.make ~name:"cardinal = membership count" ~count:200
    (QCheck.int_range 1 100_000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let n = 1 + Util.Prng.int prng 200 in
      let s = ref (Ms.empty n) in
      for m = 0 to n - 1 do
        if Util.Prng.bool prng then s := Ms.add !s m
      done;
      let by_mem = ref 0 in
      for m = 0 to n - 1 do
        if Ms.mem !s m then incr by_mem
      done;
      Ms.cardinal !s = !by_mem)

let prop_imatt_pair_count_matches_rows =
  (* binary search over the sorted rows vs. a linear scan *)
  QCheck.Test.make ~name:"pair_count = linear row scan" ~count:60
    (QCheck.int_range 1 100_000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let rtl = random_rtl prng ~n_modules:6 ~n_instr:7 in
      let model = Activity.Cpu_model.make rtl in
      let stream = Activity.Cpu_model.generate model prng 300 in
      let imatt = Activity.Imatt.build stream in
      let rows = Activity.Imatt.rows imatt in
      let linear first second =
        Array.fold_left
          (fun acc r ->
            if r.Activity.Imatt.first = first && r.Activity.Imatt.second = second
            then acc + r.Activity.Imatt.count
            else acc)
          0 rows
      in
      let ok = ref true in
      for first = 0 to 6 do
        for second = 0 to 6 do
          if Activity.Imatt.pair_count imatt ~first ~second <> linear first second
          then ok := false
        done
      done;
      !ok)

let test_pcache_matches_profile () =
  let cache = Activity.Pcache.create paper_profile in
  check_float "P(M5|M6)" 0.55 (Activity.Pcache.p cache (Ms.of_list 6 [ 4; 5 ]));
  check_float "P(M1)" 0.75 (Activity.Pcache.p cache (Ms.singleton 6 0))

let prop_pcache_matches_profile =
  QCheck.Test.make ~name:"Pcache.p = Profile.p" ~count:60
    (QCheck.int_range 1 100_000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let rtl = random_rtl prng ~n_modules:10 ~n_instr:5 in
      let model = Activity.Cpu_model.make rtl in
      let stream = Activity.Cpu_model.generate model prng 200 in
      let profile = Activity.Profile.of_stream stream in
      let cache = Activity.Pcache.create profile in
      List.for_all
        (fun _ ->
          let s = random_set prng 10 in
          Activity.Pcache.p cache s = Activity.Profile.p profile s)
        (List.init 50 Fun.id))

(* The handle holds no mutable state, so one handle may serve several
   domains at once; every domain gets the single-domain answers. *)
let test_pcache_two_domains () =
  let cache = Activity.Pcache.create paper_profile in
  let sets =
    Array.init 64 (fun i ->
        Ms.of_list 6 (List.filter (fun b -> i land (1 lsl b) <> 0) [ 0; 1; 2; 3; 4; 5 ]))
  in
  let expected = Array.map (Activity.Profile.p paper_profile) sets in
  let query () =
    let out = ref [||] in
    for _ = 1 to 50 do
      out := Array.map (Activity.Pcache.p cache) sets
    done;
    !out
  in
  let d = Domain.spawn query in
  let here = query () in
  let there = Domain.join d in
  Alcotest.(check (array (float 0.0))) "this domain" expected here;
  Alcotest.(check (array (float 0.0))) "other domain" expected there

(* ------------------------------------------------------------------ *)
(* Cpu_model                                                          *)
(* ------------------------------------------------------------------ *)

let test_cpu_model_deterministic () =
  let rtl = Activity.Rtl.paper_example in
  let model = Activity.Cpu_model.make ~locality:0.5 rtl in
  let a = Activity.Cpu_model.generate model (Util.Prng.create 7) 100 in
  let b = Activity.Cpu_model.generate model (Util.Prng.create 7) 100 in
  let eq = ref true in
  for i = 0 to 99 do
    if Activity.Instr_stream.get a i <> Activity.Instr_stream.get b i then eq := false
  done;
  Alcotest.(check bool) "same seed, same stream" true !eq

let test_cpu_model_weights () =
  let rtl = Activity.Rtl.paper_example in
  let model = Activity.Cpu_model.make ~weights:[| 1.0; 0.0; 0.0; 0.0 |] rtl in
  let s = Activity.Cpu_model.generate model (Util.Prng.create 3) 50 in
  let counts = Activity.Instr_stream.counts s in
  Alcotest.(check (array int)) "only I1" [| 50; 0; 0; 0 |] counts

let test_cpu_model_locality_lowers_ptr () =
  let rtl = Activity.Rtl.paper_example in
  let loose = Activity.Cpu_model.make ~locality:0.0 rtl in
  let tight = Activity.Cpu_model.make ~locality:0.9 rtl in
  let set = Ms.of_list 6 [ 4; 5 ] in
  let ptr_of model =
    let stream = Activity.Cpu_model.generate model (Util.Prng.create 11) 5000 in
    Activity.Brute.ptr stream set
  in
  Alcotest.(check bool) "locality lowers transition probability" true
    (ptr_of tight < ptr_of loose)

let test_cpu_model_validation () =
  let rtl = Activity.Rtl.paper_example in
  Alcotest.check_raises "bad locality"
    (Invalid_argument "Cpu_model.make: locality outside [0,1)") (fun () ->
      ignore (Activity.Cpu_model.make ~locality:1.0 rtl));
  Alcotest.check_raises "bad weights"
    (Invalid_argument "Cpu_model.make: weights length mismatch") (fun () ->
      ignore (Activity.Cpu_model.make ~weights:[| 1.0 |] rtl))

let test_zipf_weights () =
  let w = Activity.Cpu_model.zipf_weights Activity.Rtl.paper_example ~s:1.0 in
  check_float "first" 1.0 w.(0);
  check_float "second" 0.5 w.(1);
  check_float "fourth" 0.25 w.(3)

(* ------------------------------------------------------------------ *)
(* Markov: closed-form probabilities vs sampling                      *)
(* ------------------------------------------------------------------ *)

let test_markov_stationary () =
  let rtl = Activity.Rtl.paper_example in
  let model = Activity.Cpu_model.make ~weights:[| 2.0; 1.0; 1.0; 4.0 |] rtl in
  check_float "p(I1)" 0.25 (Activity.Markov.p_instruction model 0);
  check_float "p(I4)" 0.5 (Activity.Markov.p_instruction model 3)

let test_markov_p_any () =
  let rtl = Activity.Rtl.paper_example in
  let model = Activity.Cpu_model.make ~weights:[| 2.0; 1.0; 1.0; 4.0 |] rtl in
  (* M5 or M6 used by I1 (0.25) and I3 (0.125) *)
  let m56 = Ms.of_list 6 [ 4; 5 ] in
  check_float "P(M5|M6)" 0.375 (Activity.Markov.p_any model m56);
  check_float "P(all)" 1.0 (Activity.Markov.p_any model (Ms.full 6));
  check_float "P(none)" 0.0 (Activity.Markov.p_any model (Ms.empty 6))

let test_markov_ptr_closed_form () =
  let rtl = Activity.Rtl.paper_example in
  let model = Activity.Cpu_model.make ~locality:0.6 ~weights:[| 2.0; 1.0; 1.0; 4.0 |] rtl in
  let m56 = Ms.of_list 6 [ 4; 5 ] in
  (* 2 (1-lambda) q (1-q) with q = 0.375 *)
  check_float "Ptr" (2.0 *. 0.4 *. 0.375 *. 0.625) (Activity.Markov.ptr model m56);
  (* an always-on enable never toggles *)
  check_float "Ptr(all)" 0.0 (Activity.Markov.ptr model (Ms.full 6))

let test_markov_avg_activity () =
  let rtl = Activity.Rtl.paper_example in
  let model = Activity.Cpu_model.make rtl in
  (* uniform mix: mean of |uses|/6 = (4+2+3+2)/(4*6) *)
  check_float "avg activity" (11.0 /. 24.0) (Activity.Markov.avg_activity model)

(* ------------------------------------------------------------------ *)
(* Signature kernel = table scans, bit-for-bit                        *)
(* ------------------------------------------------------------------ *)

(* A kernel the build check accepted; every fresh build must pass it. *)
let sig_kernel ift imatt =
  match Activity.Signature.kernel ift imatt with
  | Some k -> k
  | None -> Alcotest.fail "Signature.kernel: check rejected a fresh kernel"

let prop_signature_matches_tables =
  QCheck.Test.make ~name:"Signature.p/ptr equal Ift.p_any/Imatt.ptr exactly"
    ~count:60
    QCheck.(pair (int_range 2 6) (int_range 2 800))
    (fun (seed, len) ->
      let prng = Util.Prng.create seed in
      let n_modules = 2 + Util.Prng.int prng 80 in
      let rtl = random_rtl prng ~n_modules ~n_instr:(1 + Util.Prng.int prng 8) in
      let model = Activity.Cpu_model.make ~locality:0.3 rtl in
      let stream = Activity.Cpu_model.generate model prng (len + 1) in
      let ift = Activity.Ift.build stream and imatt = Activity.Imatt.build stream in
      let kern = sig_kernel ift imatt in
      let ok = ref true in
      let check set =
        let s = Activity.Signature.of_set kern set in
        if
          Activity.Signature.p kern s <> Activity.Ift.p_any ift set
          || Activity.Signature.ptr kern s <> Activity.Imatt.ptr imatt set
        then ok := false
      in
      for _ = 1 to 10 do
        check (random_set prng n_modules)
      done;
      (* the degenerate sets must agree too *)
      check (Ms.empty n_modules);
      check (Ms.full n_modules);
      !ok)

let prop_signature_union_matches_materialized =
  QCheck.Test.make
    ~name:"Signature.p_union/ptr_union equal the materialized union" ~count:60
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let n_modules = 2 + Util.Prng.int prng 60 in
      let rtl = random_rtl prng ~n_modules ~n_instr:6 in
      let model = Activity.Cpu_model.make rtl in
      let stream = Activity.Cpu_model.generate model prng 300 in
      let ift = Activity.Ift.build stream and imatt = Activity.Imatt.build stream in
      let kern = sig_kernel ift imatt in
      let ok = ref true in
      for _ = 1 to 10 do
        let a = random_set prng n_modules and b = random_set prng n_modules in
        let sa = Activity.Signature.of_set kern a
        and sb = Activity.Signature.of_set kern b in
        let su = Activity.Signature.union sa sb in
        let u = Ms.union a b in
        (* union signature = signature of the union set, and the no-alloc
           p_union/ptr_union equal both the union signature's answers and
           the raw table scans *)
        if Activity.Signature.p_union kern sa sb <> Activity.Signature.p kern su
        then ok := false;
        if Activity.Signature.ptr_union kern sa sb <> Activity.Signature.ptr kern su
        then ok := false;
        if Activity.Signature.p_union kern sa sb <> Activity.Ift.p_any ift u then
          ok := false;
        if Activity.Signature.ptr_union kern sa sb <> Activity.Imatt.ptr imatt u
        then ok := false
      done;
      !ok)

(* Shared body for the batched-equivalence properties: every batched
   entry point must agree bit-for-bit with its scalar query and with the
   raw table scans, on every element. *)
let check_batches_match kern ift imatt sets sigs acc_set acc =
  let m = Array.length sigs in
  let out = Array.make m nan in
  let ok = ref true in
  Activity.Signature.p_batch kern sigs out;
  Array.iteri
    (fun i s ->
      if
        out.(i) <> Activity.Signature.p kern s
        || out.(i) <> Activity.Ift.p_any ift sets.(i)
      then ok := false)
    sigs;
  Activity.Signature.ptr_batch kern sigs out;
  Array.iteri
    (fun i s ->
      if
        out.(i) <> Activity.Signature.ptr kern s
        || out.(i) <> Activity.Imatt.ptr imatt sets.(i)
      then ok := false)
    sigs;
  Activity.Signature.p_union_batch kern acc sigs out;
  Array.iteri
    (fun i s ->
      if
        out.(i) <> Activity.Signature.p_union kern acc s
        || out.(i) <> Activity.Ift.p_any ift (Ms.union acc_set sets.(i))
      then ok := false)
    sigs;
  (* a partial batch must leave the tail of [out] untouched *)
  if m > 1 then begin
    let out2 = Array.make m (-1.0) in
    Activity.Signature.p_batch kern ~n:(m - 1) sigs out2;
    if out2.(m - 1) <> -1.0 then ok := false;
    if out2.(0) <> Activity.Signature.p kern sigs.(0) then ok := false
  end;
  !ok

let prop_signature_batch_matches_scalar =
  QCheck.Test.make
    ~name:"batched p/ptr/p_union equal scalar queries and table scans"
    ~count:40
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let n_modules = 2 + Util.Prng.int prng 60 in
      let rtl = random_rtl prng ~n_modules ~n_instr:(1 + Util.Prng.int prng 10) in
      let model = Activity.Cpu_model.make rtl in
      let stream = Activity.Cpu_model.generate model prng 400 in
      let ift = Activity.Ift.build stream and imatt = Activity.Imatt.build stream in
      let kern = sig_kernel ift imatt in
      let m = 1 + Util.Prng.int prng 7 in
      let sets = Array.init m (fun _ -> random_set prng n_modules) in
      let sigs = Array.map (Activity.Signature.of_set kern) sets in
      let acc_set = random_set prng n_modules in
      let acc = Activity.Signature.of_set kern acc_set in
      check_batches_match kern ift imatt sets sigs acc_set acc)

let prop_signature_set_algebra_matches_naive =
  QCheck.Test.make
    ~name:"subset/symm_diff equal naive Module_set scans"
    ~count:30
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let n_modules = 2 + Util.Prng.int prng 60 in
      let n_instr = 1 + Util.Prng.int prng 70 in
      let rtl = random_rtl prng ~n_modules ~n_instr in
      let model = Activity.Cpu_model.make rtl in
      let stream = Activity.Cpu_model.generate model prng 300 in
      let ift = Activity.Ift.build stream and imatt = Activity.Imatt.build stream in
      let kc = sig_kernel ift imatt in
      (* The naive reference walks the RTL: instruction [i] hits set [s]
         iff its used-module set intersects [s]. *)
      let hit s i = Ms.intersects (Activity.Rtl.uses rtl i) s in
      let naive_subset a b =
        let rec go i =
          i >= n_instr || ((not (hit a i)) || hit b i) && go (i + 1)
        in
        go 0
      in
      let naive_symm_diff a b =
        let acc = ref 0 in
        for i = 0 to n_instr - 1 do
          if hit a i <> hit b i then incr acc
        done;
        !acc
      in
      let m = 2 + Util.Prng.int prng 5 in
      let sets = Array.init m (fun _ -> random_set prng n_modules) in
      (* include a guaranteed-subset pair so the true branch is exercised *)
      sets.(1) <- Ms.union sets.(0) sets.(1);
      let sigs = Array.map (Activity.Signature.of_set kc) sets in
      let ok = ref true in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              let sa = sigs.(i) and sb = sigs.(j) in
              if Activity.Signature.subset kc sa sb <> naive_subset a b then
                ok := false;
              if
                Activity.Signature.symm_diff_count kc sa sb
                <> naive_symm_diff a b
              then ok := false)
            sets)
        sets;
      let anchor = sigs.(0) in
      let sub_c = Array.make m false and diff_c = Array.make m (-1) in
      Activity.Signature.subset_batch kc anchor sigs sub_c;
      Activity.Signature.symm_diff_batch kc anchor sigs diff_c;
      Array.iteri
        (fun i s ->
          if sub_c.(i) <> Activity.Signature.subset kc anchor s then ok := false;
          if diff_c.(i) <> Activity.Signature.symm_diff_count kc anchor s then
            ok := false)
        sigs;
      (* partial batches leave the tail untouched *)
      if m > 1 then begin
        let sub2 = Array.make m false and diff2 = Array.make m (-1) in
        Activity.Signature.subset_batch kc anchor ~n:(m - 1) sigs sub2;
        Activity.Signature.symm_diff_batch kc anchor ~n:(m - 1) sigs diff2;
        if sub2.(m - 1) <> false || diff2.(m - 1) <> -1 then ok := false
      end;
      !ok)

let prop_signature_word_boundary =
  QCheck.Test.make
    ~name:"signature kernels agree across the 62-bit word boundary" ~count:12
    QCheck.(pair (oneofl [ 60; 61; 62; 63; 64; 124 ]) (int_range 1 10_000))
    (fun (k_instr, seed) ->
      let prng = Util.Prng.create seed in
      let n_modules = 10 + Util.Prng.int prng 40 in
      let rtl = random_rtl prng ~n_modules ~n_instr:k_instr in
      (* low locality and a long stream so the IMATT row count also
         crosses a word boundary, not just the instruction count *)
      let model = Activity.Cpu_model.make ~locality:0.1 rtl in
      let stream = Activity.Cpu_model.generate model prng 3_000 in
      let ift = Activity.Ift.build stream and imatt = Activity.Imatt.build stream in
      let kern = sig_kernel ift imatt in
      let m = 4 in
      let sets = Array.init m (fun _ -> random_set prng n_modules) in
      let sigs = Array.map (Activity.Signature.of_set kern) sets in
      let acc_set = random_set prng n_modules in
      let acc = Activity.Signature.of_set kern acc_set in
      check_batches_match kern ift imatt sets sigs acc_set acc)

let test_signature_single_instruction () =
  (* one-instruction RTL: every non-empty intersecting set has P = 1,
     Ptr = 0 — the smallest edge the bitset layout must survive *)
  let uses = [| Ms.of_list 3 [ 0; 2 ] |] in
  let rtl = Activity.Rtl.make ~n_modules:3 ~uses () in
  let stream = Activity.Instr_stream.make rtl [| 0; 0; 0; 0 |] in
  let ift = Activity.Ift.build stream and imatt = Activity.Imatt.build stream in
  let kern = sig_kernel ift imatt in
  let s_hit = Activity.Signature.of_set kern (Ms.singleton 3 0) in
  check_float "P hit" 1.0 (Activity.Signature.p kern s_hit);
  check_float "Ptr hit" 0.0 (Activity.Signature.ptr kern s_hit);
  let s_miss = Activity.Signature.of_set kern (Ms.singleton 3 1) in
  check_float "P miss" 0.0 (Activity.Signature.p kern s_miss);
  check_float "Ptr miss" 0.0 (Activity.Signature.ptr kern s_miss)

let test_signature_universe_mismatch () =
  let profile = Activity.Profile.paper_example in
  let kern =
    match Activity.Profile.signature_kernel profile with
    | Some k -> k
    | None -> Alcotest.fail "sampled profile must expose a kernel"
  in
  Alcotest.check_raises "universe mismatch"
    (Invalid_argument "Signature.of_set: universe mismatch") (fun () ->
      ignore (Activity.Signature.of_set kern (Ms.empty 3)))

let test_signature_check_own_tables () =
  (* Two streams over one RTL, with the same instruction pairs but
     different counts: each kernel answers its own tables and no one
     else's. *)
  let uses = [| Ms.of_list 4 [ 0 ]; Ms.of_list 4 [ 1 ]; Ms.of_list 4 [ 2; 3 ] |] in
  let rtl = Activity.Rtl.make ~n_modules:4 ~uses () in
  let tables arr =
    let stream = Activity.Instr_stream.make rtl arr in
    (Activity.Ift.build stream, Activity.Imatt.build stream)
  in
  let ift_a, imatt_a = tables [| 0; 0; 1; 1; 2; 2; 0 |]
  and ift_b, imatt_b = tables [| 0; 0; 0; 1; 1; 2; 2; 2; 2; 0 |] in
  let ka = sig_kernel ift_a imatt_a and kb = sig_kernel ift_b imatt_b in
  let check what want k ift imatt =
    Alcotest.(check bool) what want (Activity.Signature.check k ift imatt)
  in
  check "A's kernel on A's tables" true ka ift_a imatt_a;
  check "B's kernel on B's tables" true kb ift_b imatt_b;
  check "A's kernel on B's tables" false ka ift_b imatt_b;
  check "B's kernel on A's tables" false kb ift_a imatt_a;
  (* Same pairs, new counts: the in-place patch, checked on the way out,
     answers B's tables and no longer A's. *)
  (match Activity.Signature.patch_kernel ka ift_b imatt_b with
  | Some k ->
    check "patched kernel on B's tables" true k ift_b imatt_b;
    check "patched kernel on A's tables" false k ift_a imatt_a
  | None -> Alcotest.fail "a counts-only update was not patched")

let test_signature_kernel_cached () =
  let profile = Activity.Profile.paper_example in
  (match
     ( Activity.Profile.signature_kernel profile,
       Activity.Profile.signature_kernel profile )
   with
  | Some a, Some b -> Alcotest.(check bool) "same kernel" true (a == b)
  | _ -> Alcotest.fail "sampled profile must expose a kernel");
  let analytic =
    Activity.Profile.of_model
      (Activity.Cpu_model.make (Activity.Profile.rtl profile))
  in
  Alcotest.(check bool)
    "analytic has none" true
    (Activity.Profile.signature_kernel analytic = None)

let prop_markov_matches_sampling =
  QCheck.Test.make ~name:"sampled tables converge to the closed forms" ~count:10
    (QCheck.int_range 1 1000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let rtl = random_rtl prng ~n_modules:8 ~n_instr:5 in
      let locality = Util.Prng.float prng 0.8 in
      let weights = Array.init 5 (fun _ -> 0.2 +. Util.Prng.float prng 1.0) in
      let model = Activity.Cpu_model.make ~locality ~weights rtl in
      let stream = Activity.Cpu_model.generate model (Util.Prng.create (seed + 1)) 60_000 in
      let profile = Activity.Profile.of_stream stream in
      let set = random_set prng 8 in
      let dp = Float.abs (Activity.Profile.p profile set -. Activity.Markov.p_any model set) in
      let dptr = Float.abs (Activity.Profile.ptr profile set -. Activity.Markov.ptr model set) in
      dp < 0.02 && dptr < 0.02)

(* ------------------------------------------------------------------ *)
(* of_set's transposed tables = the definitions, word for word        *)
(* ------------------------------------------------------------------ *)

(* A signature straight from the definitions, using nothing but
   [Rtl.uses] and [Imatt.rows]: bit [i] of [hits] iff uses(I_i) meets the
   set; row [r]'s NOW/NEXT bits are the hits of its first/second
   instruction. *)
let reference_signature rtl imatt set =
  let words n = max 1 ((n + 61) / 62) in
  let set_bit ws i = ws.(i / 62) <- ws.(i / 62) lor (1 lsl (i mod 62)) in
  let k = Activity.Rtl.n_instructions rtl in
  let hit = Array.init k (fun i -> Ms.intersects (Activity.Rtl.uses rtl i) set) in
  let hits = Array.make (words k) 0 in
  Array.iteri (fun i h -> if h then set_bit hits i) hit;
  let rows = Activity.Imatt.rows imatt in
  let now = Array.make (words (Array.length rows)) 0
  and next = Array.make (words (Array.length rows)) 0 in
  Array.iteri
    (fun r (row : Activity.Imatt.row) ->
      if hit.(row.first) then set_bit now r;
      if hit.(row.second) then set_bit next r)
    rows;
  { Activity.Signature.hits; now; next; tog = Array.map2 ( lxor ) now next }

let prop_signature_of_set_matches_definition =
  QCheck.Test.make
    ~name:"Signature.of_set words = use-set and row scan (also patched)"
    ~count:80
    QCheck.(triple (int_range 1 130) (int_range 1 150) (int_range 1 100_000))
    (fun (k, n_modules, seed) ->
      let prng = Util.Prng.create seed in
      (* The top [unused] modules are in no use set; some instructions
         use nothing at all. *)
      let unused = Util.Prng.int prng ((n_modules / 3) + 1) in
      let density = 0.02 +. Util.Prng.float prng 0.3 in
      let uses =
        Array.init k (fun _ ->
            let s = ref (Ms.empty n_modules) in
            if Util.Prng.float prng 1.0 >= 0.15 then
              for m = 0 to n_modules - unused - 1 do
                if Util.Prng.float prng 1.0 < density then s := Ms.add !s m
              done;
            !s)
      in
      let rtl = Activity.Rtl.make ~n_modules ~uses () in
      (* A uniform stream, so K > 62 and n_rows > 62 both occur. *)
      let len = 2 + Util.Prng.int prng 1500 in
      let x =
        Activity.Instr_stream.make rtl (Array.init len (fun _ -> Util.Prng.int prng k))
      in
      (* [x; x] already holds the pair [last x -> first x], so appending
         a prefix of [x] moves counts only: the patch path. *)
      let base = Activity.Instr_stream.concat [ x; x ] in
      let grown =
        Activity.Instr_stream.concat
          [ base; Activity.Instr_stream.slice x ~pos:0 ~len:(1 + Util.Prng.int prng len) ]
      in
      let tables s = (Activity.Ift.build s, Activity.Imatt.build s) in
      let ift, imatt = tables base in
      let kern = sig_kernel ift imatt in
      let sets =
        [ Ms.empty n_modules; Ms.full n_modules;
          Ms.of_list n_modules
            (List.init unused (fun j -> n_modules - 1 - j));
          Ms.singleton n_modules (Util.Prng.int prng n_modules) ]
        @ List.init 6 (fun _ -> random_set prng n_modules)
      in
      let agree kern imatt =
        List.for_all
          (fun set ->
            Activity.Signature.of_set kern set = reference_signature rtl imatt set)
          sets
      in
      agree kern imatt
      &&
      let ift', imatt' = tables grown in
      match Activity.Signature.patch_kernel kern ift' imatt' with
      | Some kern' -> agree kern' imatt'
      | None -> QCheck.Test.fail_report "a counts-only update was not patched")

(* ------------------------------------------------------------------ *)
(* Streaming accumulation (Stream_update) and patched kernels         *)
(* ------------------------------------------------------------------ *)

let check_tables_equal ~what rtl acc whole =
  let k = Activity.Rtl.n_instructions rtl in
  let ift_a = Activity.Stream_update.ift acc and ift_w = Activity.Ift.build whole in
  Alcotest.(check int)
    (what ^ ": total cycles")
    (Activity.Ift.total_cycles ift_w)
    (Activity.Ift.total_cycles ift_a);
  for i = 0 to k - 1 do
    Alcotest.(check int)
      (Printf.sprintf "%s: IFT count of instr %d" what i)
      (Activity.Ift.count ift_w i) (Activity.Ift.count ift_a i)
  done;
  let im_a = Activity.Stream_update.imatt acc
  and im_w = Activity.Imatt.build whole in
  Alcotest.(check int)
    (what ^ ": total pairs")
    (Activity.Imatt.total_pairs im_w)
    (Activity.Imatt.total_pairs im_a);
  for first = 0 to k - 1 do
    for second = 0 to k - 1 do
      Alcotest.(check int)
        (Printf.sprintf "%s: pair (%d,%d)" what first second)
        (Activity.Imatt.pair_count im_w ~first ~second)
        (Activity.Imatt.pair_count im_a ~first ~second)
    done
  done

let test_stream_update_chunk_shapes () =
  let rtl = Activity.Rtl.paper_example in
  let trace = [| 0; 1; 2; 0; 1; 0; 3; 2; 1 |] in
  let whole = Activity.Instr_stream.make rtl trace in
  let acc = Activity.Stream_update.create rtl in
  Alcotest.(check int) "fresh accumulator" 0
    (Activity.Stream_update.total_cycles acc);
  Activity.Stream_update.ingest acc [||];
  Alcotest.(check int) "empty chunk is a no-op" 0
    (Activity.Stream_update.total_cycles acc);
  (* A single-instruction chunk contributes one hit count; its boundary
     pair (0,1) appears with the next chunk — the NOW/NEXT pair split
     across the boundary is counted exactly once. *)
  Activity.Stream_update.ingest acc [| 0 |];
  Alcotest.(check int) "one cycle" 1 (Activity.Stream_update.total_cycles acc);
  Activity.Stream_update.ingest acc [| 1; 2; 0 |];
  Activity.Stream_update.ingest acc [||];
  Activity.Stream_update.ingest acc [| 1; 0; 3 |];
  (* replays already-seen instructions: only counts move, no new rows *)
  Activity.Stream_update.ingest acc [| 2; 1 |];
  check_tables_equal ~what:"chunked" rtl acc whole;
  Alcotest.(check int) "distinct pairs = IMATT rows"
    (Array.length (Activity.Imatt.rows (Activity.Imatt.build whole)))
    (Activity.Stream_update.distinct_pairs acc);
  let s = Activity.Stream_update.stream acc in
  Alcotest.(check int) "stream length" (Array.length trace)
    (Activity.Instr_stream.length s);
  Array.iteri
    (fun i v ->
      Alcotest.(check int)
        (Printf.sprintf "stream cycle %d" i)
        v
        (Activity.Instr_stream.get s i))
    trace

let test_stream_update_validation () =
  let rtl = Activity.Rtl.paper_example in
  let acc = Activity.Stream_update.create rtl in
  Alcotest.check_raises "ift before ingest"
    (Invalid_argument "Stream_update.ift: no cycles ingested") (fun () ->
      ignore (Activity.Stream_update.ift acc));
  Alcotest.check_raises "stream before ingest"
    (Invalid_argument "Stream_update.stream: no cycles ingested") (fun () ->
      ignore (Activity.Stream_update.stream acc));
  Activity.Stream_update.ingest acc [| 3 |];
  Alcotest.check_raises "imatt needs two cycles"
    (Invalid_argument "Stream_update.imatt: fewer than two cycles ingested")
    (fun () -> ignore (Activity.Stream_update.imatt acc));
  (* Validation happens before any mutation: a rejected chunk leaves the
     accumulator exactly where it was. *)
  Alcotest.check_raises "out-of-range instruction"
    (Invalid_argument "Stream_update.ingest: instruction 7 out of range")
    (fun () -> Activity.Stream_update.ingest acc [| 0; 7 |]);
  Alcotest.(check int) "rejected chunk left no trace" 1
    (Activity.Stream_update.total_cycles acc);
  Activity.Stream_update.ingest acc [| 0 |];
  check_tables_equal ~what:"post-rejection" rtl acc
    (Activity.Instr_stream.make rtl [| 3; 0 |]);
  let other = random_rtl (Util.Prng.create 5) ~n_modules:6 ~n_instr:7 in
  Alcotest.check_raises "rtl mismatch"
    (Invalid_argument "Stream_update.ingest_stream: mismatched RTL") (fun () ->
      Activity.Stream_update.ingest_stream acc
        (Activity.Instr_stream.make other [| 0 |]))

let prop_stream_update_patch_matches_scratch =
  QCheck.Test.make
    ~name:"patched signature kernel = from-scratch build (P/Ptr bit-for-bit)"
    ~count:40
    QCheck.(pair (int_range 1 10_000) (int_range 4 300))
    (fun (seed, len) ->
      let prng = Util.Prng.create seed in
      let rtl = random_rtl prng ~n_modules:9 ~n_instr:5 in
      let model = Activity.Cpu_model.make ~locality:0.3 rtl in
      let stream = Activity.Cpu_model.generate model prng len in
      let arr =
        Array.init (Activity.Instr_stream.length stream)
          (Activity.Instr_stream.get stream)
      in
      let acc = Activity.Stream_update.create rtl in
      (* Ingest in irregular chunks, demanding a patched profile after
         every chunk so the kernel alternates between the in-place arena
         patch (only counts moved) and the rebuild (new pairs appeared). *)
      let pos = ref 0 in
      while !pos < Array.length arr do
        let left = Array.length arr - !pos in
        let step = 1 + Util.Prng.int prng (Int.min left 7) in
        Activity.Stream_update.ingest acc (Array.sub arr !pos step);
        pos := !pos + step;
        if Activity.Stream_update.total_cycles acc >= 2 then
          ignore (Activity.Stream_update.profile acc)
      done;
      (* a replayed prefix moves only counts: the pure patch path *)
      let replay = Int.min 5 (Array.length arr) in
      Activity.Stream_update.ingest acc (Array.sub arr 0 replay);
      let patched = Activity.Stream_update.profile acc in
      let whole =
        Activity.Instr_stream.concat
          [ stream; Activity.Instr_stream.slice stream ~pos:0 ~len:replay ]
      in
      let scratch = Activity.Profile.of_stream whole in
      let kern p =
        match Activity.Profile.signature_kernel p with
        | Some k -> k
        | None -> QCheck.Test.fail_report "profile lost its kernel"
      in
      let kp = kern patched and ks = kern scratch in
      let ok = ref true in
      for _ = 1 to 12 do
        let set = random_set prng 9 in
        let sp = Activity.Signature.of_set kp set
        and ss = Activity.Signature.of_set ks set in
        if
          Activity.Signature.p kp sp <> Activity.Signature.p ks ss
          || Activity.Signature.ptr kp sp <> Activity.Signature.ptr ks ss
          || Activity.Signature.p kp sp <> Activity.Brute.p_any whole set
          || Activity.Signature.ptr kp sp <> Activity.Brute.ptr whole set
        then ok := false
      done;
      !ok)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "activity"
    [
      ( "module_set",
        [
          Alcotest.test_case "empty/full" `Quick test_ms_empty_full;
          Alcotest.test_case "add/mem" `Quick test_ms_add_mem;
          Alcotest.test_case "immutability" `Quick test_ms_add_immutable;
          Alcotest.test_case "bounds" `Quick test_ms_bounds;
          Alcotest.test_case "set ops" `Quick test_ms_set_ops;
          Alcotest.test_case "universe mismatch" `Quick test_ms_universe_mismatch;
          Alcotest.test_case "large universe" `Quick test_ms_large_universe;
          Alcotest.test_case "equal/hash" `Quick test_ms_equal_hash;
          qt prop_ms_union_cardinal;
          qt prop_ms_intersects_consistent;
          qt prop_ms_diff_disjoint;
          qt prop_ms_popcount;
          qt prop_ms_walk_matches_mem;
        ] );
      ( "rtl",
        [
          Alcotest.test_case "paper example" `Quick test_rtl_paper_example;
          Alcotest.test_case "instructions_using" `Quick test_rtl_instructions_using;
          Alcotest.test_case "validation" `Quick test_rtl_validation;
          Alcotest.test_case "avg usage" `Quick test_rtl_avg_usage;
        ] );
      ( "instr_stream",
        [
          Alcotest.test_case "basics" `Quick test_stream_basics;
          Alcotest.test_case "unknown name" `Quick test_stream_of_names_unknown;
          Alcotest.test_case "validation" `Quick test_stream_validation;
          Alcotest.test_case "active modules" `Quick test_stream_active_modules;
          Alcotest.test_case "concat/slice/repeat" `Quick test_stream_concat_slice_repeat;
          Alcotest.test_case "utils validation" `Quick test_stream_utils_validation;
        ] );
      ( "ift",
        [
          Alcotest.test_case "P(M1)=0.75 (paper)" `Quick test_ift_p_m1;
          Alcotest.test_case "P(M5|M6)=0.55 (paper)" `Quick test_ift_p_en_m5_m6;
          Alcotest.test_case "probs sum to 1" `Quick test_ift_probs_sum_to_one;
          Alcotest.test_case "full set" `Quick test_ift_full_set;
          Alcotest.test_case "empty set" `Quick test_ift_empty_set;
          Alcotest.test_case "of_counts validation" `Quick test_ift_of_counts_validation;
        ] );
      ( "imatt",
        [
          Alcotest.test_case "total pairs" `Quick test_imatt_total_pairs;
          Alcotest.test_case "counts sum" `Quick test_imatt_counts_sum;
          Alcotest.test_case "activation tags" `Quick test_imatt_activation_tags;
          Alcotest.test_case "toggles" `Quick test_imatt_toggles;
          Alcotest.test_case "ptr golden" `Quick test_imatt_ptr_paper_set;
          Alcotest.test_case "single cycle rejected" `Quick test_imatt_single_cycle_rejected;
          qt prop_imatt_pair_count_matches_rows;
        ] );
      ( "pcache",
        [
          Alcotest.test_case "paper values" `Quick test_pcache_matches_profile;
          Alcotest.test_case "two domains, one handle" `Quick test_pcache_two_domains;
          qt prop_pcache_matches_profile;
        ] );
      ( "stream_update",
        [
          Alcotest.test_case "chunk shapes" `Quick test_stream_update_chunk_shapes;
          Alcotest.test_case "validation" `Quick test_stream_update_validation;
          qt prop_stream_update_patch_matches_scratch;
        ] );
      ( "tables_vs_brute",
        [ qt prop_tables_match_brute; qt prop_p_monotone_in_set; qt prop_ptr_bounded_by_2min ] );
      ( "signature",
        [
          qt prop_signature_matches_tables;
          qt prop_signature_union_matches_materialized;
          qt prop_signature_batch_matches_scalar;
          qt prop_signature_set_algebra_matches_naive;
          qt prop_signature_word_boundary;
          qt prop_signature_of_set_matches_definition;
          Alcotest.test_case "single instruction" `Quick test_signature_single_instruction;
          Alcotest.test_case "universe mismatch" `Quick test_signature_universe_mismatch;
          Alcotest.test_case "kernel cached" `Quick test_signature_kernel_cached;
          Alcotest.test_case "check: own tables only" `Quick test_signature_check_own_tables;
        ] );
      ( "markov",
        [
          Alcotest.test_case "stationary" `Quick test_markov_stationary;
          Alcotest.test_case "p_any" `Quick test_markov_p_any;
          Alcotest.test_case "ptr closed form" `Quick test_markov_ptr_closed_form;
          Alcotest.test_case "avg activity" `Quick test_markov_avg_activity;
          qt prop_markov_matches_sampling;
        ] );
      ( "cpu_model",
        [
          Alcotest.test_case "deterministic" `Quick test_cpu_model_deterministic;
          Alcotest.test_case "weights" `Quick test_cpu_model_weights;
          Alcotest.test_case "locality lowers ptr" `Quick test_cpu_model_locality_lowers_ptr;
          Alcotest.test_case "validation" `Quick test_cpu_model_validation;
          Alcotest.test_case "zipf" `Quick test_zipf_weights;
        ] );
    ]
