(* Tests for the Util support library: PRNG determinism, the binary heap
   used by the greedy merge engines, statistics and table rendering. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Util.Prng.create 42 and b = Util.Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Prng.bits64 a) (Util.Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Util.Prng.create 1 and b = Util.Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Util.Prng.bits64 a <> Util.Prng.bits64 b)

let test_prng_copy () =
  let a = Util.Prng.create 7 in
  let _ = Util.Prng.bits64 a in
  let b = Util.Prng.copy a in
  Alcotest.(check int64) "copy continues stream" (Util.Prng.bits64 a)
    (Util.Prng.bits64 b)

let test_prng_split_independent () =
  let a = Util.Prng.create 9 in
  let b = Util.Prng.split a in
  Alcotest.(check bool) "split differs from parent" true
    (Util.Prng.bits64 a <> Util.Prng.bits64 b)

let test_prng_int_range () =
  let g = Util.Prng.create 3 in
  for _ = 1 to 1000 do
    let x = Util.Prng.int g 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_prng_int_invalid () =
  let g = Util.Prng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Util.Prng.int g 0))

let test_prng_float_range () =
  let g = Util.Prng.create 4 in
  for _ = 1 to 1000 do
    let x = Util.Prng.float g 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_prng_float_mean () =
  let g = Util.Prng.create 5 in
  let xs = Array.init 20_000 (fun _ -> Util.Prng.float g 1.0) in
  let m = Util.Stats.mean xs in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (m -. 0.5) < 0.01)

let test_prng_choose_weighted () =
  let g = Util.Prng.create 6 in
  let w = [| 1.0; 0.0; 3.0 |] in
  let counts = [| 0; 0; 0 |] in
  for _ = 1 to 10_000 do
    let i = Util.Prng.choose_weighted g w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight index never drawn" 0 counts.(1);
  let ratio = float_of_int counts.(2) /. float_of_int counts.(0) in
  Alcotest.(check bool) "3:1 ratio approximately" true (ratio > 2.6 && ratio < 3.4)

let test_prng_choose_weighted_invalid () =
  let g = Util.Prng.create 6 in
  Alcotest.check_raises "all-zero weights"
    (Invalid_argument "Prng.choose_weighted: non-positive total") (fun () ->
      ignore (Util.Prng.choose_weighted g [| 0.0; 0.0 |]))

let test_prng_shuffle_permutation () =
  let g = Util.Prng.create 8 in
  let a = Array.init 50 Fun.id in
  Util.Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Bin_heap                                                           *)
(* ------------------------------------------------------------------ *)

let test_heap_empty () =
  let h = Util.Bin_heap.create () in
  Alcotest.(check bool) "empty" true (Util.Bin_heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Util.Bin_heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Util.Bin_heap.peek h = None)

let test_heap_single () =
  let h = Util.Bin_heap.create () in
  Util.Bin_heap.push h 3.14 42;
  Alcotest.(check int) "length" 1 (Util.Bin_heap.length h);
  (match Util.Bin_heap.peek h with
  | Some (k, p) ->
    check_float "peek key" 3.14 k;
    Alcotest.(check int) "peek payload" 42 p
  | None -> Alcotest.fail "expected peek");
  (match Util.Bin_heap.pop h with
  | Some (k, p) ->
    check_float "pop key" 3.14 k;
    Alcotest.(check int) "pop payload" 42 p
  | None -> Alcotest.fail "expected pop");
  Alcotest.(check bool) "empty after pop" true (Util.Bin_heap.is_empty h)

let test_heap_ordering () =
  let h = Util.Bin_heap.create ~capacity:2 () in
  List.iter (fun (k, p) -> Util.Bin_heap.push h k p)
    [ (5.0, 5); (1.0, 1); (4.0, 4); (2.0, 2); (3.0, 3) ];
  let order = List.init 5 (fun _ ->
      match Util.Bin_heap.pop h with Some (_, p) -> p | None -> -1)
  in
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 4; 5 ] order

let test_heap_clear () =
  let h = Util.Bin_heap.create () in
  Util.Bin_heap.push h 1.0 1;
  Util.Bin_heap.push h 2.0 2;
  Util.Bin_heap.clear h;
  Alcotest.(check bool) "cleared" true (Util.Bin_heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.0) small_nat))
    (fun entries ->
      let h = Util.Bin_heap.create () in
      List.iter (fun (k, p) -> Util.Bin_heap.push h k p) entries;
      let rec drain acc =
        match Util.Bin_heap.pop h with
        | Some (k, _) -> drain (k :: acc)
        | None -> List.rev acc
      in
      let keys = drain [] in
      List.length keys = List.length entries
      && keys = List.sort compare keys)

let prop_heap_multiset =
  QCheck.Test.make ~name:"heap preserves the pushed multiset" ~count:200
    QCheck.(list (pair (float_bound_exclusive 100.0) small_nat))
    (fun entries ->
      let h = Util.Bin_heap.create () in
      List.iter (fun (k, p) -> Util.Bin_heap.push h k p) entries;
      let rec drain acc =
        match Util.Bin_heap.pop h with
        | Some kp -> drain (kp :: acc)
        | None -> acc
      in
      let out = drain [] in
      List.sort compare out = List.sort compare entries)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_stats_mean () =
  check_float "mean" 2.5 (Util.Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "empty mean" 0.0 (Util.Stats.mean [||])

let test_stats_variance () =
  check_float "variance" 1.25 (Util.Stats.variance [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "constant" 0.0 (Util.Stats.variance [| 5.0; 5.0; 5.0 |])

let test_stats_median () =
  check_float "odd" 2.0 (Util.Stats.median [| 3.0; 1.0; 2.0 |]);
  check_float "even" 2.5 (Util.Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_stats_min_max () =
  let lo, hi = Util.Stats.min_max [| 3.0; -1.0; 7.0 |] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.0 hi

let test_stats_percentile () =
  let a = [| 0.0; 10.0 |] in
  check_float "p0" 0.0 (Util.Stats.percentile a 0.0);
  check_float "p50" 5.0 (Util.Stats.percentile a 50.0);
  check_float "p100" 10.0 (Util.Stats.percentile a 100.0)

let test_stats_geometric_mean () =
  check_float "gmean" 2.0 (Util.Stats.geometric_mean [| 1.0; 2.0; 4.0 |])

(* ------------------------------------------------------------------ *)
(* Text_table                                                         *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Util.Text_table.create ~title:"T" [ ("name", Util.Text_table.Left); ("v", Util.Text_table.Right) ] in
  Util.Text_table.add_row t [ "alpha"; "1" ];
  Util.Text_table.add_float_row t ~decimals:1 "beta" [ 2.25 ];
  let s = Util.Text_table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "mentions alpha" true
    (Astring.String.is_infix ~affix:"alpha" s);
  Alcotest.(check bool) "rounds beta" true
    (Astring.String.is_infix ~affix:"2.2" s || Astring.String.is_infix ~affix:"2.3" s)

let test_table_arity () =
  let t = Util.Text_table.create [ ("a", Util.Text_table.Left) ] in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Text_table.add_row: arity mismatch") (fun () ->
      Util.Text_table.add_row t [ "x"; "y" ])

(* ------------------------------------------------------------------ *)
(* Parallel                                                           *)
(* ------------------------------------------------------------------ *)

(* The contract under test: results are a pure function of (n, f), never
   of the domain count — slot i always holds f i. *)
let test_parallel_init_matches_sequential () =
  let f i = (i * 31) land 1023 in
  let expect = Array.init 1000 f in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "init, %d domains" d)
        expect
        (Util.Parallel.init ~domains:d 1000 f))
    [ 1; 2; 4 ]

let test_parallel_for_disjoint_slots () =
  List.iter
    (fun d ->
      let out = Array.make 777 (-1) in
      Util.Parallel.parallel_for ~domains:d ~n:777 (fun i -> out.(i) <- i * i);
      Alcotest.(check (array int))
        (Printf.sprintf "parallel_for, %d domains" d)
        (Array.init 777 (fun i -> i * i))
        out)
    [ 1; 2; 4 ]

let test_parallel_map () =
  let src = Array.init 300 (fun i -> float_of_int i /. 7.0) in
  let expect = Array.map sqrt src in
  List.iter
    (fun d ->
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "map, %d domains" d)
        expect
        (Util.Parallel.map ~domains:d sqrt src))
    [ 1; 2; 4 ]

let test_parallel_small_and_empty () =
  Alcotest.(check (array int)) "empty" [||] (Util.Parallel.init ~domains:4 0 (fun i -> i));
  Alcotest.(check (array int))
    "below spawn threshold" (Array.init 5 succ)
    (Util.Parallel.init ~domains:4 5 succ)

let test_parallel_propagates_exceptions () =
  Alcotest.check_raises "worker failure reraised" (Failure "boom") (fun () ->
      Util.Parallel.parallel_for ~domains:2 ~n:100 (fun i ->
          if i = 63 then failwith "boom"))

(* map_dyn schedules largest-first from a shared cursor; the contract is
   that scheduling never leaks into the result: out.(i) = f arr.(i)
   whatever the domain count or the (possibly lying) weight function. *)
let test_map_dyn_matches_map () =
  let src = Array.init 203 (fun i -> (i * 37) mod 101) in
  let f x = (x * x) + 7 in
  let expect = Array.map f src in
  List.iter
    (fun d ->
      (* honest weight, constant weight, adversarially inverted weight *)
      List.iter
        (fun (label, weight) ->
          Alcotest.(check (array int))
            (Printf.sprintf "map_dyn %s, %d domains" label d)
            expect
            (Util.Parallel.map_dyn ~domains:d ~weight f src))
        [
          ("weight=x", fun x -> x);
          ("weight=const", fun _ -> 1);
          ("weight=-x", fun x -> -x);
        ])
    [ 1; 2; 4 ]

let test_map_dyn_empty_and_single () =
  Alcotest.(check (array int))
    "empty" [||]
    (Util.Parallel.map_dyn ~domains:4 ~weight:(fun x -> x) succ [||]);
  Alcotest.(check (array int))
    "single" [| 42 |]
    (Util.Parallel.map_dyn ~domains:4 ~weight:(fun x -> x) succ [| 41 |])

let test_map_dyn_propagates_exceptions () =
  let src = Array.init 64 Fun.id in
  Alcotest.check_raises "worker failure reraised" (Failure "dyn-boom")
    (fun () ->
      ignore
        (Util.Parallel.map_dyn ~domains:2 ~weight:Fun.id
           (fun i -> if i = 17 then failwith "dyn-boom" else i)
           src))

let prop_map_dyn_equals_map =
  QCheck.Test.make ~name:"map_dyn = map for any weights and domain count"
    ~count:100
    QCheck.(pair (list small_int) (int_range 1 4))
    (fun (xs, domains) ->
      let src = Array.of_list xs in
      let f x = (x * 2654435761) land 0xffff in
      Util.Parallel.map_dyn ~domains ~weight:(fun x -> x land 7) f src
      = Array.map f src)

(* ------------------------------------------------------------------ *)
(* Obs                                                                *)
(* ------------------------------------------------------------------ *)

let test_obs_clock_monotonic () =
  let prev = ref (Util.Obs.Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Util.Obs.Clock.now () in
    Alcotest.(check bool) "never decreases" true (t >= !prev);
    prev := t
  done;
  let a = Util.Obs.Clock.now_ns () in
  let b = Util.Obs.Clock.now_ns () in
  Alcotest.(check bool) "ns never decreases" true (Int64.compare b a >= 0)

let test_obs_counters () =
  let c = Util.Obs.counter "test.obs.basic" in
  let (), report =
    Util.Obs.run (fun () ->
        Util.Obs.incr c;
        Util.Obs.add c 4)
  in
  Alcotest.(check int) "value" 5 (Util.Obs.value c);
  Alcotest.(check (option int))
    "in report" (Some 5)
    (List.assoc_opt "test.obs.basic" report.Util.Obs.counters)

let test_obs_disabled_noop () =
  (* the suite may itself run traced (GCR_TRACE=1 in CI), so force the
     disabled state rather than assuming it *)
  let prev = Util.Obs.enabled () in
  Util.Obs.set_enabled false;
  Util.Obs.reset ();
  let c = Util.Obs.counter "test.obs.noop" in
  let g = Util.Obs.gauge "test.obs.noop_gauge" in
  Util.Obs.incr c;
  Util.Obs.set g 7.0;
  let r = Util.Obs.span ~name:"test.noop" (fun () -> 41 + 1) in
  Alcotest.(check int) "span is transparent" 42 r;
  let report = Util.Obs.snapshot () in
  Util.Obs.set_enabled prev;
  Alcotest.(check int) "no counters" 0 (List.length report.Util.Obs.counters);
  Alcotest.(check int) "no gauges" 0 (List.length report.Util.Obs.gauges);
  Alcotest.(check int) "no spans" 0 (List.length report.Util.Obs.spans)

let test_obs_span_nesting () =
  let (), report =
    Util.Obs.run (fun () ->
        Util.Obs.span ~name:"outer" (fun () ->
            Util.Obs.span ~name:"inner" (fun () -> ());
            Util.Obs.span ~name:"inner" (fun () -> ())))
  in
  match report.Util.Obs.spans with
  | [ outer ] ->
    Alcotest.(check string) "outer name" "outer" outer.Util.Obs.name;
    Alcotest.(check int) "outer calls" 1 outer.Util.Obs.calls;
    (match outer.Util.Obs.children with
    | [ inner ] ->
      Alcotest.(check string) "inner name" "inner" inner.Util.Obs.name;
      Alcotest.(check int) "same-name siblings aggregate" 2
        inner.Util.Obs.calls;
      Alcotest.(check bool) "child time <= parent time" true
        (inner.Util.Obs.time_s <= outer.Util.Obs.time_s)
    | kids ->
      Alcotest.failf "expected one aggregated child, got %d" (List.length kids))
  | spans -> Alcotest.failf "expected one top-level span, got %d" (List.length spans)

let test_obs_span_exception_unwind () =
  let (), report =
    Util.Obs.run (fun () ->
        (try
           Util.Obs.span ~name:"a" (fun () ->
               Util.Obs.span ~name:"b" (fun () -> failwith "unwind"))
         with Failure _ -> ());
        (* if the stack did not unwind, "c" would nest under "a"/"b" *)
        Util.Obs.span ~name:"c" (fun () -> ()))
  in
  let names = List.map (fun s -> s.Util.Obs.name) report.Util.Obs.spans in
  Alcotest.(check (list string)) "c is top-level after the raise" [ "a"; "c" ]
    names;
  match report.Util.Obs.spans with
  | [ a; _c ] ->
    Alcotest.(check int) "a still recorded its call" 1 a.Util.Obs.calls;
    (match a.Util.Obs.children with
    | [ b ] -> Alcotest.(check int) "b recorded before raising" 1 b.Util.Obs.calls
    | kids -> Alcotest.failf "expected b under a, got %d kids" (List.length kids))
  | _ -> Alcotest.fail "unexpected span shape"

(* A span counts the same words however the collector's work falls: the
   same computation reads the same count before and after a full major
   collection, though the list outgrows the minor heap and is promoted. *)
let test_obs_span_words_deterministic () =
  let words () =
    let kept, report =
      Util.Obs.run (fun () ->
          Util.Obs.span ~name:"work" (fun () ->
              List.init 100_000 (fun i -> float_of_int i)))
    in
    ignore (Sys.opaque_identity kept);
    match report.Util.Obs.spans with
    | [ s ] -> s.Util.Obs.alloc_words
    | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)
  in
  let first = words () in
  Gc.full_major ();
  let second = words () in
  Alcotest.(check (float 0.0)) "same words both times" first second;
  Alcotest.(check bool) "the list is counted" true (first >= 500_000.0)

(* The one JSON string writer: every ASCII byte reads back unchanged. *)
let test_obs_json_string_writer () =
  let s = String.init 128 Char.chr in
  let b = Buffer.create 256 in
  Util.Obs.Json.add_string b s;
  match Util.Obs.Json.parse (Buffer.contents b) with
  | Ok (Util.Obs.Json.Str s') -> Alcotest.(check string) "round trip" s s'
  | Ok _ -> Alcotest.fail "not a string"
  | Error m -> Alcotest.failf "unparsable: %s" m

let test_obs_parallel_counter_totals () =
  let c = Util.Obs.counter "test.obs.par" in
  let n = 1000 in
  let total domains =
    let (), report =
      Util.Obs.run (fun () ->
          Util.Parallel.parallel_for ~domains ~n (fun _ -> Util.Obs.incr c))
    in
    Option.value
      (List.assoc_opt "test.obs.par" report.Util.Obs.counters)
      ~default:0
  in
  List.iter
    (fun d ->
      Alcotest.(check int)
        (Printf.sprintf "total with %d domains" d)
        n (total d))
    [ 1; 4 ]

let test_obs_json_round_trip () =
  let report =
    {
      Util.Obs.spans =
        [
          {
            Util.Obs.name = "route";
            calls = 2;
            time_s = 0.12345678901234567;
            alloc_words = 1.5e9;
            children =
              [
                {
                  Util.Obs.name = "odd \"name\"\n\twith\\escapes";
                  calls = 1;
                  time_s = 1e-9;
                  alloc_words = 0.0;
                  children = [];
                };
              ];
          };
        ];
      (* counters decode through a float, so stay within its 2^53 exact
         integer range *)
      counters = [ ("a.b", 7); ("z", 1 lsl 52) ];
      gauges = [ ("g", -0.25); ("h", 3.141592653589793) ];
    }
  in
  match Util.Obs.of_json (Util.Obs.to_json report) with
  | Ok got -> Alcotest.(check bool) "round-trips exactly" true (got = report)
  | Error msg -> Alcotest.failf "of_json failed: %s" msg

let test_obs_json_rejects_garbage () =
  List.iter
    (fun text ->
      match Util.Obs.of_json text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed input %S" text)
    [ ""; "{"; "[1,2]"; "{\"version\":99,\"spans\":[],\"counters\":{},\"gauges\":{}}";
      "{\"version\":1}"; "{\"version\":1,\"spans\":[],\"counters\":{},\"gauges\":{}}x" ]

(* ------------------------------------------------------------------ *)
(* Popcnt                                                             *)
(* ------------------------------------------------------------------ *)

let test_popcnt_edges () =
  List.iter
    (fun (x, expect) ->
      Alcotest.(check int) (Printf.sprintf "count %d" x) expect (Util.Popcnt.count x))
    [
      (0, 0);
      (1, 1);
      (-1, Sys.int_size);
      (min_int, 1);
      (max_int, Sys.int_size - 1);
      (0b1011, 3);
    ]

let prop_popcnt_stub_matches_ocaml =
  QCheck.Test.make ~name:"Popcnt.stub_count = count_ocaml on all inputs"
    ~count:1000
    QCheck.(
      oneof [ int; oneofl [ 0; 1; -1; min_int; max_int; 1 lsl 62; -2 ] ])
    (fun x ->
      Util.Popcnt.count_ocaml x = Util.Popcnt.stub_count x
      && Util.Popcnt.count x = Util.Popcnt.count_ocaml x)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "popcnt",
        [
          Alcotest.test_case "edge inputs" `Quick test_popcnt_edges;
          qt prop_popcnt_stub_matches_ocaml;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "float mean" `Quick test_prng_float_mean;
          Alcotest.test_case "choose_weighted" `Quick test_prng_choose_weighted;
          Alcotest.test_case "choose_weighted invalid" `Quick test_prng_choose_weighted_invalid;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
        ] );
      ( "bin_heap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "single" `Quick test_heap_single;
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          qt prop_heap_sorts;
          qt prop_heap_multiset;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "min_max" `Quick test_stats_min_max;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "geometric mean" `Quick test_stats_geometric_mean;
        ] );
      ( "text_table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "init = sequential" `Quick
            test_parallel_init_matches_sequential;
          Alcotest.test_case "parallel_for disjoint slots" `Quick
            test_parallel_for_disjoint_slots;
          Alcotest.test_case "map" `Quick test_parallel_map;
          Alcotest.test_case "small and empty" `Quick test_parallel_small_and_empty;
          Alcotest.test_case "exceptions propagate" `Quick
            test_parallel_propagates_exceptions;
          Alcotest.test_case "map_dyn = map" `Quick test_map_dyn_matches_map;
          Alcotest.test_case "map_dyn empty and single" `Quick
            test_map_dyn_empty_and_single;
          Alcotest.test_case "map_dyn exceptions propagate" `Quick
            test_map_dyn_propagates_exceptions;
          qt prop_map_dyn_equals_map;
        ] );
      ( "obs",
        [
          Alcotest.test_case "clock monotonic" `Quick test_obs_clock_monotonic;
          Alcotest.test_case "counters" `Quick test_obs_counters;
          Alcotest.test_case "disabled is a no-op" `Quick test_obs_disabled_noop;
          Alcotest.test_case "span nesting" `Quick test_obs_span_nesting;
          Alcotest.test_case "span exception unwind" `Quick
            test_obs_span_exception_unwind;
          Alcotest.test_case "counters under domains" `Quick
            test_obs_parallel_counter_totals;
          Alcotest.test_case "json round trip" `Quick test_obs_json_round_trip;
          Alcotest.test_case "json rejects garbage" `Quick
            test_obs_json_rejects_garbage;
          Alcotest.test_case "span words are deterministic" `Quick
            test_obs_span_words_deterministic;
          Alcotest.test_case "json string writer" `Quick
            test_obs_json_string_writer;
        ] );
    ]
