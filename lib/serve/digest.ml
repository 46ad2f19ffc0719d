(* FNV-1a, 64-bit: well-mixed, dependency-free, and trivially stable
   across architectures — the digest rides the wire protocol, so it must
   never depend on word size or hash-function versioning. *)

let fnv_offset = 0xcbf29ce484222325L

let fnv_prime = 0x100000001b3L

type state = { mutable h : int64 }

let start () = { h = fnv_offset }

let value st = st.h

(* The one FNV-1a step every byte goes through. *)
let[@inline] mix h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let byte st b = st.h <- mix st.h b

(* A local accumulator keeps the loop free of boxed int64 stores. *)
let string st s =
  let h = ref st.h in
  for i = 0 to String.length s - 1 do
    h := mix !h (Char.code (String.unsafe_get s i))
  done;
  st.h <- !h

let i64 st v =
  for k = 0 to 7 do
    byte st (Int64.to_int (Int64.shift_right_logical v (8 * k)))
  done

let int st v = i64 st (Int64.of_int v)

(* [same_tree] compares floats with [<>], under which [0. = -0.]; the
   bit patterns differ, so canonicalize. NaNs never pass the oracle and
   need no canonical form. *)
let float st v =
  i64 st (Int64.bits_of_float (if v = 0.0 then 0.0 else v))

let bool st v = byte st (if v then 1 else 0)

let set st s =
  int st (Activity.Module_set.cardinal s);
  Activity.Module_set.iter (fun m -> int st m) s

let enable st (e : Gcr.Enable.t) =
  set st e.Gcr.Enable.mods;
  float st e.Gcr.Enable.p;
  float st e.Gcr.Enable.ptr

let tree (t : Gcr.Gated_tree.t) =
  let st = start () in
  let topo = t.Gcr.Gated_tree.topo in
  let n = Clocktree.Topo.n_nodes topo in
  int st n;
  int st (Clocktree.Topo.root topo);
  float st t.Gcr.Gated_tree.skew_budget;
  (match t.Gcr.Gated_tree.sharing with
  | None -> byte st 0
  | Some (mi, eps) ->
    byte st 1;
    int st mi;
    int st eps);
  bool st t.Gcr.Gated_tree.test_en;
  for v = 0 to n - 1 do
    (match Clocktree.Topo.children topo v with
    | None -> int st (-1)
    | Some (a, b) ->
      int st a;
      int st b);
    byte st
      (match t.Gcr.Gated_tree.kind.(v) with
      | Gcr.Gated_tree.Plain -> 0
      | Gcr.Gated_tree.Buffered -> 1
      | Gcr.Gated_tree.Gated -> 2);
    int st t.Gcr.Gated_tree.governing.(v);
    float st t.Gcr.Gated_tree.scale.(v);
    enable st t.Gcr.Gated_tree.enables.(v);
    let loc = Clocktree.Embed.loc t.Gcr.Gated_tree.embed v in
    float st loc.Geometry.Point.x;
    float st loc.Geometry.Point.y;
    float st (Clocktree.Embed.edge_len t.Gcr.Gated_tree.embed v);
    int st t.Gcr.Gated_tree.share_rep.(v);
    enable st t.Gcr.Gated_tree.shared_enables.(v);
    bool st t.Gcr.Gated_tree.bypass.(v)
  done;
  value st

let to_hex h = Printf.sprintf "%016Lx" h

let of_hex s =
  let hex_digit c =
    (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  in
  if String.length s <> 16 || not (String.for_all hex_digit s) then None
  else Int64.of_string_opt ("0x" ^ s)
