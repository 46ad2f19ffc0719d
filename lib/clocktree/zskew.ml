type branch = { delay : float; cap : float; gate : Tech.gate option }

type side = No_snake | Snake_a | Snake_b

type split = {
  ea : float;
  eb : float;
  merged_delay : float;
  merged_cap : float;
  snaked : side;
}

(* Delay through a branch as a polynomial in the wire length e:
   D(e) = base + lin*e + quad*e^2. The coefficients are plain floats
   here so that [lengths_into] builds no tuple; [coeffs] packs them for
   the polynomial view. *)
let[@inline] base (gate : Tech.gate option) ~delay ~cap =
  match gate with
  | None -> delay
  | Some g -> delay +. g.Tech.intrinsic_delay +. (g.Tech.drive_res *. cap)

let[@inline] lin (tech : Tech.t) (gate : Tech.gate option) ~cap =
  let r = tech.unit_res in
  match gate with
  | None -> r *. cap
  | Some g -> (r *. cap) +. (g.Tech.drive_res *. tech.unit_cap)

let[@inline] quad (tech : Tech.t) = tech.unit_res *. tech.unit_cap /. 2.0

let coeffs tech b =
  (base b.gate ~delay:b.delay ~cap:b.cap, lin tech b.gate ~cap:b.cap, quad tech)

let[@inline] eval3 base lin quad e = base +. (lin *. e) +. (quad *. e *. e)

let eval (base, lin, quad) e = eval3 base lin quad e

let branch_delay tech b e = eval (coeffs tech b) e

let branch_head_cap (tech : Tech.t) b e =
  match b.gate with
  | Some g -> g.Tech.input_cap
  | None -> (tech.unit_cap *. e) +. b.cap

(* Smallest e >= 0 with base + lin*e + quad*e^2 = target, assuming
   target >= base and lin, quad >= 0 (delay grows with wire length). *)
let[@inline] solve3 base lin quad target =
  let rhs = target -. base in
  if rhs <= 0.0 then 0.0
  else if quad <= 0.0 then
    if lin <= 0.0 then
      invalid_arg "Zskew: cannot snake with zero wire parasitics"
    else rhs /. lin
  else
    let disc = (lin *. lin) +. (4.0 *. quad *. rhs) in
    ((-.lin) +. sqrt disc) /. (2.0 *. quad)

let delay_poly = coeffs

let wire_for_delay (base, lin, quad) target = solve3 base lin quad target

(* Float.max by plain comparisons: Stdlib's is an out-of-line call that
   boxes both operands. Equal to it on every pair, signed zeros and NaN
   included. *)
let[@inline] fmax (a : float) b =
  if a > b then a
  else if b > a then b
  else if a = b then if Float.sign_bit a then b else a
  else a +. b

let check_dist dist =
  if dist < 0.0 || not (Float.is_finite dist) then
    invalid_arg "Zskew.split: negative or non-finite distance"

(* The zero-skew balance, the one copy of its arithmetic: with the
   coefficients (a0, a1, q) and (b0, b1, q) of the two branches, write
   the wire lengths ea and eb into [lengths.(0)] and [lengths.(1)] and
   return the side that snaked. Inlined into [split] and
   [lengths_into], so neither boxes a float. *)
let[@inline] balance a0 a1 b0 b1 q ~dist (lengths : float array) =
  (* Balance point of D_a(x) = D_b(dist - x); the quadratic terms cancel. *)
  let denom = a1 +. b1 +. (2.0 *. q *. dist) in
  let x =
    if denom <= 0.0 then if a0 <= b0 then dist else 0.0
    else (b0 -. a0 +. (b1 *. dist) +. (q *. dist *. dist)) /. denom
  in
  if x < 0.0 then begin
    (* Branch a is too slow even with no wire: elongate b's wire. *)
    lengths.(0) <- 0.0;
    lengths.(1) <- fmax dist (solve3 b0 b1 q (eval3 a0 a1 q 0.0));
    Snake_b
  end
  else if x > dist then begin
    lengths.(0) <- fmax dist (solve3 a0 a1 q (eval3 b0 b1 q 0.0));
    lengths.(1) <- 0.0;
    Snake_a
  end
  else begin
    lengths.(0) <- x;
    lengths.(1) <- dist -. x;
    No_snake
  end

let split tech a b ~dist =
  check_dist dist;
  let a0 = base a.gate ~delay:a.delay ~cap:a.cap and a1 = lin tech a.gate ~cap:a.cap in
  let b0 = base b.gate ~delay:b.delay ~cap:b.cap and b1 = lin tech b.gate ~cap:b.cap in
  let q = quad tech in
  let lengths = [| 0.0; 0.0 |] in
  let snaked = balance a0 a1 b0 b1 q ~dist lengths in
  let ea = lengths.(0) and eb = lengths.(1) in
  {
    ea;
    eb;
    merged_delay = eval3 a0 a1 q ea;
    merged_cap = branch_head_cap tech a ea +. branch_head_cap tech b eb;
    snaked;
  }

let lengths_into tech gate ~(delay : float array) ~(cap : float array) a b ~dist
    (lengths : float array) =
  check_dist dist;
  let a0 = base gate ~delay:delay.(a) ~cap:cap.(a) and a1 = lin tech gate ~cap:cap.(a) in
  let b0 = base gate ~delay:delay.(b) ~cap:cap.(b) and b1 = lin tech gate ~cap:cap.(b) in
  ignore (balance a0 a1 b0 b1 (quad tech) ~dist lengths : side)
