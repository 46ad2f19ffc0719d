(* Off: tables_only, or a kernel that failed Signature.check. *)
type kernel_state = Unbuilt | Built of Signature.kernel | Off

type t =
  | Sampled of {
      stream : Instr_stream.t;
      ift : Ift.t;
      imatt : Imatt.t;
      mutable kernel : kernel_state;
    }
  | Analytic of Cpu_model.t

let of_stream stream =
  Sampled
    {
      stream;
      ift = Ift.build stream;
      imatt = Imatt.build stream;
      kernel = Unbuilt;
    }

let of_tables ?kernel stream ift imatt =
  let rtl = Instr_stream.rtl stream in
  if
    Rtl.n_modules (Ift.rtl ift) <> Rtl.n_modules rtl
    || Rtl.n_instructions (Ift.rtl ift) <> Rtl.n_instructions rtl
    || Rtl.n_modules (Imatt.rtl imatt) <> Rtl.n_modules rtl
    || Rtl.n_instructions (Imatt.rtl imatt) <> Rtl.n_instructions rtl
  then invalid_arg "Profile.of_tables: tables built from a different RTL";
  let kernel = match kernel with Some k -> Built k | None -> Unbuilt in
  Sampled { stream; ift; imatt; kernel }

let of_model model = Analytic model

let generate model ~seed ~length =
  let prng = Util.Prng.create seed in
  of_stream (Cpu_model.generate model prng length)

let rtl = function
  | Sampled { stream; _ } -> Instr_stream.rtl stream
  | Analytic model -> Cpu_model.rtl model

let is_analytic = function Sampled _ -> false | Analytic _ -> true

let stream = function
  | Sampled { stream; _ } -> stream
  | Analytic _ ->
    invalid_arg "Profile.stream: analytic profile has no instruction stream"

let ift = function
  | Sampled { ift; _ } -> ift
  | Analytic _ -> invalid_arg "Profile.ift: analytic profile has no tables"

let imatt = function
  | Sampled { imatt; _ } -> imatt
  | Analytic _ -> invalid_arg "Profile.imatt: analytic profile has no tables"

let n_modules t = Rtl.n_modules (rtl t)

let p t set =
  match t with
  | Sampled { ift; _ } -> Ift.p_any ift set
  | Analytic model -> Markov.p_any model set

let ptr t set =
  match t with
  | Sampled { imatt; _ } -> Imatt.ptr imatt set
  | Analytic model -> Markov.ptr model set

let p_module t m = p t (Module_set.singleton (n_modules t) m)

let signature_kernel = function
  | Analytic _ -> None
  | Sampled s -> (
    match s.kernel with
    | Built k -> Some k
    | Off -> None
    | Unbuilt ->
      let k = Signature.kernel s.ift s.imatt in
      s.kernel <- (match k with Some k -> Built k | None -> Off);
      k)

let tables_only = function
  | Analytic _ as t -> t
  | Sampled s ->
    Sampled { stream = s.stream; ift = s.ift; imatt = s.imatt; kernel = Off }

let avg_activity = function
  | Sampled { stream; _ } -> Instr_stream.avg_active_fraction stream
  | Analytic model -> Markov.avg_activity model

let paper_example = of_stream Instr_stream.paper_example
