(** CPU workload presets: RTL descriptions and instruction-stream models
    whose statistics match the paper's evaluation setup.

    The paper reports an average of about 40% of modules used per
    instruction ([Ave(M(I))]) and generates streams from a probabilistic
    model of a CPU running typical programs. Crucially, real module
    activities are {e clustered}: a functional unit's registers clock
    together, and instructions exercise whole units. We therefore model
    modules as contiguous {e groups} (functional units); an instruction
    uses a few always-on "core" groups plus each remaining group with a
    probability tuned to hit the target average activity, and within a
    used group most modules are active. Without this correlation the OR of
    even a handful of independent 40%-active modules saturates to 1 and no
    gating scheme — the paper's included — could save anything above the
    leaves. *)

val group_of : n_modules:int -> n_groups:int -> int -> int
(** Group of a module id: contiguous blocks ([m * n_groups / n_modules]).
    Shared with {!Rbench} so spatial clusters match activity clusters. *)

val default_groups : int -> int
(** Default group count for a module universe: one group per ~24 modules,
    clamped to [4..16] and never above the module count (a universe of
    [n < 4] modules gets [n] groups) — a chip has a bounded number of
    functional units; on bigger dies the units themselves grow, and it is
    precisely those large correlated clusters that keep enable
    probabilities low high up the tree. *)

val make_rtl :
  n_modules:int ->
  n_instructions:int ->
  usage:float ->
  ?n_groups:int ->
  ?within_density:float ->
  ?core_fraction:float ->
  seed:int ->
  unit ->
  Activity.Rtl.t
(** Random grouped RTL with expected average module activity [usage].
    [within_density] (default 0.9) is the chance a module of a used group
    is active; [core_fraction] (default 0.1) the fraction of groups used
    by every instruction. Raises [Invalid_argument] on parameters outside
    their ranges (usage in (0,1], within_density in (0,1], core_fraction
    in [0,1), n_groups in [1, n_modules]). *)

val cpu_model :
  ?zipf_s:float -> ?locality:float -> Activity.Rtl.t -> Activity.Cpu_model.t
(** Zipf instruction mix (default s = 1.1) with locality 0.7 — real
    streams are bursty (loops), which lowers enable transition rates. *)

val profile :
  n_modules:int ->
  ?n_instructions:int ->
  ?usage:float ->
  ?n_groups:int ->
  ?within_density:float ->
  ?core_fraction:float ->
  ?stream_length:int ->
  ?locality:float ->
  seed:int ->
  unit ->
  Activity.Profile.t
(** End-to-end preset: grouped RTL (default 32 instructions, usage 0.4) ->
    CPU model -> stream (default 10,000 cycles) -> profile. *)
