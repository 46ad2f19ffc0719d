let active stream t set = Module_set.intersects (Instr_stream.active_modules stream t) set

let active_count stream set =
  let b = Instr_stream.length stream in
  let hits = ref 0 in
  for t = 0 to b - 1 do
    if active stream t set then incr hits
  done;
  !hits

let p_any stream set =
  float_of_int (active_count stream set) /. float_of_int (Instr_stream.length stream)

let transition_count stream set =
  let b = Instr_stream.length stream in
  if b < 2 then invalid_arg "Brute.transition_count: stream shorter than two cycles";
  let hits = ref 0 in
  for t = 0 to b - 2 do
    if active stream t set <> active stream (t + 1) set then incr hits
  done;
  !hits

let ptr stream set =
  float_of_int (transition_count stream set)
  /. float_of_int (Instr_stream.length stream - 1)
