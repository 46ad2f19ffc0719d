type t = { id : int; loc : Geometry.Point.t; cap : float; module_id : int }

let make ~id ~loc ~cap ~module_id =
  if id < 0 then invalid_arg "Sink.make: negative id";
  if module_id < 0 then invalid_arg "Sink.make: negative module_id";
  if cap <= 0.0 || not (Float.is_finite cap) then
    invalid_arg "Sink.make: load capacitance must be positive";
  { id; loc; cap; module_id }

let validate_array sinks =
  if Array.length sinks = 0 then invalid_arg "Sink.validate_array: no sinks";
  Array.iteri
    (fun i s ->
      if s.id <> i then
        invalid_arg (Printf.sprintf "Sink.validate_array: sink %d has id %d" i s.id))
    sinks

let subset sinks idxs =
  Array.mapi
    (fun j gi ->
      let s = sinks.(gi) in
      make ~id:j ~loc:s.loc ~cap:s.cap ~module_id:s.module_id)
    idxs

let pp ppf s =
  Format.fprintf ppf "sink %d @@ %a (%.1f fF, module %d)" s.id Geometry.Point.pp
    s.loc s.cap s.module_id
