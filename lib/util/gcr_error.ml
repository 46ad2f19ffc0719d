type t =
  | Parse of { file : string; line : int; col : int; msg : string }
  | Degenerate_input of { what : string; detail : string }
  | Numerical of { stage : string; value : float; context : string }
  | Resource_limit of { stage : string; limit : string; detail : string }
  | Engine_mismatch of { stage : string; detail : string }
  | Internal of { stage : string; detail : string }

exception Error of t

let raise_t t = raise (Error t)

let degenerate ~what fmt =
  Printf.ksprintf (fun detail -> raise_t (Degenerate_input { what; detail })) fmt

let numerical ~stage ~value fmt =
  Printf.ksprintf (fun context -> raise_t (Numerical { stage; value; context })) fmt

let mismatch ~stage fmt =
  Printf.ksprintf (fun detail -> raise_t (Engine_mismatch { stage; detail })) fmt

let internal ~stage fmt =
  Printf.ksprintf (fun detail -> raise_t (Internal { stage; detail })) fmt

let to_string = function
  | Parse { file; line; col; msg } ->
    if col > 0 then Printf.sprintf "%s:%d:%d: %s" file line col msg
    else if line > 0 then Printf.sprintf "%s:%d: %s" file line msg
    else Printf.sprintf "%s: %s" file msg
  | Degenerate_input { what; detail } ->
    Printf.sprintf "degenerate input (%s): %s" what detail
  | Numerical { stage; value; context } ->
    Printf.sprintf "numerical fault in %s: %s (value %.17g)" stage context value
  | Resource_limit { stage; limit; detail } ->
    Printf.sprintf "resource limit in %s: %s exceeded — %s" stage limit detail
  | Engine_mismatch { stage; detail } ->
    Printf.sprintf "engine mismatch in %s: %s" stage detail
  | Internal { stage; detail } -> Printf.sprintf "internal error in %s: %s" stage detail

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* BSD sysexits: usage errors (64) are the CLI's to report; everything the
   library can diagnose is either bad input data (65), an internal
   inconsistency (70) or an exhausted budget (75). A numerical fault is an
   internal failure: the input was accepted, the pipeline produced a
   non-finite or inconsistent value. *)
let exit_code = function
  | Parse _ | Degenerate_input _ -> 65
  | Numerical _ | Engine_mismatch _ | Internal _ -> 70
  | Resource_limit _ -> 75

let of_exn ~stage = function
  | Error t -> t
  (* Every [Invalid_argument] in the libraries guards a precondition on the
     values handed in (empty sink arrays, non-positive tech parameters,
     out-of-range module ids …), so a stray one reaching a stage boundary is
     a data error, not a library bug. *)
  | Invalid_argument detail -> Degenerate_input { what = stage; detail }
  | Failure detail -> Internal { stage; detail }
  | Stack_overflow -> Resource_limit { stage; limit = "stack"; detail = "stack overflow" }
  | Out_of_memory -> Resource_limit { stage; limit = "memory"; detail = "out of memory" }
  | e -> Internal { stage; detail = Printexc.to_string e }

let guard ~stage f = try Ok (f ()) with e -> Result.Error (of_exn ~stage e)

let check_finite ~stage ~context x =
  if not (Float.is_finite x) then raise_t (Numerical { stage; value = x; context })

let message_of_exn = function
  | Error t -> to_string t
  | e -> Printexc.to_string e
