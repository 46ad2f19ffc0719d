(* Print the golden merge corpus of the current engines, one line per
   case, in case order. *)
let () = List.iter (fun case -> print_endline (Golden.line case)) Golden.cases
