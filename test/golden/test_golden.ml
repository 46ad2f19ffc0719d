(* Every case of the golden merge corpus must reproduce its recorded
   line byte for byte: same merge lists, tree digests, W and gate
   counts. The corpus is rewritten only by regen.exe. *)

let corpus () =
  let ic = open_in "corpus.txt" in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  read []

let () =
  let lines = corpus () in
  let recorded key =
    match List.find_opt (String.starts_with ~prefix:(key ^ " ")) lines with
    | Some l -> l
    | None -> Alcotest.failf "no corpus line for %s" key
  in
  Alcotest.run "golden"
    [
      ( "corpus",
        Alcotest.test_case "one line per case" `Quick (fun () ->
            Alcotest.(check int) "lines" (List.length Golden.cases) (List.length lines))
        :: List.map
             (fun ((key, _) as case) ->
               Alcotest.test_case key `Quick (fun () ->
                   Alcotest.(check string) key (recorded key) (Golden.line case)))
             Golden.cases );
    ]
