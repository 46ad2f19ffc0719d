type t = { fd : Unix.file_descr; dec : Frame.decoder; buf : Bytes.t }

let connect address =
  let fd =
    match address with
    | Server.Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
    | Server.Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Server.inet_addr host, port));
      fd
  in
  { fd; dec = Frame.decoder ~max_frame:Frame.default_max_frame (); buf = Bytes.create 65536 }

let write_all fd s =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write_substring fd s !pos (n - !pos)
  done

let send_raw t s = write_all t.fd s

let send t req = send_raw t (Frame.encode (Proto.request_to_json req))

let recv ?(timeout_s = 30.0) t =
  let deadline = Util.Obs.Clock.now () +. timeout_s in
  let rec loop () =
    match Frame.next t.dec with
    | Error (`Oversized n) ->
      Error (Printf.sprintf "oversized response frame (%d bytes)" n)
    | Ok (Some (Frame.Junk { skipped; at })) ->
      Error (Printf.sprintf "%d junk bytes at stream offset %d" skipped at)
    | Ok (Some (Frame.Frame payload)) -> (
      match Proto.response_of_json payload with
      | Ok r -> Ok (Some r)
      | Error (msg, off) ->
        Error (Printf.sprintf "malformed response: %s at offset %d" msg off))
    | Ok None ->
      let remain = deadline -. Util.Obs.Clock.now () in
      if remain <= 0.0 then Error "timed out waiting for a response"
      else begin
        match Unix.select [ t.fd ] [] [] (Float.min remain 0.25) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | [], _, _ -> loop ()
        | _, _, _ -> (
          match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
          | 0 ->
            if Frame.awaiting t.dec > 0 then
              Error "connection closed mid-frame"
            else Ok None
          | k ->
            Frame.feed t.dec ~len:k (Bytes.unsafe_to_string t.buf);
            loop ()
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
            if Frame.awaiting t.dec > 0 then
              Error "connection reset mid-frame"
            else Ok None)
      end
  in
  loop ()

let close_half t =
  try Unix.shutdown t.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
