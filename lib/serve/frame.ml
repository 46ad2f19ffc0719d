let magic = "GCR1"

let header_len = 8

let default_max_frame = 1 lsl 24

let encode ?(max_frame = default_max_frame) payload =
  let n = String.length payload in
  if n > max_frame then
    invalid_arg
      (Printf.sprintf "Frame.encode: %d-byte payload exceeds the %d-byte limit"
         n max_frame);
  let b = Buffer.create (header_len + n) in
  Buffer.add_string b magic;
  Buffer.add_uint8 b ((n lsr 24) land 0xff);
  Buffer.add_uint8 b ((n lsr 16) land 0xff);
  Buffer.add_uint8 b ((n lsr 8) land 0xff);
  Buffer.add_uint8 b (n land 0xff);
  Buffer.add_string b payload;
  Buffer.contents b

type event = Frame of string | Junk of { skipped : int; at : int }

(* The buffer is a growable byte array with a consumed prefix [pos]:
   [feed] appends at [len], [next] consumes from [pos], and the live
   window slides back to 0 whenever the dead prefix dominates, so a
   long-lived connection's decoder stays at O(one frame) memory. *)
type decoder = {
  max_frame : int;
  mutable buf : Bytes.t;
  mutable pos : int;  (* first unconsumed byte *)
  mutable len : int;  (* end of valid data *)
  mutable consumed : int;  (* stream offset of [pos] *)
  mutable oversized : int option;  (* sticky poison *)
}

let decoder ?(max_frame = default_max_frame) () =
  {
    max_frame;
    buf = Bytes.create 4096;
    pos = 0;
    len = 0;
    consumed = 0;
    oversized = None;
  }

let compact d =
  if d.pos > 0 && (d.pos = d.len || d.pos > Bytes.length d.buf / 2) then begin
    Bytes.blit d.buf d.pos d.buf 0 (d.len - d.pos);
    d.len <- d.len - d.pos;
    d.pos <- 0
  end

let feed d ?(off = 0) ?len chunk =
  let clen = match len with Some l -> l | None -> String.length chunk - off in
  if off < 0 || clen < 0 || off + clen > String.length chunk then
    invalid_arg "Frame.feed: invalid substring";
  compact d;
  if d.len + clen > Bytes.length d.buf then begin
    let cap = ref (2 * Bytes.length d.buf) in
    while d.len + clen > !cap do
      cap := 2 * !cap
    done;
    let nb = Bytes.create !cap in
    Bytes.blit d.buf 0 nb 0 d.len;
    d.buf <- nb
  end;
  Bytes.blit_string chunk off d.buf d.len clen;
  d.len <- d.len + clen

let available d = d.len - d.pos

(* Could the buffered bytes starting at [i] still turn into a frame
   header? True when every available byte matches the magic prefix. *)
let magic_prefix_at d i =
  let upto = Int.min (String.length magic) (d.len - i) in
  let rec go k = k >= upto || (Bytes.get d.buf (i + k) = magic.[k] && go (k + 1)) in
  go 0

let skip_junk d =
  let start = d.pos in
  let i = ref d.pos in
  while !i < d.len && not (magic_prefix_at d !i) do
    incr i
  done;
  let skipped = !i - start in
  if skipped > 0 then begin
    d.pos <- !i;
    let at = d.consumed in
    d.consumed <- d.consumed + skipped;
    Some (Junk { skipped; at })
  end
  else None

let next d =
  match d.oversized with
  | Some n -> Error (`Oversized n)
  | None -> (
    match skip_junk d with
    | Some _ as junk -> Ok junk
    | None ->
      if available d < header_len then Ok None
      else begin
        let b k = Char.code (Bytes.get d.buf (d.pos + 4 + k)) in
        let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
        if n > d.max_frame then begin
          (* Do not resync: the magic bytes may legitimately occur inside
             the oversized body, so any recovery point would be a guess.
             Poison the decoder and let the caller drop the link. *)
          d.oversized <- Some n;
          Error (`Oversized n)
        end
        else if available d < header_len + n then Ok None
        else begin
          let payload = Bytes.sub_string d.buf (d.pos + header_len) n in
          d.pos <- d.pos + header_len + n;
          d.consumed <- d.consumed + header_len + n;
          Ok (Some (Frame payload))
        end
      end)

let awaiting d = available d
