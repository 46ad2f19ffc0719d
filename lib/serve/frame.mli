(** Length-prefixed wire framing for the routing service.

    One frame is [magic] (4 bytes, ["GCR1"]), a 4-byte big-endian payload
    length, then the payload bytes. The payload is opaque here (JSON at
    the {!Proto} layer); the framing layer's whole job is to survive a
    hostile byte stream: arbitrary chunk boundaries, truncation,
    garbage between frames, and frames claiming absurd lengths.

    The decoder is incremental and never raises on input bytes:

    - {b Arbitrary chunking.} [feed] accepts any split of the stream —
      one byte at a time or a megabyte at once — and [next] yields
      exactly the frames a single-chunk feed would.
    - {b Junk-prefix recovery.} Bytes that cannot start a frame are
      skipped until a possible [magic] prefix, reported (with their
      absolute stream offset, for diagnostics) rather than silently
      dropped, and decoding resumes at the next real frame.
    - {b Bounded memory.} A frame longer than [max_frame] is rejected
      {e from its header} — the decoder never buffers an attacker-sized
      payload — and the error is sticky: resynchronizing inside a frame
      body that legitimately contains the magic bytes would desync the
      stream, so the connection must be dropped after diagnosis. *)

val magic : string
(** ["GCR1"]. *)

val header_len : int
(** Bytes before the payload: 8 (magic + length). *)

val default_max_frame : int
(** Default payload-size limit: 16 MiB. *)

val encode : ?max_frame:int -> string -> string
(** Wrap a payload into one frame. Raises [Invalid_argument] when the
    payload exceeds [max_frame] (default {!default_max_frame}). *)

type decoder

val decoder : ?max_frame:int -> unit -> decoder

val feed : decoder -> ?off:int -> ?len:int -> string -> unit
(** Append a chunk of stream bytes ([off]/[len] default to the whole
    string). Raises [Invalid_argument] on an invalid substring spec. *)

type event =
  | Frame of string  (** one complete payload, in stream order *)
  | Junk of { skipped : int; at : int }
      (** [skipped] bytes that cannot begin a frame were discarded;
          [at] is their absolute offset in the connection's byte stream *)

val next : decoder -> (event option, [ `Oversized of int ]) result
(** Pull the next event. [Ok None] means more input is needed;
    [Error (`Oversized n)] reports a header claiming an [n]-byte payload
    over the limit and is sticky — every later call returns it again,
    and the caller must drop the connection after answering. *)

val awaiting : decoder -> int
(** Bytes currently buffered toward an incomplete frame (0 when the
    decoder sits at a frame boundary). Nonzero at end-of-stream means the
    peer disconnected mid-frame. *)
