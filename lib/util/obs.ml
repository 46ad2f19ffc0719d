(* Process-global observability: one monotonic clock, named counters and
   gauges, nested spans, and a run report renderable as text or JSON.

   Everything is designed to be left compiled in: with tracing disabled
   (the default) a counter bump or span entry is a single atomic load and
   a branch, so the instrumented hot paths (greedy merge loops, signature
   queries) pay nanoseconds, not a redesign. Counters are
   atomics and safe to bump from any Util.Parallel domain; spans keep an
   explicit stack and must be opened and closed on one domain (the
   pipeline driver), which every current caller satisfies. *)

(* ------------------------------------------------------------------ *)
(* Clock                                                              *)
(* ------------------------------------------------------------------ *)

external monotonic_ns : unit -> int64 = "gcr_obs_monotonic_ns"

external monotonic_s : unit -> (float[@unboxed])
  = "gcr_obs_monotonic_s_byte" "gcr_obs_monotonic_s"
[@@noalloc]

module Clock = struct
  let now_ns = monotonic_ns

  let now = monotonic_s
end

(* ------------------------------------------------------------------ *)
(* Enabling                                                           *)
(* ------------------------------------------------------------------ *)

let on = Atomic.make false

let enabled () = Atomic.get on

let set_enabled b = Atomic.set on b

(* GCR_TRACE=1 (anything non-empty except "0") turns tracing on for the
   whole process, so test suites and benches can run fully instrumented
   without touching their code. *)
let () =
  match Sys.getenv_opt "GCR_TRACE" with
  | Some s when String.trim s <> "" && String.trim s <> "0" ->
    Atomic.set on true
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                *)
(* ------------------------------------------------------------------ *)

type counter = { cname : string; c : int Atomic.t }

type gauge = { gname : string; g : float Atomic.t; touched : bool Atomic.t }

(* Registration happens at module-init time (top-level lets in the
   instrumented libraries), so the mutex is uncontended; the hot path
   only touches the interned handle's atomic. *)
let registry_lock = Mutex.create ()

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 8

let counter name =
  Mutex.lock registry_lock;
  let c =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
      let c = { cname = name; c = Atomic.make 0 } in
      Hashtbl.add counters name c;
      c
  in
  Mutex.unlock registry_lock;
  c

let gauge name =
  Mutex.lock registry_lock;
  let g =
    match Hashtbl.find_opt gauges name with
    | Some g -> g
    | None ->
      let g = { gname = name; g = Atomic.make 0.0; touched = Atomic.make false } in
      Hashtbl.add gauges name g;
      g
  in
  Mutex.unlock registry_lock;
  g

let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c.c n)

let incr c = add c 1

let value c = Atomic.get c.c

let set g x =
  if Atomic.get on then begin
    Atomic.set g.g x;
    Atomic.set g.touched true
  end

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

type node = {
  sname : string;
  mutable calls : int;
  mutable node_time : float;
  mutable node_alloc : float;
  mutable kids : node list; (* newest first *)
}

let fresh_root () =
  { sname = "<root>"; calls = 0; node_time = 0.0; node_alloc = 0.0; kids = [] }

let root = ref (fresh_root ())

let stack : node list ref = ref []

let span ~name f =
  if not (Atomic.get on) then f ()
  else begin
    let parent = match !stack with n :: _ -> n | [] -> !root in
    let node =
      match List.find_opt (fun n -> String.equal n.sname name) parent.kids with
      | Some n -> n
      | None ->
        let n =
          { sname = name; calls = 0; node_time = 0.0; node_alloc = 0.0; kids = [] }
        in
        parent.kids <- n :: parent.kids;
        n
    in
    stack := node :: !stack;
    (* Words allocated in this domain's minor heap: [Gc.minor_words]
       reads the allocation pointer, so the delta does not depend on when
       collections run (other domains' allocations are theirs). Direct
       major-heap allocations (large arrays) are left out: major_words -
       promoted_words would add them, but moves with GC timing in OCaml 5. *)
    let a0 = Gc.minor_words () in
    let t0 = Clock.now () in
    let finish () =
      node.calls <- node.calls + 1;
      node.node_time <- node.node_time +. (Clock.now () -. t0);
      node.node_alloc <- node.node_alloc +. (Gc.minor_words () -. a0);
      match !stack with
      | n :: rest when n == node -> stack := rest
      | _ -> stack := [] (* unbalanced close; recover rather than corrupt *)
    in
    match f () with
    | result ->
      finish ();
      result
    | exception e ->
      finish ();
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Reports                                                            *)
(* ------------------------------------------------------------------ *)

type span_report = {
  name : string;
  calls : int;
  time_s : float;
  alloc_words : float;
  children : span_report list;
}

type report = {
  spans : span_report list;
  counters : (string * int) list;
  gauges : (string * float) list;
}

let rec freeze node =
  {
    name = node.sname;
    calls = node.calls;
    time_s = node.node_time;
    alloc_words = node.node_alloc;
    children = List.rev_map freeze node.kids; (* oldest (first-entered) first *)
  }

let snapshot () =
  let spans = (freeze !root).children in
  Mutex.lock registry_lock;
  let cs =
    Hashtbl.fold
      (fun _ c acc ->
        let v = Atomic.get c.c in
        if v <> 0 then (c.cname, v) :: acc else acc)
      counters []
  in
  let gs =
    Hashtbl.fold
      (fun _ g acc ->
        if Atomic.get g.touched then (g.gname, Atomic.get g.g) :: acc else acc)
      gauges []
  in
  Mutex.unlock registry_lock;
  {
    spans;
    counters = List.sort (fun (a, _) (b, _) -> compare a b) cs;
    gauges = List.sort (fun (a, _) (b, _) -> compare a b) gs;
  }

let reset () =
  root := fresh_root ();
  stack := [];
  Mutex.lock registry_lock;
  Hashtbl.iter (fun _ c -> Atomic.set c.c 0) counters;
  Hashtbl.iter
    (fun _ g ->
      Atomic.set g.g 0.0;
      Atomic.set g.touched false)
    gauges;
  Mutex.unlock registry_lock

let run f =
  let prev = Atomic.get on in
  reset ();
  Atomic.set on true;
  match f () with
  | result ->
    let report = snapshot () in
    Atomic.set on prev;
    (result, report)
  | exception e ->
    Atomic.set on prev;
    raise e

(* ------------------------------------------------------------------ *)
(* Text rendering                                                     *)
(* ------------------------------------------------------------------ *)

let pretty_time s =
  if s >= 1.0 then Printf.sprintf "%.3f s" s
  else if s >= 1e-3 then Printf.sprintf "%.3f ms" (s *. 1e3)
  else Printf.sprintf "%.1f us" (s *. 1e6)

let pretty_words w =
  if Float.abs w >= 1e6 then Printf.sprintf "%.2f Mw" (w /. 1e6)
  else if Float.abs w >= 1e3 then Printf.sprintf "%.1f kw" (w /. 1e3)
  else Printf.sprintf "%.0f w" w

let render r =
  let buf = Buffer.create 1024 in
  if r.spans <> [] then begin
    let table =
      Text_table.create ~title:"Stage spans (wall time, calling-domain allocations)"
        [ ("span", Text_table.Left); ("calls", Text_table.Right);
          ("time", Text_table.Right); ("alloc", Text_table.Right) ]
    in
    let rec rows depth s =
      Text_table.add_row table
        [
          String.make (2 * depth) ' ' ^ s.name;
          string_of_int s.calls;
          pretty_time s.time_s;
          pretty_words s.alloc_words;
        ];
      List.iter (rows (depth + 1)) s.children
    in
    List.iter (rows 0) r.spans;
    Buffer.add_string buf (Text_table.render table)
  end;
  if r.counters <> [] then begin
    if Buffer.length buf > 0 then Buffer.add_char buf '\n';
    let table =
      Text_table.create ~title:"Counters"
        [ ("counter", Text_table.Left); ("value", Text_table.Right) ]
    in
    List.iter
      (fun (k, v) -> Text_table.add_row table [ k; string_of_int v ])
      r.counters;
    Buffer.add_string buf (Text_table.render table);
    (* Derived rates worth surfacing without making the reader divide. *)
    let c k = Option.value (List.assoc_opt k r.counters) ~default:0 in
    let pops = c "greedy.heap_pops" and stale = c "greedy.stale_discards" in
    if pops > 0 then
      Buffer.add_string buf
        (Printf.sprintf "greedy stale-pop rate: %.1f%% (%d of %d pops)\n"
           (100.0 *. float_of_int stale /. float_of_int pops)
           stale pops)
  end;
  if r.gauges <> [] then begin
    if Buffer.length buf > 0 then Buffer.add_char buf '\n';
    let table =
      Text_table.create ~title:"Gauges"
        [ ("gauge", Text_table.Left); ("value", Text_table.Right) ]
    in
    List.iter
      (fun (k, v) -> Text_table.add_row table [ k; Printf.sprintf "%g" v ])
      r.gauges;
    Buffer.add_string buf (Text_table.render table)
  end;
  if Buffer.length buf = 0 then
    Buffer.add_string buf "empty run report (was tracing enabled?)\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON (stable, dependency-free)                                     *)
(* ------------------------------------------------------------------ *)

let json_version = 1

exception Bad_json of string

(* Parser-level failures carry the byte offset separately so sinks that
   know the source text (gcr stats) can convert it to a line/column caret
   excerpt instead of echoing a bare offset. *)
exception Bad_json_at of string * int

(* Tiny dependency-free JSON reader and writer, public so tooling that
   consumes the harness artifacts (bench trajectory compare, report
   diffing) parses them with the same code that round-trips run reports,
   and every emitter writes strings and floats one way. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

  (* The one writer of the dialect every emitter speaks (run reports,
     serve frames, bench trajectory rows): ASCII strings with control
     characters escaped, floats at [%.17g]. *)
  let add_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | ch when Char.code ch < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
        | ch -> Buffer.add_char buf ch)
      s;
    Buffer.add_char buf '"'

  (* %.17g round-trips every finite double bit-for-bit through
     float_of_string, which is what makes of_json (to_json r) = r. *)
  let add_float buf x = Buffer.add_string buf (Printf.sprintf "%.17g" x)

  let parse_located text =
  let n = String.length text in
  let i = ref 0 in
  let fail msg = raise (Bad_json_at (msg, !i)) in
  let peek () = if !i < n then Some text.[!i] else None in
  let skip_ws () =
    while
      !i < n && (match text.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      Stdlib.incr i
    done
  in
  let expect ch =
    skip_ws ();
    if !i < n && text.[!i] = ch then Stdlib.incr i
    else fail (Printf.sprintf "expected '%c'" ch)
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      let ch = text.[!i] in
      Stdlib.incr i;
      if ch = '"' then Buffer.contents buf
      else if ch = '\\' then begin
        if !i >= n then fail "unterminated escape";
        let esc = text.[!i] in
        Stdlib.incr i;
        (match esc with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !i + 4 > n then fail "truncated \\u escape";
          let hex = String.sub text !i 4 in
          i := !i + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
          | Some _ -> fail "non-ASCII \\u escape"
          | None -> fail "malformed \\u escape")
        | _ -> fail "unknown escape");
        go ()
      end
      else begin
        Buffer.add_char buf ch;
        go ()
      end
    in
    go ()
  in
  let literal word v =
    if
      !i + String.length word <= n
      && String.sub text !i (String.length word) = word
    then begin
      i := !i + String.length word;
      v
    end
    else fail "expected a JSON value"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (string_lit ())
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | _ -> fail "expected a JSON value"
  and number () =
    let start = !i in
    if text.[!i] = '-' then Stdlib.incr i;
    while
      !i < n
      && (match text.[!i] with
         | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
         | _ -> false)
    do
      Stdlib.incr i
    done;
    (match float_of_string_opt (String.sub text start (!i - start)) with
    | Some f -> Num f
    | None -> fail "malformed number")
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      Stdlib.incr i;
      List []
    end
    else begin
      let rec go acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          Stdlib.incr i;
          go (v :: acc)
        | Some ']' ->
          Stdlib.incr i;
          List (Stdlib.List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      go []
    end
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      Stdlib.incr i;
      Obj []
    end
    else begin
      let field () =
        skip_ws ();
        let k = string_lit () in
        expect ':';
        (k, value ())
      in
      let rec go acc =
        let kv = field () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          Stdlib.incr i;
          go (kv :: acc)
        | Some '}' ->
          Stdlib.incr i;
          Obj (Stdlib.List.rev (kv :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      go []
    end
  in
  try
    let v = value () in
    skip_ws ();
    if !i <> n then fail "trailing content";
    Ok v
  with Bad_json_at (msg, off) -> Error (msg, off)

  let parse text =
    match parse_located text with
    | Ok v -> Ok v
    | Error (msg, off) -> Error (Printf.sprintf "%s at offset %d" msg off)
end

let to_json r =
  let buf = Buffer.create 1024 in
  let str = Json.add_string buf and add_float = Json.add_float in
  let rec span_json s =
    Buffer.add_string buf "{\"name\":";
    str s.name;
    Buffer.add_string buf (Printf.sprintf ",\"calls\":%d,\"time_s\":" s.calls);
    add_float buf s.time_s;
    Buffer.add_string buf ",\"alloc_words\":";
    add_float buf s.alloc_words;
    Buffer.add_string buf ",\"children\":[";
    List.iteri
      (fun i child ->
        if i > 0 then Buffer.add_char buf ',';
        span_json child)
      s.children;
    Buffer.add_string buf "]}"
  in
  Buffer.add_string buf (Printf.sprintf "{\"version\":%d,\"spans\":[" json_version);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      span_json s)
    r.spans;
  Buffer.add_string buf "],\"counters\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      str k;
      Buffer.add_string buf (Printf.sprintf ":%d" v))
    r.counters;
  Buffer.add_string buf "},\"gauges\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      str k;
      Buffer.add_char buf ':';
      add_float buf v)
    r.gauges;
  Buffer.add_string buf "}}\n";
  Buffer.contents buf

let of_json_located text =
  let field fields k =
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> raise (Bad_json (Printf.sprintf "missing field %S" k))
  in
  let num = function
    | Json.Num f -> f
    | _ -> raise (Bad_json "expected a number")
  in
  let rec decode_span = function
    | Json.Obj fields ->
      let name =
        match field fields "name" with
        | Json.Str s -> s
        | _ -> raise (Bad_json "span name must be a string")
      in
      let children =
        match field fields "children" with
        | Json.List l -> List.map decode_span l
        | _ -> raise (Bad_json "span children must be an array")
      in
      {
        name;
        calls = int_of_float (num (field fields "calls"));
        time_s = num (field fields "time_s");
        alloc_words = num (field fields "alloc_words");
        children;
      }
    | _ -> raise (Bad_json "span must be an object")
  in
  match Json.parse_located text with
  | Error (msg, off) -> Error (msg, off)
  | Ok v -> (
    (* Semantic (well-formed JSON, wrong shape) errors have no better
       location than the start of the document. *)
    try
      match v with
      | Json.Obj fields ->
        let version = int_of_float (num (field fields "version")) in
        if version <> json_version then
          Error (Printf.sprintf "unsupported report version %d" version, 0)
        else begin
          let spans =
            match field fields "spans" with
            | Json.List l -> List.map decode_span l
            | _ -> raise (Bad_json "spans must be an array")
          in
          let assoc kind conv =
            match field fields kind with
            | Json.Obj kvs -> List.map (fun (k, v) -> (k, conv (num v))) kvs
            | _ -> raise (Bad_json (kind ^ " must be an object"))
          in
          Ok
            {
              spans;
              counters = assoc "counters" int_of_float;
              gauges = assoc "gauges" Fun.id;
            }
        end
      | _ -> Error ("report must be a JSON object", 0)
    with Bad_json msg -> Error (msg, 0))

let of_json text =
  match of_json_located text with
  | Ok r -> Ok r
  | Error (msg, 0) -> Error msg
  | Error (msg, off) -> Error (Printf.sprintf "%s at offset %d" msg off)
