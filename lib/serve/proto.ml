type kind = Route | Update of { chunk : int array }

type request = {
  id : int;
  scenario : string;
  budget_ms : float option;
  paranoid : bool;
  kind : kind;
}

type answer = {
  id : int;
  rung : string;
  degraded : string list;
  digest : string;
  w_total : float;
  gates : int;
  buffers : int;
  wirelen : float;
  audit_hits : int;
  audit_misses : int;
  cache_warm : bool;
  epoch : int;
  elapsed_ms : float;
}

type reject = {
  id : int option;
  error_class : string;
  exit_code : int;
  message : string;
  retry_after_ms : float option;
}

type response = Answer of answer | Reject of reject

let error_class (e : Util.Gcr_error.t) =
  match e with
  | Util.Gcr_error.Parse _ -> "parse"
  | Util.Gcr_error.Degenerate_input _ -> "degenerate-input"
  | Util.Gcr_error.Numerical _ -> "numerical"
  | Util.Gcr_error.Resource_limit _ -> "resource-limit"
  | Util.Gcr_error.Engine_mismatch _ -> "engine-mismatch"
  | Util.Gcr_error.Internal _ -> "internal"

let reject_of_error ?id ?retry_after_ms e =
  Reject
    {
      id;
      error_class = error_class e;
      exit_code = Util.Gcr_error.exit_code e;
      message = Util.Gcr_error.to_string e;
      retry_after_ms;
    }

(* Writer: {!Util.Obs.Json}'s, the dialect of {!Util.Obs.to_json} —
   single line, fixed field order. *)
let add_str, add_float = Util.Obs.Json.(add_string, add_float)

let request_to_json r =
  let b = Buffer.create (String.length r.scenario + 128) in
  Buffer.add_string b "{\"version\":1,\"id\":";
  Buffer.add_string b (string_of_int r.id);
  (match r.budget_ms with
  | None -> ()
  | Some ms ->
    Buffer.add_string b ",\"budget_ms\":";
    add_float b ms);
  if r.paranoid then Buffer.add_string b ",\"paranoid\":true";
  (match r.kind with
  | Route -> ()
  | Update { chunk } ->
    (* Absent = route: older peers keep parsing pre-streaming frames. *)
    Buffer.add_string b ",\"kind\":\"update\",\"chunk\":[";
    Array.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (string_of_int x))
      chunk;
    Buffer.add_char b ']');
  Buffer.add_string b ",\"scenario\":";
  add_str b r.scenario;
  Buffer.add_char b '}';
  Buffer.contents b

let response_to_json = function
  | Answer a ->
    let b = Buffer.create 256 in
    Buffer.add_string b "{\"version\":1,\"id\":";
    Buffer.add_string b (string_of_int a.id);
    Buffer.add_string b ",\"status\":\"ok\",\"rung\":";
    add_str b a.rung;
    Buffer.add_string b ",\"degraded\":[";
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_char b ',';
        add_str b s)
      a.degraded;
    Buffer.add_string b "],\"digest\":";
    add_str b a.digest;
    Buffer.add_string b ",\"w_total\":";
    add_float b a.w_total;
    Buffer.add_string b (Printf.sprintf ",\"gates\":%d,\"buffers\":%d" a.gates a.buffers);
    Buffer.add_string b ",\"wirelen\":";
    add_float b a.wirelen;
    Buffer.add_string b
      (Printf.sprintf ",\"audit_hits\":%d,\"audit_misses\":%d,\"cache_warm\":%b"
         a.audit_hits a.audit_misses a.cache_warm);
    Buffer.add_string b (Printf.sprintf ",\"epoch\":%d" a.epoch);
    Buffer.add_string b ",\"elapsed_ms\":";
    add_float b a.elapsed_ms;
    Buffer.add_char b '}';
    Buffer.contents b
  | Reject r ->
    let b = Buffer.create 256 in
    Buffer.add_string b "{\"version\":1,";
    (match r.id with
    | Some id -> Buffer.add_string b (Printf.sprintf "\"id\":%d," id)
    | None -> ());
    Buffer.add_string b "\"status\":\"error\",\"class\":";
    add_str b r.error_class;
    Buffer.add_string b (Printf.sprintf ",\"exit\":%d,\"message\":" r.exit_code);
    add_str b r.message;
    (match r.retry_after_ms with
    | None -> ()
    | Some ms ->
      Buffer.add_string b ",\"retry_after_ms\":";
      add_float b ms);
    Buffer.add_char b '}';
    Buffer.contents b

(* Reader: Obs.Json for the tree, then shape checks. Shape errors carry
   offset 0 (the document is well-formed JSON of the wrong shape). *)

module J = Util.Obs.Json

exception Shape of string

let shape fmt = Printf.ksprintf (fun m -> raise (Shape m)) fmt

let mem name j =
  match J.member name j with
  | Some v -> v
  | None -> shape "missing field %S" name

let str what = function
  | J.Str s -> s
  | _ -> shape "field %S must be a string" what

let num what = function
  | J.Num n -> n
  | _ -> shape "field %S must be a number" what

let int_field what j =
  let n = num what j in
  if Float.is_integer n && Float.abs n <= 2. ** 52. then int_of_float n
  else shape "field %S must be an integer" what

let bool_field what = function
  | J.Bool v -> v
  | _ -> shape "field %S must be a boolean" what

let opt name conv j = Option.map (conv name) (J.member name j)

let check_version j =
  match int_field "version" (mem "version" j) with
  | 1 -> ()
  | v -> shape "unsupported protocol version %d" v

let parse_with shape_of text =
  match J.parse_located text with
  | Error (msg, off) -> Error (msg, off)
  | Ok j -> ( try Ok (shape_of j) with Shape m -> Error (m, 0))

let request_of_json text =
  parse_with
    (fun j ->
      check_version j;
      {
        id = int_field "id" (mem "id" j);
        scenario = str "scenario" (mem "scenario" j);
        budget_ms = opt "budget_ms" num j;
        paranoid =
          (match opt "paranoid" bool_field j with Some b -> b | None -> false);
        kind =
          (match opt "kind" str j with
          | None | Some "route" -> Route
          | Some "update" ->
            let chunk =
              match mem "chunk" j with
              | J.List l ->
                Array.of_list (List.map (fun v -> int_field "chunk" v) l)
              | _ -> shape "field \"chunk\" must be a list of integers"
            in
            Update { chunk }
          | Some s -> shape "unknown request kind %S" s);
      })
    text

let response_of_json text =
  parse_with
    (fun j ->
      check_version j;
      match str "status" (mem "status" j) with
      | "ok" ->
        Answer
          {
            id = int_field "id" (mem "id" j);
            rung = str "rung" (mem "rung" j);
            degraded =
              (match mem "degraded" j with
              | J.List l -> List.map (str "degraded") l
              | _ -> shape "field \"degraded\" must be a list");
            digest = str "digest" (mem "digest" j);
            w_total = num "w_total" (mem "w_total" j);
            gates = int_field "gates" (mem "gates" j);
            buffers = int_field "buffers" (mem "buffers" j);
            wirelen = num "wirelen" (mem "wirelen" j);
            audit_hits = int_field "audit_hits" (mem "audit_hits" j);
            audit_misses = int_field "audit_misses" (mem "audit_misses" j);
            cache_warm = bool_field "cache_warm" (mem "cache_warm" j);
            epoch =
              (* Optional for answers recorded before profile epochs. *)
              (match opt "epoch" int_field j with Some e -> e | None -> 0);
            elapsed_ms = num "elapsed_ms" (mem "elapsed_ms" j);
          }
      | "error" ->
        Reject
          {
            id = opt "id" int_field j;
            error_class = str "class" (mem "class" j);
            exit_code = int_field "exit" (mem "exit" j);
            message = str "message" (mem "message" j);
            retry_after_ms = opt "retry_after_ms" num j;
          }
      | s -> shape "unknown status %S" s)
    text
