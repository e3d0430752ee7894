(** The line-oriented wire codec and in-process server for replicated
    relational stores.

    One request per line, one response per line — the grammar a
    [telnet]-grade client (or the deterministic script runner in
    [bin/esm_syncd.ml]) speaks:

    {v
    hello <session> a|b          bind a session to the A or B view
    get                          read the bound view
    set <row> ; <row> ; ...      replace the bound view
    batch +<row> ; -<row> ; ...  commit a coalesced delta burst
    pull                         receive entries committed since base
    crash                        simulate a server crash
    recover                      replay the oplog suffix
    bye                          unbind
    v}

    Rows are comma-separated values: integers, [true]/[false],
    double-quoted strings (with backslash escapes for the quote and the
    backslash itself) or bare strings.
    Responses: [ok <version>], [view <version> <rows>],
    [update <version> <n-entries>], [conflict <version> <message>],
    [error <kind> <message>].

    The codec is total in both directions over its own output
    (roundtrip property-tested); parse failures raise typed [Parse]
    errors, and {!handle} converts every bx failure into an [error]
    response instead of tearing the server down. *)

open Esm_core
open Esm_relational

type rstore = (Table.t, Table.t, Row_delta.t, Row_delta.t) Store.t
type rsession = (Table.t, Table.t, Row_delta.t, Row_delta.t) Session.t

type request =
  | Hello of string * Session.side
  | Get
  | Set of Row.t list
  | Batch of Row_delta.t list
  | Pull
  | Ping
  | Crash
  | Recover
  | Bye

type response =
  | Resp_ok of int
  | Resp_conflict of int * string
  | Resp_error of Error.kind * string
  | Resp_view of int * Row.t list
  | Resp_update of int * int
  | Resp_pong

(* {1 Lexing helpers} *)

let parse_error fmt = Error.raise_error Error.Parse ~op:"wire" fmt

(* Split on [sep], but not inside double quotes. *)
let split_outside_quotes (sep : char) (s : string) : string list =
  let parts = ref [] in
  let buf = Buffer.create 16 in
  let in_quotes = ref false in
  let escaped = ref false in
  String.iter
    (fun c ->
      if !escaped then (
        Buffer.add_char buf c;
        escaped := false)
      else if c = '\\' && !in_quotes then (
        Buffer.add_char buf c;
        escaped := true)
      else if c = '"' then (
        Buffer.add_char buf c;
        in_quotes := not !in_quotes)
      else if c = sep && not !in_quotes then (
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf)
      else Buffer.add_char buf c)
    s;
  if !in_quotes then parse_error "unterminated quote in %S" s;
  List.rev (Buffer.contents buf :: !parts)

(* {1 Value codec} *)

let render_value = function
  | Value.Int n -> string_of_int n
  | Value.Bool true -> "true"
  | Value.Bool false -> "false"
  | Value.Str s ->
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '"';
      String.iter
        (fun c ->
          if c = '"' || c = '\\' then Buffer.add_char buf '\\';
          Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"';
      Buffer.contents buf

let parse_value (tok : string) : Value.t =
  let tok = String.trim tok in
  if tok = "" then parse_error "empty value token"
  else if tok = "true" then Value.Bool true
  else if tok = "false" then Value.Bool false
  else
    match int_of_string_opt tok with
    | Some n -> Value.Int n
    | None ->
        if String.length tok >= 2 && tok.[0] = '"' then (
          if tok.[String.length tok - 1] <> '"' then
            parse_error "unterminated string %S" tok;
          let buf = Buffer.create (String.length tok) in
          let escaped = ref false in
          String.iteri
            (fun i c ->
              if i > 0 && i < String.length tok - 1 then
                if !escaped then (
                  Buffer.add_char buf c;
                  escaped := false)
                else if c = '\\' then escaped := true
                else Buffer.add_char buf c)
            tok;
          if !escaped then parse_error "dangling escape in %S" tok;
          Value.Str (Buffer.contents buf))
        else Value.Str tok

let render_row (r : Row.t) : string =
  String.concat ", " (List.map render_value (Row.to_list r))

let parse_row (s : string) : Row.t =
  Row.of_list (List.map parse_value (split_outside_quotes ',' s))

let render_rows (rows : Row.t list) : string =
  String.concat " ; " (List.map render_row rows)

let parse_rows (s : string) : Row.t list =
  match String.trim s with
  | "" -> []
  | s -> List.map parse_row (split_outside_quotes ';' s)

let render_delta = function
  | Row_delta.Add r -> "+" ^ render_row r
  | Row_delta.Remove r -> "-" ^ render_row r

let parse_delta (s : string) : Row_delta.t =
  let s = String.trim s in
  if s = "" then parse_error "empty delta"
  else
    let rest = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | '+' -> Row_delta.Add (parse_row rest)
    | '-' -> Row_delta.Remove (parse_row rest)
    | _ -> parse_error "delta must start with + or -: %S" s

let render_deltas (ds : Row_delta.t list) : string =
  String.concat " ; " (List.map render_delta ds)

let parse_deltas (s : string) : Row_delta.t list =
  match String.trim s with
  | "" -> []
  | s -> List.map parse_delta (split_outside_quotes ';' s)

(* {1 Request codec} *)

(* First whitespace-separated word and the (trimmed) remainder. *)
let cut_word (s : string) : string * string =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
      ( String.sub s 0 i,
        String.trim (String.sub s (i + 1) (String.length s - i - 1)) )

let render_request = function
  | Hello (name, side) ->
      Printf.sprintf "hello %s %s" name (Session.side_name side)
  | Get -> "get"
  | Set rows -> String.trim ("set " ^ render_rows rows)
  | Batch ds -> String.trim ("batch " ^ render_deltas ds)
  | Pull -> "pull"
  | Ping -> "ping"
  | Crash -> "crash"
  | Recover -> "recover"
  | Bye -> "bye"

let parse_request (line : string) : request =
  let word, rest = cut_word line in
  match word with
  | "hello" -> (
      match String.split_on_char ' ' rest with
      | [ name; "a" ] -> Hello (name, `A)
      | [ name; "b" ] -> Hello (name, `B)
      | _ -> parse_error "expected 'hello <session> a|b', got %S" line)
  | "get" -> Get
  | "set" -> Set (parse_rows rest)
  | "batch" -> Batch (parse_deltas rest)
  | "pull" -> Pull
  | "ping" -> Ping
  | "crash" -> Crash
  | "recover" -> Recover
  | "bye" -> Bye
  | _ -> parse_error "unknown request %S" line

(* {1 Response codec} *)

let render_response = function
  | Resp_ok v -> Printf.sprintf "ok %d" v
  | Resp_conflict (v, msg) -> Printf.sprintf "conflict %d %s" v msg
  | Resp_error (kind, msg) ->
      Printf.sprintf "error %s %s" (Error.kind_name kind) msg
  | Resp_view (v, rows) ->
      String.trim (Printf.sprintf "view %d %s" v (render_rows rows))
  | Resp_update (v, n) -> Printf.sprintf "update %d %d" v n
  | Resp_pong -> "pong"

let kind_of_name = function
  | "shape" -> Error.Shape
  | "table" -> Error.Table
  | "schema" -> Error.Schema
  | "model" -> Error.Model
  | "metamodel" -> Error.Metamodel
  | "parse" -> Error.Parse
  | "fault" -> Error.Fault
  | "index" -> Error.Index
  | "conflict" -> Error.Conflict
  | "corrupt" -> Error.Corrupt
  | "transport.transient" -> Error.Transport `Transient
  | "transport.permanent" -> Error.Transport `Permanent
  | "timeout" -> Error.Timeout
  | "overload" -> Error.Overload
  | "other" -> Error.Other
  | k -> parse_error "unknown error kind %S" k

let parse_int_word (line : string) (s : string) : int =
  match int_of_string_opt s with
  | Some n -> n
  | None -> parse_error "expected a version number in %S" line

let parse_response (line : string) : response =
  let word, rest = cut_word line in
  match word with
  | "ok" -> Resp_ok (parse_int_word line rest)
  | "conflict" ->
      let v, msg = cut_word rest in
      Resp_conflict (parse_int_word line v, msg)
  | "error" ->
      let kind, msg = cut_word rest in
      Resp_error (kind_of_name kind, msg)
  | "view" ->
      let v, rows = cut_word rest in
      Resp_view (parse_int_word line v, parse_rows rows)
  | "update" -> (
      match String.split_on_char ' ' rest with
      | [ v; n ] -> Resp_update (parse_int_word line v, parse_int_word line n)
      | _ -> parse_error "expected 'update <version> <n>', got %S" line)
  | "pong" -> Resp_pong
  | _ -> parse_error "unknown response %S" line

(* {1 Durable-log payload codec} *)

(* The durable log frames opaque payloads (Durable_log); this codec
   fills them in for relational stores by reusing the row/delta wire
   grammar: [set_a <rows>], [set_b <rows>], [batch_a <deltas>],
   [batch_b <deltas>], and the bare A view rows for snapshots. *)
let durable_op_codec ~(schema_a : Schema.t) ~(schema_b : Schema.t) :
    (Table.t, Table.t, Row_delta.t, Row_delta.t) Store.op_codec =
  let table_of schema rows = Table.of_rows schema rows in
  {
    Store.encode_op =
      (fun op ->
        match op with
        | Store.Set_a t -> String.trim ("set_a " ^ render_rows (Table.rows t))
        | Store.Set_b t -> String.trim ("set_b " ^ render_rows (Table.rows t))
        | Store.Batch_a ds -> String.trim ("batch_a " ^ render_deltas ds)
        | Store.Batch_b ds -> String.trim ("batch_b " ^ render_deltas ds));
    decode_op =
      (fun s ->
        let word, rest = cut_word s in
        match word with
        | "set_a" -> Store.Set_a (table_of schema_a (parse_rows rest))
        | "set_b" -> Store.Set_b (table_of schema_b (parse_rows rest))
        | "batch_a" -> Store.Batch_a (parse_deltas rest)
        | "batch_b" -> Store.Batch_b (parse_deltas rest)
        | _ -> parse_error "unknown durable op %S" s);
    encode_a = (fun t -> render_rows (Table.rows t));
    decode_a = (fun s -> table_of schema_a (parse_rows s));
  }

(* {1 The in-process server} *)

type server = {
  store : rstore;
  sessions : (string, rsession) Hashtbl.t;
}

let serve (store : rstore) : server =
  { store; sessions = Hashtbl.create 8 }

let store (srv : server) : rstore = srv.store

let session_names (srv : server) : string list =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) srv.sessions [])

let drop_session (srv : server) (name : string) : unit =
  Hashtbl.remove srv.sessions name

let session_of (srv : server) (name : string) : rsession =
  match Hashtbl.find_opt srv.sessions name with
  | Some s -> s
  | None ->
      Error.raise_error Error.Other ~op:"wire"
        "session %s has not said hello" name

(* The schema a session's [set <rows>] builds a table against: the
   session's current view. *)
let view_schema (s : rsession) : Schema.t =
  match Session.view s with
  | `A t | `B t -> Table.schema t

let of_result = function
  | Ok v -> Resp_ok v
  | Error (e : Error.t) when e.Error.kind = Error.Conflict ->
      Resp_conflict (0, Error.message e)
  | Error e -> Resp_error (e.Error.kind, Error.message e)

let handle (srv : server) ~(session : string) (req : request) : response =
  try
    match req with
    | Hello (name, side) ->
        let s = Session.bind srv.store ~name ~side in
        Hashtbl.replace srv.sessions name s;
        Resp_ok (Session.base s)
    | Ping -> Resp_pong
    | Bye ->
        Hashtbl.remove srv.sessions session;
        Resp_ok (Store.version srv.store)
    | Crash ->
        Store.crash srv.store;
        Resp_ok (Store.version srv.store)
    | Recover ->
        Store.recover srv.store;
        Resp_ok (Store.version srv.store)
    | Get -> (
        let s = session_of srv session in
        match Session.view s with
        | `A t | `B t -> Resp_view (Store.version srv.store, Table.rows t))
    | Pull ->
        let s = session_of srv session in
        let entries = Session.pull s in
        Resp_update (Session.base s, List.length entries)
    | Set rows -> (
        let s = session_of srv session in
        let table = Table.of_rows (view_schema s) rows in
        let op =
          match Session.side s with
          | `A -> Store.Set_a table
          | `B -> Store.Set_b table
        in
        match Session.submit_rebase s op with
        | Ok (v, _) -> Resp_ok v
        | Error e -> of_result (Error e))
    | Batch ds -> (
        let s = session_of srv session in
        let op =
          match Session.side s with
          | `A -> Store.Batch_a ds
          | `B -> Store.Batch_b ds
        in
        match Session.submit_rebase s op with
        | Ok (v, _) -> Resp_ok v
        | Error e -> of_result (Error e))
  with exn when Error.is_bx_exn exn -> (
    match Error.of_exn exn with
    | Some e -> of_result (Error e)
    | None -> Resp_error (Error.Other, Printexc.to_string exn))

let handle_line (srv : server) ~(session : string) (line : string) : string =
  render_response (handle srv ~session (parse_request line))
