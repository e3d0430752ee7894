(** Line-oriented wire codec and in-process server for replicated
    relational stores (see [docs/SYNC.md] for the grammar).

    The codec roundtrips ([parse_request (render_request r) = r], same
    for responses over the codec's output); parse failures raise typed
    [Parse] errors; {!handle} converts every bx failure into an [error]
    response. *)

open Esm_core
open Esm_relational

type rstore = (Table.t, Table.t, Row_delta.t, Row_delta.t) Store.t
type rsession = (Table.t, Table.t, Row_delta.t, Row_delta.t) Session.t

type request =
  | Hello of string * Session.side  (** [hello <session> a|b] *)
  | Get  (** read the bound view *)
  | Set of Row.t list  (** replace the bound view *)
  | Batch of Row_delta.t list  (** commit a coalesced delta burst *)
  | Pull  (** receive entries committed since base *)
  | Ping  (** transport heartbeat — keeps an idle session off the reaper *)
  | Crash  (** simulate a server crash *)
  | Recover  (** replay the oplog suffix *)
  | Bye

type response =
  | Resp_ok of int  (** [ok <version>] *)
  | Resp_conflict of int * string  (** [conflict <version> <message>] *)
  | Resp_error of Error.kind * string  (** [error <kind> <message>] *)
  | Resp_view of int * Row.t list  (** [view <version> <rows>] *)
  | Resp_update of int * int  (** [update <version> <n-entries>] *)
  | Resp_pong  (** [pong] *)

(** {1 Codec} *)

val render_value : Value.t -> string
val parse_value : string -> Value.t
val render_row : Row.t -> string
val parse_row : string -> Row.t
val render_delta : Row_delta.t -> string
val parse_delta : string -> Row_delta.t
val render_request : request -> string
val parse_request : string -> request
val render_response : response -> string
val parse_response : string -> response

(** {1 Durable-log payload codec} *)

val durable_op_codec :
  schema_a:Schema.t ->
  schema_b:Schema.t ->
  (Table.t, Table.t, Row_delta.t, Row_delta.t) Store.op_codec
(** The {!Store.op_codec} for relational stores, reusing the row/delta
    wire grammar for durable-log payloads ([set_a <rows>],
    [batch_b +<row> ; -<row>], …).  [schema_a] / [schema_b] rebuild
    tables on decode (the on-disk payload carries rows, not schemas). *)

(** {1 Server} *)

type server

val serve : rstore -> server
val store : server -> rstore

val session_names : server -> string list
(** The sessions currently bound (sorted) — what the transport layer's
    dead-session reaper walks. *)

val drop_session : server -> string -> unit
(** Unbind a session without a [Bye] round-trip — the reaper's path for
    sessions whose client went dark. *)

val handle : server -> session:string -> request -> response
(** Process one request on behalf of a named session ([Hello] binds the
    name; subsequent requests use it).  Conflicts and bx failures come
    back as [Resp_conflict] / [Resp_error], never as exceptions. *)

val handle_line : server -> session:string -> string -> string
(** [parse_request], {!handle}, [render_response] in one step; parse
    failures still raise (the caller decides how to report bad input). *)
