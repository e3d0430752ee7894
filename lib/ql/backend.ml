open Esm_core
open Esm_relational
open Esm_sync

module type S = sig
  type t

  val label : t -> string
  val version : t -> int
  val view : t -> (Table.t, Error.t) result
  val put : t -> Row.t list -> (int, Error.t) result
  val batch : t -> Row_delta.t list -> (int, Error.t) result
  val close : t -> unit
end

type t = B : (module S with type t = 'a) * 'a -> t

type kind = Mem | Store | Remote

let kind_name = function Mem -> "mem" | Store -> "store" | Remote -> "remote"

let kind_of_string = function
  | "mem" -> Some Mem
  | "store" -> Some Store
  | "remote" -> Some Remote
  | _ -> None

(* Convert bx exceptions into typed results; programming errors keep
   propagating. *)
let wrap f = Esm_core.Atomic.attempt f ()

let apply_deltas t ds = Row_delta.apply_all t ds

(* ------------------------------------------------------------------ *)
(* In-memory: the dlens over a mutable source table                    *)
(* ------------------------------------------------------------------ *)

module Mem_b = struct
  type t = {
    cv : Check.cview;
    mutable src : Table.t;
    mutable ver : int;
  }

  let create (cv : Check.cview) = { cv; src = cv.Check.base.Check.binit; ver = 0 }
  let label _ = "mem"
  let version b = b.ver
  let view b = wrap (fun () -> Rlens.get_memo b.cv.Check.dlens b.src)

  let commit b ds =
    wrap (fun () ->
        b.src <- Rlens.put_delta b.cv.Check.dlens b.src ds;
        b.ver <- b.ver + 1;
        b.ver)

  let put b rows =
    match
      wrap (fun () ->
          let nv = Table.of_rows b.cv.Check.view_schema rows in
          let cur = Rlens.get_memo b.cv.Check.dlens b.src in
          Row_delta.diff cur nv)
    with
    | Error e -> Error e
    | Ok ds -> commit b ds

  let batch = commit
  let close _ = ()
end

(* ------------------------------------------------------------------ *)
(* Replicated store: packed pipeline behind a B-side session           *)
(* ------------------------------------------------------------------ *)

module Store_b = struct
  type t = { store : Wire.rstore; sess : Wire.rsession; vschema : Schema.t }

  let create ?dir (cv : Check.cview) =
    let packed =
      Rlens.packed_of_dlens ~init:cv.Check.base.Check.binit cv.Check.dlens
    in
    let persist =
      Option.map
        (fun dir ->
          Store.persist ~dir
            (Wire.durable_op_codec ~schema_a:cv.Check.base.Check.bschema
               ~schema_b:cv.Check.view_schema))
        dir
    in
    let store =
      Store.of_packed
        ~name:("esmql/" ^ cv.Check.vname)
        ~apply_da:apply_deltas ~apply_db:apply_deltas ?persist packed
    in
    let sess = Session.bind store ~name:"esmql" ~side:`B in
    { store; sess; vschema = cv.Check.view_schema }

  let label _ = "store"
  let version b = Store.version b.store
  let view b = wrap (fun () -> Store.view_b b.store)

  let submit b op =
    match Session.submit_rebase b.sess op with
    | Ok (v, _rebased) -> Ok v
    | Error e -> Error e

  let put b rows =
    match wrap (fun () -> Table.of_rows b.vschema rows) with
    | Error e -> Error e
    | Ok table -> submit b (Store.Set_b table)

  let batch b ds = submit b (Store.Batch_b ds)
  let close b = Store.close b.store
end

(* ------------------------------------------------------------------ *)
(* Remote: the same store behind the wire protocol and the chaos net   *)
(* ------------------------------------------------------------------ *)

module Remote_b = struct
  type t = {
    store : Wire.rstore;
    net : Transport.Chaos_net.t;
    rs : Transport.Remote_session.t;
    vschema : Schema.t;
  }

  let create (cv : Check.cview) =
    let packed =
      Rlens.packed_of_dlens ~init:cv.Check.base.Check.binit cv.Check.dlens
    in
    let store =
      Store.of_packed
        ~name:("esmql/" ^ cv.Check.vname)
        ~apply_da:apply_deltas ~apply_db:apply_deltas packed
    in
    let net = Transport.Chaos_net.create (Wire.serve store) in
    let rs =
      (* binding is the one step with no idempotent retry story (a
         fresh session has no dedup window yet), so it runs with
         injection suspended — as the soak harnesses do *)
      Chaos.protected (fun () ->
          match
            Transport.Remote_session.bind
              ~clock:(Transport.Chaos_net.clock net)
              (Transport.Chaos_net.endpoint net)
              ~name:"esmql" ~side:`B
          with
          | Ok rs -> rs
          | Error e -> raise (Error.Bx_error e))
    in
    { store; net; rs; vschema = cv.Check.view_schema }

  let label _ = "remote"
  let version b = Store.version b.store

  (* A transient failure leaves the request in doubt: the server may or
     may not have executed it.  Heal the net and ask — [resolve] resends
     the same envelope id, so dedup guarantees exactly-once even when
     the original did land.  This is what makes the remote backend give
     the same answers as mem/store under net.* chaos. *)
  let settle b (r : ('a, Error.t) result)
      ~(ok : Wire.response -> ('a, Error.t) result) : ('a, Error.t) result =
    match r with
    | Ok _ as r -> r
    | Error e when Error.is_transient e -> (
        Transport.Chaos_net.drain b.net;
        match
          Chaos.protected (fun () -> Transport.Remote_session.resolve b.rs)
        with
        | Ok resp -> ok resp
        | Error e -> Error e)
    | Error _ as r -> r

  let commit_of_resp = function
    | Wire.Resp_ok v -> Ok v
    | Wire.Resp_conflict (_, msg) ->
        Error (Error.v Error.Conflict ~op:"esmql.remote" msg)
    | Wire.Resp_error (kind, msg) ->
        Error (Error.v kind ~op:"esmql.remote" msg)
    | _ ->
        Error
          (Error.v Error.(Transport `Permanent) ~op:"esmql.remote"
             "unexpected response to a settled commit")

  let view b =
    let r =
      settle b
        (Transport.Remote_session.view b.rs)
        ~ok:(function
          | Wire.Resp_view (v, rows) -> Ok (v, rows)
          | resp -> (
              match commit_of_resp resp with
              | Error e -> Error e
              | Ok _ ->
                  Error
                    (Error.v Error.(Transport `Permanent) ~op:"esmql.remote"
                       "unexpected response to a settled view")))
    in
    match r with
    | Error e -> Error e
    | Ok (_v, rows) -> wrap (fun () -> Table.of_rows b.vschema rows)

  let put b rows =
    settle b (Transport.Remote_session.submit b.rs (`Set rows))
      ~ok:commit_of_resp

  let batch b ds =
    settle b (Transport.Remote_session.submit b.rs (`Batch ds))
      ~ok:commit_of_resp

  let close b =
    Transport.Remote_session.close b.rs;
    Store.close b.store
end

(* ------------------------------------------------------------------ *)

let make ?dir kind (cv : Check.cview) : t =
  match kind with
  | Mem -> B ((module Mem_b), Mem_b.create cv)
  | Store -> B ((module Store_b), Store_b.create ?dir cv)
  | Remote -> B ((module Remote_b), Remote_b.create cv)

let label (B ((module M), b)) = M.label b
let version (B ((module M), b)) = M.version b
let view (B ((module M), b)) = M.view b
let put (B ((module M), b)) rows = M.put b rows
let batch (B ((module M), b)) ds = M.batch b ds
let close (B ((module M), b)) = M.close b
