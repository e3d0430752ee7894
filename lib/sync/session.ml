(** A client session bound to one side of a replicated store.

    A session remembers the store version it last synchronised at (its
    {e base}) and submits operations with an optimistic check against
    it.  When another session committed first the store answers with a
    typed [Conflict]; {!submit_rebase} then pulls the winning suffix —
    rebasing is just reading, because the store already replayed the
    winners through the bx — and resubmits on top, which is
    last-writer-wins {e through the bx}: the losing session's operation
    is re-applied to the state the winners produced, so whatever of the
    winners' work survives is exactly what the bx's put semantics
    preserves.

    Chaos site: ["sync.session.rebase"] (an injected fault while
    rebasing is absorbed — the pull is a pure read and can always be
    retried). *)

open Esm_core

type side = [ `A | `B ]

let poll_memo = Esm_incr.Stats.memo "session.poll"
let resyncs = Esm_incr.Stats.counter "session.resyncs"

let side_name = function `A -> "a" | `B -> "b"

type ('a, 'b, 'da, 'db) t = {
  store : ('a, 'b, 'da, 'db) Store.t;
  name : string;
  side : side;
  mutable base : int;  (** last store version this session synced at *)
}

let bind (store : ('a, 'b, 'da, 'db) Store.t) ~(name : string)
    ~(side : side) : ('a, 'b, 'da, 'db) t =
  { store; name; side; base = Store.version store }

let name t = t.name
let side t = t.side
let base t = t.base
let store t = t.store

let view (t : ('a, 'b, 'da, 'db) t) : [ `A of 'a | `B of 'b ] =
  match t.side with
  | `A -> `A (Store.view_a t.store)
  | `B -> `B (Store.view_b t.store)

(* Sessions see one view; an op on the other side is a protocol error,
   not a conflict. *)
let check_side (t : ('a, 'b, 'da, 'db) t) (op : ('a, 'b, 'da, 'db) Store.op)
    : (unit, Error.t) result =
  let ok =
    match (op, t.side) with
    | (Store.Set_a _ | Store.Batch_a _), `A -> true
    | (Store.Set_b _ | Store.Batch_b _), `B -> true
    | _ -> false
  in
  if ok then Ok ()
  else
    Error
      (Error.v Error.Other ~op:"submit"
         (Printf.sprintf "session %s is bound to the %s view but submitted %s"
            t.name (side_name t.side) (Store.op_kind op)))

let submit (t : ('a, 'b, 'da, 'db) t) (op : ('a, 'b, 'da, 'db) Store.op) :
    (int, Error.t) result =
  match check_side t op with
  | Error _ as e -> e
  | Ok () -> (
      match Store.commit ~expect:t.base ~session:t.name t.store op with
      | Ok v ->
          t.base <- v;
          Ok v
      | Error _ as e -> e)

let pull (t : ('a, 'b, 'da, 'db) t) :
    ('a, 'b, 'da, 'db) Store.op Oplog.entry list =
  (* the overwhelmingly common poll: nothing committed since this
     session's base — answer [] without touching the oplog at all *)
  if t.base = Store.version t.store then begin
    Esm_incr.Stats.hit poll_memo;
    []
  end
  else begin
    Esm_incr.Stats.miss poll_memo;
    (* compaction may have dropped the suffix this session would have
       pulled: the store's current view already reflects those entries
       (that is what made them compactable), so the session resyncs by
       skipping to the snapshot version and pulling what follows *)
    let entries =
      match Store.read_since t.store t.base with
      | `Entries es -> es
      | `Resync (v, _) ->
          Esm_incr.Stats.bump resyncs;
          Store.entries_since t.store v
    in
    t.base <- Store.version t.store;
    entries
  end

let submit_rebase (t : ('a, 'b, 'da, 'db) t)
    (op : ('a, 'b, 'da, 'db) Store.op) :
    (int * ('a, 'b, 'da, 'db) Store.op Oplog.entry list, Error.t) result =
  match check_side t op with
  | Error e -> Error e
  | Ok () -> (
      (* the rebase itself is a pure read of the oplog suffix — an
         injected fault here is absorbable, nothing was mutated *)
      (try Chaos.point "sync.session.rebase"
       with exn when Error.degradable_exn exn ->
         Chaos.note_fallback "sync.session.rebase");
      let rebased = pull t in
      match submit t op with Ok v -> Ok (v, rebased) | Error e -> Error e)
