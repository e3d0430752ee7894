(** The replicated store: any packed bx served behind a versioned
    append-only {!Oplog}, with transactional commits, optimistic version
    checks, one retained snapshot and crash recovery by replay.

    The paper's set-bx operations {e are} the session protocol — a
    client holding one view issues sets against shared hidden state —
    and the store is the piece that makes many such clients safe: every
    commit runs through {!Esm_core.Atomic.attempt}, so a failing update
    rolls back to the input state and appends {e nothing}; a stale
    [?expect] version is refused with a typed
    {!Esm_core.Error.Conflict}; and because states are immutable values
    and the set-bx laws make every transition deterministic, one
    snapshot is enough and recovery is a fold of the oplog suffix.

    Batched deltas close the ROADMAP "batch/transactional delta
    application" item: a burst of {!Esm_relational.Row_delta} edits (or
    {!Esm_modelbx.Diff} edits) coalesces into {e one} materialised view,
    one set through the bx — one index rebuild — and one oplog record,
    instead of one commit per edit.

    Chaos sites: ["sync.oplog.append"] (a commit aborts whole, keeping
    state and oplog agreeing), ["sync.store.replay"] (recovery absorbs
    the fault and replays anyway, retrying faulted entries under
    {!Esm_core.Chaos.protected} — each entry committed once already, so
    replay must not invent new failures), and ["sync.durable.write"]
    inside {!Durable_log} (an entry-write fault aborts the commit whole;
    a snapshot-write fault is absorbed — the log holds the full
    history).

    Persistence ([?persist] / {!reopen}) follows a write-ahead
    discipline: the entry record reaches the on-disk log {e before} the
    in-memory state and oplog advance, so after a process death the disk
    holds a (possibly longer, never divergent) prefix of the committed
    history and {!reopen} reconstructs a store at some committed
    version — never a partial commit. *)

open Esm_core
module Stats = Esm_incr.Stats

let ( let* ) = Result.bind

type ('a, 'b, 'da, 'db) op =
  | Set_a of 'a
  | Set_b of 'b
  | Batch_a of 'da list
      (** coalesce the burst into one A view, one set, one record *)
  | Batch_b of 'db list

let op_kind = function
  | Set_a _ -> "set_a"
  | Set_b _ -> "set_b"
  | Batch_a _ -> "batch_a"
  | Batch_b _ -> "batch_b"

(** How operations and A views serialise for the durable log: payloads
    are opaque strings at the {!Durable_log} framing layer, so a store
    over any substrate persists once it has a codec
    ({!Wire.durable_op_codec} covers relational stores).  Snapshots
    store the {e A view}; reopening reconstructs the snapshot state as
    [set_a a init], which is exact whenever the A view determines the
    state — in particular for every lens-packed store, where the state
    {e is} the A side. *)
type ('a, 'b, 'da, 'db) op_codec = {
  encode_op : ('a, 'b, 'da, 'db) op -> string;
  decode_op : string -> ('a, 'b, 'da, 'db) op;
  encode_a : 'a -> string;
  decode_a : string -> 'a;
}

type ('a, 'b, 'da, 'db) persist = {
  dir : string;
  fsync : Durable_log.fsync_policy;
  codec : ('a, 'b, 'da, 'db) op_codec;
}

let persist ?(fsync = Durable_log.Fsync_every 8) ~(dir : string)
    (codec : ('a, 'b, 'da, 'db) op_codec) : ('a, 'b, 'da, 'db) persist =
  { dir; fsync; codec }

(* The replica state machine shared by stores and followers: the bx
   code, the delta appliers, and the hidden state with the version it
   is at. *)
type ('a, 'b, 'da, 'db, 's) replica = {
  bx : ('a, 'b, 's) Concrete.set_bx;
  apply_da : 'a -> 'da list -> 'a;
      (** materialise a burst of A-side deltas against the A view *)
  apply_db : 'b -> 'db list -> 'b;
  mutable state : 's;
  mutable version : int;  (** the version [state] is at *)
}

let initial_replica ~apply_da ~apply_db bx init =
  { bx; apply_da; apply_db; state = init; version = 0 }

type ('a, 'b, 'da, 'db) t =
  | Store : {
      name : string;
      pedigree : Pedigree.t;
      r : ('a, 'b, 'da, 'db, 's) replica;
      log : (('a, 'b, 'da, 'db) op, 's) Oplog.t;
      durable : (('a, 'b, 'da, 'db) op_codec * Durable_log.writer) option;
      mutable view_cache_a : (int * 'a) option;
          (** last materialised A view, keyed by the version it was
              read at — sound because the state at a committed version
              is deterministic (replay reproduces it exactly) *)
      mutable view_cache_b : (int * 'b) option;
    }
      -> ('a, 'b, 'da, 'db) t

let make ~name ~pedigree ~log ~durable r =
  Store
    {
      name;
      pedigree = Pedigree.Replicated pedigree;
      r;
      log;
      durable;
      view_cache_a = None;
      view_cache_b = None;
    }

let of_packed ?(name = "store") ?snapshot_every ~apply_da ~apply_db ?persist
    (Concrete.Packed repr : ('a, 'b) Concrete.packed) :
    ('a, 'b, 'da, 'db) t =
  let durable =
    Option.map
      (fun { dir; fsync; codec } ->
        (codec, Durable_log.create ~dir ~fsync ()))
      persist
  in
  make ~name ~pedigree:repr.Concrete.pedigree
    ~log:(Oplog.create ?snapshot_every ~init:repr.Concrete.init ())
    ~durable
    (initial_replica ~apply_da ~apply_db repr.Concrete.bx repr.Concrete.init)

let persisted (Store s) = Option.is_some s.durable

let flush (Store s) =
  match s.durable with None -> () | Some (_, w) -> Durable_log.sync w

let close (Store s) =
  match s.durable with None -> () | Some (_, w) -> Durable_log.close w

let pedigree (Store s) = s.pedigree
let version (Store s) = s.r.version
let head_version (Store s) = Oplog.head_version s.log
let view_a_uncached (Store s) = s.r.bx.Concrete.get_a s.r.state
let view_b_uncached (Store s) = s.r.bx.Concrete.get_b s.r.state

let view_memo = Stats.memo "store.view"

(* The memoized view-read path: a poll of an unchanged store returns
   the cached materialization in O(1).  The hit path trusts cached
   bookkeeping, so it passes through the incr.hash chaos gate — an
   injected fault bypasses the cache and rematerializes under
   [protected] (a corrupted cache costs work, never a stale view). *)
let cached_view (type v) ~(version : int) ~(read : unit -> (int * v) option)
    ~(write : (int * v) option -> unit) ~(materialise : unit -> v) : v =
  let recompute () =
    let v = materialise () in
    write (Some (version, v));
    v
  in
  match read () with
  | Some (at, v) when at = version -> (
      match Chaos.point Shash.site with
      | () ->
          Stats.hit view_memo;
          v
      | exception exn when Error.degradable_exn exn ->
          Chaos.note_fallback Shash.site;
          Stats.miss view_memo;
          Chaos.protected recompute)
  | _ ->
      Stats.miss view_memo;
      recompute ()

let view_a (Store s) =
  cached_view ~version:s.r.version
    ~read:(fun () -> s.view_cache_a)
    ~write:(fun c -> s.view_cache_a <- c)
    ~materialise:(fun () -> s.r.bx.Concrete.get_a s.r.state)

let view_b (Store s) =
  cached_view ~version:s.r.version
    ~read:(fun () -> s.view_cache_b)
    ~write:(fun c -> s.view_cache_b <- c)
    ~materialise:(fun () -> s.r.bx.Concrete.get_b s.r.state)
let entries_since (Store s) v = Oplog.entries_since s.log v

let read_since (Store s) v =
  match Oplog.read_since s.log v with
  | `Entries es -> `Entries es
  | `Resync (hv, st) -> `Resync (hv, s.r.bx.Concrete.get_a st)

let horizon (Store s) = Oplog.horizon s.log

(* The single-op state transition; raises bx errors, which the commit
   and replay paths turn into rollback / protected retry. *)
let apply_op (r : ('a, 'b, 'da, 'db, 's) replica) (op : ('a, 'b, 'da, 'db) op)
    (st : 's) : 's =
  let bx = r.bx in
  match op with
  | Set_a a -> bx.Concrete.set_a a st
  | Set_b b -> bx.Concrete.set_b b st
  | Batch_a ds -> bx.Concrete.set_a (r.apply_da (bx.Concrete.get_a st) ds) st
  | Batch_b ds -> bx.Concrete.set_b (r.apply_db (bx.Concrete.get_b st) ds) st

(** The one replay step: move the replica to [version] by a bx
    transition run outside a commit — an oplog entry that committed
    once already, or a snapshot's [set_a].  By the set-bx laws the
    transition is deterministic, so a degradable failure (an injected
    fault, a distrusted index) is absorbed by retrying it under
    {!Esm_core.Chaos.protected}; any other bx error propagates and the
    replica is left untouched. *)
let replay (r : ('a, 'b, 'da, 'db, 's) replica) ~(version : int)
    (transition : 's -> 's) : unit =
  let next =
    try transition r.state
    with exn when Error.degradable_exn exn ->
      Chaos.note_fallback "sync.store.replay";
      Chaos.protected (fun () -> transition r.state)
  in
  r.state <- next;
  r.version <- version

let replay_entry r (e : _ Oplog.entry) =
  replay r ~version:e.Oplog.version (apply_op r e.Oplog.op)

(* Make the snapshot [(version, st)] durable as its A view (a no-op on
   an in-memory store). *)
let persist_snapshot durable r ~version st =
  match durable with
  | None -> Ok ()
  | Some (codec, w) ->
      Durable_log.write_snapshot w ~version
        ~payload:(codec.encode_a (r.bx.Concrete.get_a st))

(* ------------------------------------------------------------------ *)
(* Snapshot-anchored compaction                                        *)
(* ------------------------------------------------------------------ *)

(* The one compaction policy: once a due snapshot is durable and the
   retained suffix exceeds this many periods, {!commit} drops the oplog
   through the previous period, so a reader within a period of the head
   never has to resync. *)
let retained_periods = 8

(* Drop the oplog prefix at or below [horizon], [log.bin] first
   (write-ahead for truncation), so a failure compacts nothing.
   [snapshot.bin] must hold a snapshot at or above [horizon]. *)
let drop_through (Store s : ('a, 'b, 'da, 'db) t) (horizon : int) :
    (int, Error.t) result =
  let* () =
    match s.durable with
    | None -> Ok ()
    | Some (codec, w) ->
        Durable_log.compact w ~horizon
          ~entries:
            (List.map
               (fun (e : _ Oplog.entry) ->
                 (e.Oplog.version, e.Oplog.session, codec.encode_op e.Oplog.op))
               (Oplog.entries_since s.log horizon))
  in
  Ok (Oplog.compact s.log horizon)

(* The explicit compaction: make the snapshot durable, then drop the
   oplog prefix at or below it. *)
let compact (Store s as st : ('a, 'b, 'da, 'db) t) : (int, Error.t) result =
  let v, snap = Oplog.latest_snapshot s.log in
  if v <= Oplog.horizon s.log then Ok 0
  else
    let* () = persist_snapshot s.durable s.r ~version:v snap in
    drop_through st v

let commit ?expect ~(session : string) (Store s as st : ('a, 'b, 'da, 'db) t)
    (op : ('a, 'b, 'da, 'db) op) : (int, Error.t) result =
  let r = s.r in
  if r.version <> Oplog.head_version s.log then
    Error
      (Error.v Error.Other ~op:"commit"
         (Printf.sprintf
            "store %s is at version %d with oplog head %d: crashed state, \
             recover before committing"
            s.name r.version (Oplog.head_version s.log)))
  else
    match expect with
    | Some v when v <> r.version ->
        (* the oplog is the conflict evidence: someone committed the
           versions between the session's base and the head *)
        let winners =
          match Oplog.read_since s.log v with
          | `Entries es ->
              List.map (fun (e : _ Oplog.entry) -> e.Oplog.session) es
              |> List.sort_uniq String.compare
              |> String.concat ", "
          | `Resync _ -> "sessions compacted away"
        in
        Error
          (Error.v Error.Conflict ~op:"commit"
             (Printf.sprintf
                "session %s expected version %d but store %s is at %d \
                 (concurrent commits by: %s)"
                session v s.name r.version winners))
    | _ ->
        (* transactional apply: any bx failure, including an injected
           fault at the append site, leaves the input state (states are
           immutable) — nothing is appended and the store is observably
           untouched *)
        let* state' =
          Atomic.attempt
            (fun st ->
              let st = apply_op r op st in
              Chaos.point "sync.oplog.append";
              st)
            r.state
        in
        (* write-ahead: the durable entry record must reach the log
           before the in-memory commit becomes visible.  An append
           failure (an injected fault at [sync.durable.write]) aborts the
           commit whole — the file was restored to its pre-append length,
           nothing here mutated. *)
        let version = r.version + 1 in
        let* () =
          match s.durable with
          | None -> Ok ()
          | Some (codec, w) ->
              Durable_log.append_entry w ~version ~session
                ~payload:(codec.encode_op op)
        in
        r.state <- state';
        let v' = Oplog.append s.log ~session op in
        assert (v' = version);
        r.version <- version;
        if Oplog.snapshot_due s.log then begin
          Oplog.record_snapshot s.log version state';
          (* a faulted snapshot write or log rewrite leaves the full
             log valid: absorbed, not surfaced; the next snapshot retries *)
          match persist_snapshot s.durable r ~version state' with
          | Error _ -> Chaos.note_fallback "sync.durable.write"
          | Ok () ->
              let every = Oplog.snapshot_every s.log in
              if version - Oplog.horizon s.log > retained_periods * every then
                Result.iter_error
                  (fun _ -> Chaos.note_fallback "sync.durable.compact")
                  (drop_through st (version - every))
        end;
        Ok version

(** Simulate a crash: the volatile state is lost; what survives is the
    oplog and its snapshot.  The store wakes up at the snapshot with the
    suffix still un-replayed (commits are refused until {!recover}). *)
let crash (Store s : ('a, 'b, 'da, 'db) t) : unit =
  let version, snap = Oplog.latest_snapshot s.log in
  s.r.state <- snap;
  s.r.version <- version;
  (* volatile caches die with the process they model *)
  s.view_cache_a <- None;
  s.view_cache_b <- None

(** Recovery by replay: fold the oplog suffix after the snapshot back
    into the state, one {!replay} step per entry. *)
let recover (Store s : ('a, 'b, 'da, 'db) t) : unit =
  (try Chaos.point "sync.store.replay"
   with exn when Error.degradable_exn exn ->
     Chaos.note_fallback "sync.store.replay");
  List.iter (replay_entry s.r) (Oplog.entries_since s.log s.r.version)

(* ------------------------------------------------------------------ *)
(* Followers: detached replicas fed by gossip                           *)
(* ------------------------------------------------------------------ *)

type ('a, 'b, 'da, 'db) follower =
  | Follower : ('a, 'b, 'da, 'db, 's) replica -> ('a, 'b, 'da, 'db) follower

let follower (Store s : ('a, 'b, 'da, 'db) t) : ('a, 'b, 'da, 'db) follower =
  Follower { s.r with version = s.r.version }

let follower_version (Follower r) = r.version
let follower_view_a (Follower r) = r.bx.Concrete.get_a r.state
let follower_view_b (Follower r) = r.bx.Concrete.get_b r.state

let follower_apply (Follower r : ('a, 'b, 'da, 'db) follower)
    (e : ('a, 'b, 'da, 'db) op Oplog.entry) : unit =
  if e.Oplog.version <> r.version + 1 then
    Error.raise_error Error.Other ~op:"follower_apply"
      "entry version %d does not follow replica version %d" e.Oplog.version
      r.version
  else replay_entry r e

let follower_resync (Follower r : ('a, 'b, 'da, 'db) follower)
    ~(version : int) (a : 'a) : unit =
  if version > r.version then replay r ~version (r.bx.Concrete.set_a a)

(** Reopen a persisted store from [dir]: the latest valid snapshot plus
    the validated log suffix, with a torn tail truncated before the
    writer resumes appending.  The packed bx supplies what the disk does
    not: the code and the initial state — the disk supplies the
    history.  Bytes read from disk that fail to decode or replay are a
    typed [Corrupt]. *)
let reopen ?(name = "store") ?snapshot_every ~apply_da ~apply_db
    ?(fsync = Durable_log.Fsync_every 8)
    ~(codec : ('a, 'b, 'da, 'db) op_codec) ~(dir : string)
    (Concrete.Packed repr : ('a, 'b) Concrete.packed) :
    (('a, 'b, 'da, 'db) t, Error.t) result =
  let corrupt detail = Error.v Error.Corrupt ~op:"reopen" detail in
  let corrupt_of what (e : Error.t) = corrupt (what (Error.message e)) in
  let* { Durable_log.entries; snapshot; valid_bytes; horizon; _ } =
    Durable_log.load ~dir
  in
  (* an undecodable op behind a valid checksum means the payload codec
     changed under the format version byte — corruption, not a torn
     tail *)
  let* decoded =
    Atomic.attempt
      (List.map (fun (re : Durable_log.raw_entry) ->
           ( re.Durable_log.version,
             re.Durable_log.session,
             codec.decode_op re.Durable_log.payload )))
      entries
    |> Result.map_error (corrupt_of (( ^ ) "undecodable entry payload: "))
  in
  let r =
    initial_replica ~apply_da ~apply_db repr.Concrete.bx repr.Concrete.init
  in
  let restore (sv, payload) =
    Atomic.attempt
      (fun payload ->
        let a = codec.decode_a payload in
        replay r ~version:sv (r.bx.Concrete.set_a a))
      payload
  in
  (* where the oplog restarts.  A full-history log (horizon 0) replays
     from the snapshot state when one is usable (present, decodable,
     not ahead of a truncated log) and the initial state otherwise — a
     missing or broken snapshot only lengthens replay.  A compacted log
     (horizon > 0) has {e no} path back to the initial state: a usable
     snapshot at a version >= horizon is mandatory, and its absence is
     [Corrupt], not a silent full replay that would resurrect a
     pre-compaction state. *)
  let* () =
    if horizon > 0 then
      match snapshot with
      | Some ((sv, _) as snap) when sv >= horizon ->
          restore snap
          |> Result.map_error
               (corrupt_of
                  (Printf.sprintf
                     "log compacted below version %d and the snapshot \
                      payload is undecodable (%s): below retained horizon, \
                      cannot recover"
                     horizon))
      | _ ->
          Error
            (corrupt
               (Printf.sprintf
                  "log compacted below version %d but snapshot.bin is \
                   missing, invalid or older: below retained horizon, \
                   cannot recover"
                  horizon))
    else
      let head = List.fold_left (fun _ (v, _, _) -> v) 0 decoded in
      (match snapshot with
      | Some ((v, _) as snap) when v > 0 && v <= head -> (
          match restore snap with
          | Ok () -> ()
          | Error _ -> Chaos.note_fallback "sync.store.replay")
      | _ -> ());
      Ok ()
  in
  let log =
    if horizon > 0 then
      (* the snapshot doubles as the in-memory horizon: entries at or
         below it are already reflected in its state *)
      Oplog.create ?snapshot_every ~horizon:r.version ~init:r.state ()
    else begin
      let log = Oplog.create ?snapshot_every ~init:repr.Concrete.init () in
      Oplog.record_snapshot log r.version r.state;
      log
    end
  in
  List.iter
    (fun (v, session, op) ->
      if v > Oplog.horizon log then begin
        let v' = Oplog.append log ~session op in
        if v' <> v then
          (* unreachable: [Durable_log.load] validated density *)
          Error.raise_error Error.Corrupt ~op:"reopen"
            "log entries are not dense at version %d" v
      end)
    decoded;
  let writer = Durable_log.open_append ~dir ~fsync ~valid:valid_bytes in
  let store =
    make ~name ~pedigree:repr.Concrete.pedigree ~log
      ~durable:(Some (codec, writer)) r
  in
  match Atomic.attempt recover store with
  | Ok () -> Ok store
  | Error e ->
      Durable_log.close writer;
      Error (corrupt_of (( ^ ) "replay failed: ") e)
