(** The versioned append-only operation log behind a replicated store.

    Versions are assigned densely: the [n]-th committed operation has
    version [n], version [0] is the initial state.  One (version, state)
    snapshot, refreshed periodically, lets crash recovery replay a
    bounded suffix instead of the whole history.  States are immutable
    values and replay is deterministic, so the newest snapshot is the
    only one recovery ever needs: keeping older ones would make memory
    grow with history, not with live state.

    Compaction introduces a {e horizon}: the version at or below which
    entries have been dropped because their effects are already folded
    into the retained snapshot.  A log with horizon 0
    retains full history and behaves exactly as before. *)

type 'op entry = { version : int; session : string; op : 'op }

type ('op, 's) t = {
  mutable entries : 'op entry list;  (** newest first *)
  mutable snapshot : int * 's;  (** seeded [(horizon, init)] *)
  mutable horizon : int;  (** entries with version <= horizon are gone *)
  snapshot_every : int;
}

let create ?(snapshot_every = 8) ?(horizon = 0) ~(init : 's) () :
    ('op, 's) t =
  if snapshot_every <= 0 then
    invalid_arg "Oplog.create: snapshot_every must be positive";
  if horizon < 0 then invalid_arg "Oplog.create: horizon must be >= 0";
  { entries = []; snapshot = (horizon, init); horizon; snapshot_every }

let horizon (t : ('op, 's) t) : int = t.horizon

let head_version (t : ('op, 's) t) : int =
  match t.entries with [] -> t.horizon | e :: _ -> e.version

let length (t : ('op, 's) t) : int = List.length t.entries

(** Append the next operation; the new head version is returned. *)
let append (t : ('op, 's) t) ~(session : string) (op : 'op) : int =
  let version = head_version t + 1 in
  t.entries <- { version; session; op } :: t.entries;
  version

(** Entries with versions strictly above [v], oldest first — the replay
    (or rebase) suffix.  Total for every integer [v] {e at or above the
    horizon} (and for any [v] when the horizon is 0): above head it is
    [[]], at or below 0 it is the whole retained log.  Below a positive
    horizon the suffix no longer exists — asking for it is a protocol
    error surfaced as a typed [Error.Corrupt]; callers that can resync
    should use {!read_since} instead.  The early exit at the first
    version [<= v] matches the list-filter reference precisely because
    [append] keeps the newest-first list strictly decreasing — see the
    contract note in the interface. *)
let entries_since (t : ('op, 's) t) (v : int) : 'op entry list =
  if t.horizon > 0 && v < t.horizon then
    Esm_core.Error.raise_error Corrupt ~op:"entries_since"
      "version %d is below retained horizon %d: resync from snapshot" v
      t.horizon
  else
    let rec take acc = function
      | e :: rest when e.version > v -> take (e :: acc) rest
      | _ -> acc
    in
    take [] t.entries

(** The resync-aware read: either the replay suffix or, when [v] has
    fallen below a positive horizon, the snapshot to restart from.
    Total for every integer [v]. *)
let read_since (t : ('op, 's) t) (v : int) :
    [ `Entries of 'op entry list | `Resync of int * 's ] =
  if t.horizon > 0 && v < t.horizon then
    `Resync t.snapshot
  else `Entries (entries_since t v)

let snapshot_every (t : ('op, 's) t) : int = t.snapshot_every

let snapshot_due (t : ('op, 's) t) : bool =
  head_version t mod t.snapshot_every = 0

let record_snapshot (t : ('op, 's) t) (version : int) (state : 's) : unit =
  t.snapshot <- (version, state)

(** The snapshot — where a crashed store wakes up. *)
let latest_snapshot (t : ('op, 's) t) : int * 's = t.snapshot

(** Drop every entry at or below [v], which becomes the new horizon.
    The snapshot must already reflect every dropped entry, so [v] may
    not pass it.  Returns the number of entries dropped (0 when [v] is
    at or below the horizon).  Idempotent. *)
let compact (t : ('op, 's) t) (v : int) : int =
  if v > fst t.snapshot then
    invalid_arg "Oplog.compact: the horizon may not pass the snapshot";
  if v <= t.horizon then 0
  else begin
    let keep, dropped =
      List.partition (fun e -> e.version > v) t.entries
    in
    t.entries <- keep;
    t.horizon <- v;
    List.length dropped
  end
