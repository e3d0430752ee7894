(** The versioned append-only operation log behind a replicated store
    (see [docs/SYNC.md]).

    Versions are dense: the [n]-th committed operation has version [n];
    version [0] is the initial state.  The log keeps exactly one
    (version, state) snapshot — states are immutable values and replay
    is deterministic, so crash recovery needs only the newest one and
    replays the suffix after it.  Memory is bounded by the live state
    plus the retained suffix, not by history.

    {!compact} drops a prefix no newer than the snapshot and records
    where it ends as the {e horizon}: the effects of every dropped
    entry are already reflected in that snapshot (the
    effect-quotienting reading), so nothing observable is lost — but
    replicas whose high-water mark has fallen below the horizon can no
    longer be served a suffix and must resync from the snapshot
    ({!read_since}). *)

type 'op entry = { version : int; session : string; op : 'op }

type ('op, 's) t

val create :
  ?snapshot_every:int -> ?horizon:int -> init:'s -> unit -> ('op, 's) t
(** An empty log whose seed snapshot is [(horizon, init)] — [init] must
    be the state {e at} [horizon] (default 0, the genuine initial
    state; reopening a compacted durable log passes the on-disk
    snapshot and its version).  [snapshot_every] (default 8, must be
    positive) is the snapshot period in commits. *)

val horizon : ('op, 's) t -> int
(** The compaction horizon: entries at or below it have been dropped.
    0 until the first {!compact} on a full-history log. *)

val head_version : ('op, 's) t -> int
(** The latest version; equals {!horizon} when no entries are retained. *)

val length : ('op, 's) t -> int
(** Retained entries only — history below the horizon is not counted. *)

val append : ('op, 's) t -> session:string -> 'op -> int
(** Append the next operation; returns the new head version. *)

val entries_since : ('op, 's) t -> int -> 'op entry list
(** Entries with versions strictly above the argument, oldest first —
    the replay (or rebase) suffix.

    Contract (property-tested against a list-filter reference in
    [test_durable_log.ml]): total for {e every} integer argument at or
    above the horizon — and, when the horizon is 0, for every integer
    full stop.  [v >= head_version] (including far above head) yields
    [[]]; [v <= 0] on a horizon-0 log yields every entry; and for any
    servable [v], [entries_since v] equals
    [List.filter (fun e -> e.version > v)] of the retained log, oldest
    first.  Asking for a version {e strictly below} a positive horizon
    raises a typed [Error.Corrupt] ("below retained horizon, resync
    from snapshot") rather than silently returning a truncated list —
    callers that can restart from a snapshot should use {!read_since}.
    Exactly-at-horizon is servable and yields the full retained log.

    The implementation stops scanning at the first version [<= v],
    which is equivalent to the filter only because {!append} keeps
    versions strictly decreasing newest-first — code that reconstructs
    logs by other means (e.g. durable-log replay) must preserve that
    invariant, which is why [Store.reopen] re-appends through {!append}
    after deduplicating the disk entries. *)

val read_since :
  ('op, 's) t -> int -> [ `Entries of 'op entry list | `Resync of int * 's ]
(** The resync-aware read, total for every integer: [`Entries suffix]
    when the argument is servable (same list as {!entries_since}), or
    [`Resync (version, state)] — the snapshot to restart from —
    when it has fallen below a positive horizon. *)

val snapshot_every : ('op, 's) t -> int
(** The snapshot period in commits. *)

val snapshot_due : ('op, 's) t -> bool
(** Is the head version a multiple of the snapshot period? *)

val record_snapshot : ('op, 's) t -> int -> 's -> unit
(** Replace the snapshot with [(version, state)]. *)

val latest_snapshot : ('op, 's) t -> int * 's
(** The snapshot — where a crashed store wakes up. *)

val compact : ('op, 's) t -> int -> int
(** [compact t v] drops every entry at or below [v], the new horizon,
    and returns how many it dropped (0 at or below the horizon).  [v]
    may not pass the snapshot ([Invalid_argument]), which must reflect
    every dropped entry.  [head_version] is unchanged: compaction never
    loses operations, only their already-applied representations. *)
