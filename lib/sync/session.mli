(** A client session bound to one side (A or B view) of a replicated
    store, submitting operations with optimistic version checks and
    rebasing over concurrent winners (see [docs/SYNC.md]).

    Chaos site: ["sync.session.rebase"] (absorbed — rebasing is a pure
    read of the oplog suffix). *)

open Esm_core

type side = [ `A | `B ]

val side_name : side -> string

type ('a, 'b, 'da, 'db) t

val bind :
  ('a, 'b, 'da, 'db) Store.t ->
  name:string ->
  side:side ->
  ('a, 'b, 'da, 'db) t
(** Bind a session at the store's current version. *)

val name : ('a, 'b, 'da, 'db) t -> string
val side : ('a, 'b, 'da, 'db) t -> side

val base : ('a, 'b, 'da, 'db) t -> int
(** The store version this session last synchronised at — what its
    optimistic checks compare against. *)

val store : ('a, 'b, 'da, 'db) t -> ('a, 'b, 'da, 'db) Store.t

val view : ('a, 'b, 'da, 'db) t -> [ `A of 'a | `B of 'b ]
(** The session's current view of its bound side. *)

val submit :
  ('a, 'b, 'da, 'db) t ->
  ('a, 'b, 'da, 'db) Store.op ->
  (int, Error.t) result
(** Submit with an optimistic check against {!base}.  On success the
    base advances to the new version.  A concurrent winner yields a
    typed [Conflict]; an op against the wrong side yields a typed
    [Other] protocol error; neither changes the store. *)

val pull : ('a, 'b, 'da, 'db) t -> ('a, 'b, 'da, 'db) Store.op Oplog.entry list
(** The oplog suffix committed since this session's base (oldest
    first), advancing the base to the store head — how a session
    receives rebased updates.  Polling an unchanged store ({!base} =
    store version) short-circuits to [[]] without touching the oplog;
    hit/miss counts report to the ["session.poll"] {!Esm_incr.Stats}
    counter.  When compaction dropped the suffix below this session's
    base, the pull skips to the retained horizon (the store view
    already reflects the dropped entries) and returns what follows,
    counted by the ["session.resyncs"] {!Esm_incr.Stats} counter. *)

val submit_rebase :
  ('a, 'b, 'da, 'db) t ->
  ('a, 'b, 'da, 'db) Store.op ->
  (int * ('a, 'b, 'da, 'db) Store.op Oplog.entry list, Error.t) result
(** Pull the winning suffix, then resubmit on top of it: last-writer
    wins {e through the bx} — the operation re-applies to the state the
    winners produced, so the bx's put semantics decides what of their
    work survives.  Returns the new version and the entries rebased
    over. *)
