(** Sharded stores with gossip replication (see [docs/SYNC.md],
    "Sharding and compaction").

    Partition one replicated {!Store} across [N] shards with a
    deterministic key→shard router; each shard is an ordinary store
    over its key range, keeping the single-store guarantees for its
    partition.  Shards replicate each other by anti-entropy gossip:
    shard [i] holds a {!Store.follower} replica of each peer [j] and
    each round pulls the peer's oplog suffix above the replica's
    high-water mark ({!Store.read_since}), replaying it entry by entry.
    A peer that compacted below the mark answers [`Resync] — the typed
    "below retained horizon" protocol — and the replica restarts from
    the peer's snapshot before draining the rest of the suffix.

    Once gossip quiesces ({!in_sync}), the single-store convergence
    invariant lifts to the cross-shard property: every shard
    reconstructs the same entangled whole from its own partition plus
    its replicas ({!Relational.converged} checks it view-for-view).

    Chaos site: ["shard.gossip"] per directed edge per round — an
    injected fault drops that exchange, which anti-entropy absorbs by
    retrying on later rounds.

    Rounds, shipped entries, resyncs and dropped edges are counted in
    the ["gossip.*"] {!Esm_incr.Stats} counters. *)

open Esm_core

type ('a, 'b, 'da, 'db) t

val make :
  stores:('a, 'b, 'da, 'db) Store.t array ->
  route:
    (('a, 'b, 'da, 'db) Store.op -> (int * ('a, 'b, 'da, 'db) Store.op) list) ->
  unit ->
  ('a, 'b, 'da, 'db) t
(** A shard group over the given stores (typically fresh, version 0 —
    followers fork at each store's current state) and router.  [route]
    splits a logical operation into per-shard sub-operations along key
    ownership; {!Relational.route_op} builds one for relational
    stores. *)

val shards : ('a, 'b, 'da, 'db) t -> int
val store : ('a, 'b, 'da, 'db) t -> int -> ('a, 'b, 'da, 'db) Store.t
val heads : ('a, 'b, 'da, 'db) t -> int array

val submit :
  ('a, 'b, 'da, 'db) t ->
  session:string ->
  ('a, 'b, 'da, 'db) Store.op ->
  (int * (int, Error.t) result) list
(** Route one logical operation and commit each part at its owning
    shard; per-shard outcomes in routing order.  Parts commit
    independently — the router's key-disjointness is what keeps a
    partial failure from leaving any single row half-updated.  A router
    that raises a typed error yields one [(-1, Error _)] outcome. *)

val gossip_round : ('a, 'b, 'da, 'db) t -> unit
(** One anti-entropy round: every directed edge [(i, j)] pulls peer
    [j]'s suffix above replica [(i,j)]'s high-water mark and replays
    it, resyncing from the peer's snapshot when compaction dropped the
    suffix.  An injected fault at ["shard.gossip"] drops that edge for
    the round. *)

val in_sync : ('a, 'b, 'da, 'db) t -> bool
(** Every replica at its peer's head.  The version check suffices for
    state agreement because follower replay is deterministic; the
    view-level invariant is {!Relational.converged}. *)

val gossip_until_quiescent : ?max_rounds:int -> ('a, 'b, 'da, 'db) t -> bool
(** Run gossip rounds until {!in_sync} (true) or [max_rounds] (default
    64) rounds pass without quiescing (false — under injected faults a
    round can lose edges, so callers soak with enough headroom). *)

(** The relational instantiation: row routers for
    [(Table.t, Table.t, Row_delta.t, Row_delta.t)] stores and the
    view-level convergence check. *)
module Relational : sig
  open Esm_relational

  type rop = (Table.t, Table.t, Row_delta.t, Row_delta.t) Store.op
  type rt = (Table.t, Table.t, Row_delta.t, Row_delta.t) t

  val hash_router :
    shards:int -> key:string list -> Schema.t -> Row.t -> int
  (** Balanced ownership: hash of the key columns' values, mod the
      shard count. *)

  val range_router : bounds:Value.t list -> key:string -> Schema.t -> Row.t -> int
  (** Range ownership over [List.length bounds + 1] shards: shard [i]
      owns keys in [[bounds.(i-1), bounds.(i))] ({!Value.compare}
      order) — the count of bounds at or below the key. *)

  val route_op :
    shards:int -> shard_of_row:(Row.t -> int) -> rop -> (int * rop) list
  (** Split along row ownership: whole-view sets partition to {e every}
      shard (an empty partition still overwrites — its rows were
      deleted); delta bursts go only to the shards owning touched
      rows. *)

  val full_view_a : rt -> int -> Table.t
  (** Shard [i]'s reconstruction of the whole A view: its own partition
      union its replicas' — sound for row-wise views, where
      select/where distribute over union. *)

  val full_view_b : rt -> int -> Table.t

  val authoritative_a : rt -> Table.t
  (** The union of every shard's own partition — what the unsharded
      store would hold. *)

  val authoritative_b : rt -> Table.t

  val converged : rt -> bool
  (** The cross-shard convergence invariant: {!in_sync} and every
      shard's reconstructed A and B views equal the authoritative
      unions. *)
end
