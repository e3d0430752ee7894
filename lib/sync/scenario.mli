(** One scenario driver for every soak and recovery check of the sync
    engine (see [docs/SYNC.md], §4).

    A scenario is the paper's entangled state under load: A-side and
    B-side sessions sharing the employees store behind the
    [where dept = "Engineering" | select id, name, dept] lens.  A {!spec}
    picks the topology, the link the sessions reach the store over and
    the durability; behind it sit exactly one seeded workload, one
    accounting checker and one oracle check.

    - {b Workload.}  [ops] rounds over [sessions] clients: a round picks
      a client, refreshes its removal pool from its view, pings every
      11th round, and submits a burst of 1–4 deltas, each the removal of
      a pooled row with probability 2/3 (the same row may go twice) and
      otherwise a fresh row.  Fresh row ids stay in the client's shard
      residue class ([id mod shards]), so a pinned remote client's
      commits land at its shard.  In-process clients read every round
      (sharded, from the authoritative union, so one burst routes
      across several shards), then re-poll and wake a random bystander;
      remote clients, for which every read is a round trip, read every
      5th round and pull one round in four.  A rejected in-process
      burst must leave its store's version and views untouched.
    - {b Store-side invariants} (in-process and chaos-net links, where
      the driver owns the stores): every [max 5 (ops/8)] rounds each
      store crashes and recovers to the exact pre-crash views; sharded
      stores gossip every [gossip_every] rounds.  Each round collects
      every store's new oplog entries ({!Store.read_since}; a [`Resync]
      is a violation), and at the end the whole collected history,
      replayed one delta at a time from the initial state, must equal
      the batched store — compacted or not.  A sharded group must
      quiesce and converge to one entangled whole.
    - {b Accounting} ({!accounting_violations}): no unresolved submit,
      and every store's head equals the commits acknowledged to it; then
      every session pulls to its store's head (over a socket, to at
      least the head observed when the check starts).
    - {b Oracle} ({!oracle_violations}): a persisted run records every
      committed version's views per store; {!check} reruns the same
      scenario uncrashed and requires each reopened store to match that
      history at its recovered version, compacted or not.
    - {b On-disk audit}: a persisted run, whose stores compact as they
      commit, ends with a fault-free {!Store.compact} and then checks
      each log on disk — no record at or below the horizon, at most 8
      retained records, a snapshot
      behind the horizon — and that a reopen reaches the pre-close head.

    Fault injection is the caller's: run the scenario inside
    {!Esm_core.Chaos.with_chaos} (the chaos net's [net.*] sites fire
    only then); every check that must not be faulted runs under
    {!Esm_core.Chaos.protected}. *)

open Esm_relational

type topology =
  | Single
  | Sharded of { shards : int; gossip_every : int }
      (** row ownership [id mod shards]; one gossip round every
          [gossip_every] workload rounds *)

type link =
  | In_process  (** local {!Session}s on the stores *)
  | Chaos_net
      (** {!Transport.Remote_session}s through one
          {!Transport.Chaos_net} per store, sessions pinned round-robin *)
  | Socket of Unix.sockaddr
      (** {!Transport.Remote_session}s against a running
          [esm_syncd --listen]; the store is not the driver's *)

type durability = Memory | Dir of string

type spec = {
  topology : topology;
  link : link;
  durability : durability;
  seed : int;
  ops : int;
  sessions : int;
}

val store : ?dir:string -> seed:int -> size:int -> unit -> Wire.rstore
(** The unsharded employees store every mode serves: [snapshot_every:8],
    persisted to [dir] under [Fsync_every 8] when given (a fresh log:
    one already in [dir] is truncated). *)

val resume :
  dir:string -> seed:int -> size:int -> unit -> (Wire.rstore, Esm_core.Error.t) result
(** {!store} persisted to [dir], resuming the durable log there
    ({!Store.reopen}) when [dir] holds one, and starting a fresh log
    when it does not.  [seed] and [size] must name the initial table
    the log was started from. *)

type report = {
  lines : string list;  (** summary lines, in print order *)
  verdict : string;  (** the one-line verdict, printed when clean *)
  violations : string list;
  removed : int;  (** Remove deltas in fully committed bursts *)
  spanning : int;  (** bursts the router split across several stores *)
  horizons : int array;
      (** each owned store's horizon before the end-of-run compaction *)
}

val run : spec -> report
(** Drive the workload and every check that applies to the spec.
    Stores the driver owns are closed before returning. *)

val check : ?chaos:Esm_core.Chaos.t -> spec -> report
(** The recovery check for a persisted, possibly killed, run of [spec]
    (whose durability names the directory): rerun the identical
    scenario into [DIR.oracle] under [chaos] (the same schedule the
    killed run saw), then reopen each store of [DIR] outside chaos and
    require its views at the recovered version to match the oracle's
    history. *)

val print : report -> int
(** Print the summary, then the verdict or one [VIOLATION:] line per
    violation; [0] when clean, [1] otherwise. *)

(** {1 The checkers} *)

val accounting_violations :
  heads:int array -> acked:int array -> unresolved:int -> string list
(** No unresolved submit, and per store [heads.(i) = acked.(i)]. *)

type history = (int, Table.t * Table.t) Hashtbl.t
(** Committed version → (A view, B view) of one store. *)

val oracle_violations :
  history -> store:string -> int * Table.t * Table.t -> string list
(** A recovered [(version, A view, B view)] must appear verbatim in the
    history. *)
