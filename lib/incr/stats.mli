(** The process-wide registry of named integer counters: the one place
    a count of what the stack did lives.

    A hot path resolves its counters to cells once, at module
    initialisation ({!counter}, {!memo}), and bumps the cell per
    request with no lookup; readers ask by name ({!get}, {!counts}), and
    {!since} gives one run its own counts in a process that ran others
    before.  Counters are plain mutable state — cheap, not thread-safe,
    and resettable for tests.

    The registered names, by layer:

    - memoization (each a {!memo}: cells [NAME.hit] and [NAME.miss]):
      ["query.plan"] ([Query.to_dlens] plan cache),
      ["rlens.view"] ([Rlens.get_memo]),
      ["store.view"] ([Store.view_a]/[view_b]),
      ["session.poll"] ([Session.pull] on an unchanged store);
    - session: ["session.resyncs"] — pulls that skipped to a compaction
      horizon;
    - transport core ([Transport.Core]): ["core.requests"]
      (envelopes received), ["core.executed"], ["core.dedup_hits"]
      (replays answered from cache), ["core.stale"] (old duplicate ids
      refused), ["core.overloads"] (requests shed unexecuted),
      ["core.reaped"] (idle sessions dropped);
    - chaos network ([Transport.Chaos_net]), one per fault
      class: ["net.dropped"], ["net.duped"], ["net.reordered"],
      ["net.truncated"], ["net.delayed"], ["net.half_opened"];
    - gossip ([Shard]): ["gossip.rounds"], ["gossip.shipped"]
      (entries replayed into followers), ["gossip.resyncs"] (followers
      restarted from a peer snapshot), ["gossip.skipped_edges"]
      (exchanges dropped by injected faults). *)

type counter
(** A resolved cell of the registry. *)

val counter : string -> counter
(** The counter registered under the name, created at 0 on first use. *)

val bump : counter -> unit
val add : counter -> int -> unit

val get : string -> int
(** The named counter's value ([0] if never registered). *)

val since : unit -> string -> int
(** [let count = since () in ... count name] is how much the named
    counter grew after the [since] call. *)

type memo
(** A cache's two-outcome counter. *)

val memo : string -> memo
(** The cells [NAME.hit] and [NAME.miss]. *)

val hit : memo -> unit
(** Record a cache hit. *)

val miss : memo -> unit
(** Record a cache miss (a full recomputation). *)

val counts : string -> int * int
(** [(hits, misses)] of the named memo counter ([0, 0] if never
    touched). *)

val reset : unit -> unit
(** Zero every counter (tests and bench isolation). *)
