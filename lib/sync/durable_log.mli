(** The durable on-disk oplog format: length-prefixed, checksummed
    append/replay framing for oplog entries and snapshots (see
    [docs/SYNC.md], "Durability").

    This module is the {e framing} layer only — payloads are opaque
    strings (the store encodes operations and views through a
    {!Store.op_codec}, typically {!Wire.durable_op_codec}).  Two files
    live in a log directory:

    - [log.bin] — an 8-byte header ([magic, format version]) followed by
      entry records appended in commit order; {!compact} may rewrite it
      whole (same tmp + fsync + rename discipline as the snapshot) to
      drop the prefix already covered by the durable snapshot, pinning
      the drop point with a leading base ('B') record;
    - [snapshot.bin] — the same header and {e one} snapshot record,
      replaced atomically (write-tmp, fsync, rename) at each snapshot.

    Each record is [tag (1) | payload length (4, LE) | CRC-32 of payload
    (4, LE) | payload].  Entry ('E') payloads carry the version, the
    session and the encoded operation; the snapshot ('S') payload
    carries the version and the encoded A view; the base ('B') payload
    is the compaction horizon — the version at or below which entries
    were dropped because the snapshot already reflects them.  A fresh
    log never contains a 'B' record, so the fresh-format golden
    fixtures stay byte-stable within format version 1.

    {!load} is the crash-tolerant reader: it accepts exactly the
    artifacts a real crash produces — a torn final record (truncated),
    an entry re-appended after a partial failure (deduplicated), a
    missing or invalid snapshot file (ignored; the log holds the full
    history) — and classifies everything else ({!Esm_core.Error.Corrupt}):
    bad magic, unknown format version, a mid-file checksum mismatch, an
    undecodable payload, a version gap.

    Chaos site: ["sync.durable.write"] fires before each record write,
    so fault injection covers the persistence path; {!append_entry}
    restores the pre-append length on an injected fault, keeping the
    file and the in-memory store agreeing. *)

open Esm_core

(** {1 Format constants} *)

val format_version : int
(** The on-disk format version byte (today: [1]).  {!load} refuses any
    other value as [Corrupt] — bump it when the record layout or the
    payload codec changes incompatibly. *)

val log_file : string -> string
(** [log_file dir] is [dir ^ "/log.bin"]. *)

val snapshot_file : string -> string
(** [snapshot_file dir] is [dir ^ "/snapshot.bin"]. *)

val crc32 : string -> int32
(** The CRC-32 (IEEE 802.3) of a string — exposed for the format tests. *)

(** {1 Fsync policy} *)

type fsync_policy =
  | Fsync_always  (** fsync after every record: no acked commit is lost *)
  | Fsync_every of int
      (** group commit: fsync once per [n] records — a crash loses at
          most the last unsynced group *)
  | Fsync_never  (** leave flushing to the OS *)

val fsync_name : fsync_policy -> string

(** {1 Writing} *)

type writer

val create : dir:string -> fsync:fsync_policy -> unit -> writer
(** Start a {e fresh} log in [dir] (created if missing): truncates any
    existing [log.bin], writes the header, removes a stale
    [snapshot.bin].  Resuming an existing directory is {!open_append}'s
    job (via [Store.reopen]). *)

val open_append : dir:string -> fsync:fsync_policy -> valid:int -> writer
(** Continue an existing log, truncating [log.bin] to [valid] bytes
    first (the validated prefix {!load} reported — this is what discards
    a torn tail). *)

val append_entry :
  writer -> version:int -> session:string -> payload:string ->
  (unit, Error.t) result
(** Append one entry record, honouring the fsync policy.  On an injected
    fault at ["sync.durable.write"] the file is restored to its
    pre-append length and the error is returned — the commit must abort
    whole. *)

val write_snapshot :
  writer -> version:int -> payload:string -> (unit, Error.t) result
(** Replace [snapshot.bin] atomically (tmp + fsync + rename).  A fault
    here is returned, not raised: the caller degrades gracefully — the
    log still holds the full history, only replay length suffers. *)

val compact :
  writer ->
  horizon:int ->
  entries:(int * string * string) list ->
  (unit, Error.t) result
(** Rewrite [log.bin] as header + base record ([horizon]) + the given
    retained entries ([(version, session, payload)], oldest first,
    versions dense from [horizon + 1]) — built in [log.bin.tmp],
    fsynced, renamed over the old log, then the writer switched to the
    new file.  The caller must have a durable snapshot at a version
    [>= horizon] in [snapshot.bin] first, or the dropped prefix becomes
    unrecoverable; [Store] enforces that ordering.

    Atomic under crashes: a kill at any stage (tmp record writes, after
    the tmp fsync, after the rename, after the fd switch — each a tick
    of the {!set_kill_at} clock) leaves either the old full log (a
    stale [log.bin.tmp] is discarded on the next open) or the new
    compacted one, and {!load} recovers the exact pre-kill head from
    both.  A chaos fault at ["sync.durable.compact"] (fired before any
    byte is written) is returned for the store to absorb — compaction
    is an optimisation, never required for correctness. *)

val sync : writer -> unit
(** Force an fsync now, whatever the policy. *)

val close : writer -> unit

(** {1 Reading} *)

type raw_entry = { version : int; session : string; payload : string }

type recovered = {
  entries : raw_entry list;
      (** validated, deduplicated, versions dense from [horizon + 1],
          oldest first *)
  snapshot : (int * string) option;
      (** latest valid snapshot (version, payload); [None] when the file
          is missing or invalid — replay then starts from the initial
          state, which is only possible while [horizon = 0] *)
  valid_bytes : int;
      (** length of the validated [log.bin] prefix; pass to
          {!open_append} *)
  torn_bytes : int;  (** bytes discarded from a torn tail *)
  duplicates : int;  (** re-appended entries dropped during validation *)
  horizon : int;
      (** the base record's horizon — 0 for a never-compacted log.
          When positive, recovery {e requires} a valid snapshot at a
          version [>= horizon]: the log alone no longer reaches back to
          the initial state ([Store.reopen] reports the violation as
          [Corrupt]) *)
}

val load : dir:string -> (recovered, Error.t) result
(** Read and validate a log directory.  [Error] is always of kind
    [Corrupt] (with [op] naming the offending file) — a torn tail or a
    broken snapshot is repaired silently and reported through
    [torn_bytes] / [snapshot]. *)

(** {1 Crash simulation hooks} *)

val set_kill_at : ?exit:(unit -> unit) -> int option -> unit
(** [set_kill_at (Some n)] hard-exits the process (default
    [Unix._exit 130] — no flushing, no [at_exit]) after [n] more ticks
    of the write clock: each record write syscall is a tick, counting
    both entry-record halves (header, payload) and snapshot writes — so
    a kill can land {e mid-record} — and {!compact} adds one tick after
    each of its fsync, rename and fd switch-over stages, so the torn-
    compaction matrix can kill at every fault site of that path too.
    This is how [esm_syncd --kill-at] turns soak runs into true
    process-death recovery tests.  [None] disables the switch. *)

val writes_performed : unit -> int
(** Ticks of the write clock since process start (the [--kill-at]
    clock). *)
