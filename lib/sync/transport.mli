(** A real transport for the sync engine: length-framed {!Wire}
    messages over byte streams, a multiplexing non-blocking server, a
    retrying client, and a deterministic chaos network for testing the
    whole stack under loss (see [docs/SYNC.md], "Transport, retries,
    and overload").

    The layering, bottom up:

    - {!Frame} — length-prefixed framing with an incremental decoder
      whose failures are typed values, never exceptions;
    - {!Envelope} — the idempotency layer: every request carries a
      session name and a per-session monotonic request id, so a retry
      after a half-open connection can be deduplicated server-side;
    - {!Core} — the transport-independent server brain: envelope
      dedup, per-connection load shedding ({!Esm_core.Error.Overload}),
      dead-session reaping, each counted in a ["core.*"]
      {!Esm_incr.Stats} counter;
    - {!Server} — a [select]-driven non-blocking Unix-domain/TCP
      listener multiplexing hundreds of connections over one
      {!Wire.server}, with heartbeat reaping and clean SIGTERM drain;
    - {!Remote_session} — the client: the same
      [bind]/[submit]/[pull] surface as {!Session},
      over any {!Remote_session.endpoint}, with per-request deadlines
      and bounded {!Retry} backoff;
    - {!Chaos_net} — an in-process endpoint that feeds the real
      {!Core} through real {!Frame} decoding while injecting
      deterministic faults at the [net.*] chaos sites. *)

open Esm_core
open Esm_relational

(** {1 Length-prefixed framing} *)

module Frame : sig
  val max_payload : int
  (** Frames above this many payload bytes are refused by both
      directions (16 MiB) — a mangled length header cannot make the
      reader allocate unboundedly. *)

  val encode : string -> string
  (** 4-byte big-endian payload length, then the payload.
      @raise Invalid_argument if the payload exceeds {!max_payload}
      (a programming error, not a network condition). *)

  type reader
  (** An incremental decoder: push byte chunks in, pull complete
      payloads out.  Mangled input surfaces as a typed
      [Error.Transport `Permanent] {e value} — the stream is
      desynchronised and the connection must drop — never as an
      exception and never as a silently resynchronised frame. *)

  val reader : unit -> reader
  val push : reader -> string -> unit

  val next : reader -> (string option, Error.t) result
  (** The next complete payload; [Ok None] when more bytes are needed.
      After an [Error] the reader is poisoned and keeps returning it. *)

  val eof : reader -> (unit, Error.t) result
  (** Declare end-of-stream: an error if the reader holds a partial
      frame (the peer died mid-frame — a truncation, typed
      [Transport `Transient]). *)

  val buffered : reader -> int
end

(** {1 Request/response envelopes} *)

module Envelope : sig
  type req = { id : int; session : string; body : string }
  (** [id] is the idempotency key: per-session, strictly increasing.
      The client bumps it for every {e logical} send and keeps it when
      resending after a transient failure — the server then answers a
      replayed request from its dedup cache instead of re-executing. *)

  val render_req : req -> string
  val parse_req : string -> (req, Error.t) result

  type resp = { rid : int; body : string }

  val render_resp : resp -> string
  val parse_resp : string -> (resp, Error.t) result
end

(** {1 The transport-independent server core} *)

module Core : sig
  type t

  val create : ?max_pending:int -> Wire.server -> t
  (** [max_pending] (default 64) bounds a connection's pending-response
      queue: a request arriving beyond it is answered with a typed
      [error overload] {e without being executed} and without touching
      the dedup window — load shedding that stays idempotent. *)

  val handle_payload : t -> now:float -> pending:int -> string -> string
  (** Process one request envelope and return the response envelope.
      Dedup semantics, per session: an id above the session's
      high-water mark executes (and its response is cached); the
      high-water id itself is answered from the cache (the retransmit
      case); anything below is a stale duplicate and is refused with a
      typed transport error.  Never raises: frame-level garbage,
      parse failures and bx errors all come back as [error] responses. *)

  val touch : t -> session:string -> now:float -> unit
  val reap : t -> now:float -> idle_timeout:float -> string list
  (** Drop sessions (dedup window + {!Wire} binding) with no traffic
      since [now - idle_timeout]; returns the reaped names. *)

  val wire : t -> Wire.server
end

(** {1 Socket addresses} *)

val addr_of_string : string -> (Unix.sockaddr, Error.t) result
(** ["unix:PATH"], ["HOST:PORT"] or [":PORT"] (loopback). *)

val string_of_addr : Unix.sockaddr -> string

(** {1 The non-blocking socket server} *)

module Server : sig
  type config = {
    max_pending : int;
        (** per-connection response-queue bound: past it, requests
            already read are shed as [Overload] and the connection is
            not read again until its client drains the queue *)
    max_conns : int;  (** accepted connections beyond this are shed *)
    idle_timeout : float;  (** heartbeat bound before a conn is reaped *)
    drain_grace : float;  (** max seconds to flush queues on shutdown *)
  }

  val default_config : config

  type t

  val listen :
    ?config:config -> ?clock:Retry.clock -> Unix.sockaddr -> Wire.server -> t
  (** Bind, listen and return a stepping server.  Unix-domain paths are
      unlinked first; SIGPIPE is ignored process-wide (broken peers
      must surface as [EPIPE] transport errors, not kill the daemon). *)

  val addr : t -> Unix.sockaddr
  (** The actual bound address (resolves port 0). *)

  val step : t -> timeout:float -> unit
  (** One [select] round: accept, read (decode frames, dispatch to
      {!Core}), write, reap idle connections and sessions.  Never
      blocks longer than [timeout] seconds. *)

  val run : t -> unit
  (** [step] until {!request_shutdown} has been called and every
      connection's response queue has drained (or [drain_grace]
      expires), then close everything.  The clean-SIGTERM path: install
      a handler that calls {!request_shutdown} and let [run] return. *)

  val request_shutdown : t -> unit
  (** Stop accepting; [run] drains queued responses and returns.
      Safe to call from a signal handler. *)

  val shutting_down : t -> bool
  val conn_count : t -> int
  val core : t -> Core.t
  val close : t -> unit
end

(** {1 The retrying client} *)

module Remote_session : sig
  type endpoint = {
    ep_send : string -> (unit, Error.t) result;
        (** send one frame payload *)
    ep_recv : timeout:float -> (string, Error.t) result;
        (** next frame payload; [Error.Timeout] when none arrived *)
    ep_reconnect : unit -> (unit, Error.t) result;
        (** drop the transport and establish a fresh one *)
    ep_close : unit -> unit;
  }

  val tcp_endpoint :
    ?pump:(unit -> unit) -> ?clock:Retry.clock -> Unix.sockaddr -> endpoint
  (** A blocking-connect, [select]-deadline TCP/Unix-domain endpoint.
      [pump] is called inside receive waits — the hook that lets a
      single-threaded test step an in-process {!Server} while its own
      client blocks.  All [Unix_error]s surface classified
      ({!Esm_core.Error.of_unix_error}). *)

  type t

  val bind :
    ?policy:Retry.policy ->
    ?clock:Retry.clock ->
    endpoint ->
    name:string ->
    side:Session.side ->
    (t, Error.t) result
  (** Connect and [hello] — the remote analogue of {!Session.bind}.
      The policy's [seed] and the session name key the jitter, so two
      sessions never share a backoff schedule. *)

  val name : t -> string
  val side : t -> Session.side
  val base : t -> int
  (** The server version this session last synchronised at (mirrors
      the server-side {!Session.base}). *)

  val request : t -> Wire.request -> (Wire.response, Error.t) result
  (** One request under the full robustness policy: fresh envelope id;
      per-attempt timeout; on transient failures (timeout, transport,
      overload) reconnect if needed and {e resend the same id} — the
      server dedups, so a commit is applied at most once even across a
      half-open connection; on retryable {e execution} failures
      (conflict, injected fault) re-execute under a fresh id; bounded
      attempts and an overall deadline ([Error.Timeout]). *)

  val submit :
    t -> [ `Set of Row.t list | `Batch of Row_delta.t list ] ->
    (int, Error.t) result
  (** Submit this session's next write; on success the base advances to
      the returned version.  The server applies it with
      {!Session.submit_rebase} semantics, so like that call this is
      last-writer-wins through the bx. *)

  val pull : t -> (int * int, Error.t) result
  (** [(version, entries-received)] — advances the base like
      {!Session.pull}. *)

  val view : t -> (int * Row.t list, Error.t) result
  val ping : t -> (unit, Error.t) result
  val bye : t -> (unit, Error.t) result

  val resolve : t -> (Wire.response, Error.t) result
  (** Resend the last envelope id once more (fresh attempt budget) to
      settle an in-doubt request — after {!request} fails with a
      transient error, the server may or may not have executed it;
      [resolve] asks.  By dedup, this can never double-apply. *)

  val close : t -> unit
end

(** {1 The deterministic chaos network} *)

module Chaos_net : sig
  (** An in-process "network" between {!Remote_session} endpoints and a
      real {!Core}: client bytes travel through real {!Frame} encoding
      and decoding, but every frame passes the [net.*] chaos sites —
      ["net.drop"], ["net.dup"], ["net.reorder"], ["net.truncate"],
      ["net.delay"], ["net.halfopen"] — whose firing is decided by the
      installed {!Esm_core.Chaos} instance, so a fixed seed replays the
      exact same loss pattern, and every fault that fires is counted
      in its ["net.*"] {!Esm_incr.Stats} counter ([net.dropped],
      [net.duped], ...).  With no chaos installed the network is
      perfect.  Time is the shared manual clock: receive waits advance
      it, so timeouts and backoff are deterministic too. *)

  type t

  val create :
    ?max_pending:int -> ?clock:Retry.clock -> Wire.server -> t
  (** [clock] should be a {!Retry.manual_clock} (the default makes
      one); pass the same clock to {!Remote_session.bind}. *)

  val clock : t -> Retry.clock

  val endpoint : t -> Remote_session.endpoint
  (** A fresh client connection through the chaos net.  Reconnecting
      abandons any in-flight frames (they are lost with the old
      connection) and clears half-open state — exactly what a real
      reconnect does. *)

  val drain : t -> unit
  (** Deliver every in-flight frame with injection suspended
      ({!Esm_core.Chaos.protected}) — "the network heals".  Responses
      already queued stay queued for their clients. *)
end
