(** The sync engine's real transport: length-framed {!Wire} messages
    over byte streams, with the robustness story built in rather than
    bolted on.

    Three ideas carry the whole file:

    {b Idempotency outranks delivery.}  A lossy network cannot promise
    a request is executed exactly once — but a {e dedup window} can
    promise it is {e applied} at most once.  Every request envelope
    carries a per-session, strictly increasing id; the server keeps,
    per session, the high-water id and its cached response.  A
    retransmit of the high-water id is answered from the cache without
    re-execution; anything below it is a stale duplicate and refused.
    The client half of the contract: bump the id for every logical
    send, {e keep} it when the outcome is unknown (timeout, broken or
    half-open connection — the retry must dedup), bump it when the
    outcome is a definite rejection (conflict, injected fault — the
    retry must re-execute).  [Error.is_transient] vs [Error.retryable]
    is exactly this distinction, made type-level.

    {b Degradation is typed.}  A connection whose response queue
    exceeds its bound gets typed [Error.Overload] answers {e without
    execution and without touching the dedup window} — shed load is
    retryable load — and the socket server stops reading it until the
    client drains its responses, so flow control, not server memory,
    absorbs a client that never reads.  Sessions that go dark are
    reaped; frames that cannot be decoded surface as typed transport
    errors, never as exceptions out of the event loop.

    {b The test network is the real stack.}  {!Chaos_net} runs the
    same {!Core} behind the same {!Frame} decoder as the socket
    server, but every frame crosses the deterministic [net.*] chaos
    sites — so the soak's convergence and no-lost/no-duplicated-commit
    checks exercise precisely the code a real socket exercises. *)

open Esm_core
open Esm_relational

let terr flag ~op fmt =
  Format.kasprintf (fun detail -> Error.v (Error.Transport flag) ~op detail) fmt

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

module Frame = struct
  let max_payload = 16 * 1024 * 1024

  let encode (payload : string) : string =
    let n = String.length payload in
    if n > max_payload then
      invalid_arg "Transport.Frame.encode: payload exceeds max_payload";
    let b = Bytes.create (4 + n) in
    Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
    Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
    Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
    Bytes.set b 3 (Char.chr (n land 0xff));
    Bytes.blit_string payload 0 b 4 n;
    Bytes.unsafe_to_string b

  type reader = {
    buf : Buffer.t;
    mutable pos : int;  (** consumed prefix of [buf] *)
    mutable failed : Error.t option;
  }

  let reader () = { buf = Buffer.create 256; pos = 0; failed = None }
  let buffered (r : reader) : int = Buffer.length r.buf - r.pos
  let push (r : reader) (s : string) : unit = Buffer.add_string r.buf s

  (* Drop the consumed prefix once it dominates the buffer, so a
     long-lived connection does not grow its buffer forever. *)
  let compact (r : reader) : unit =
    if r.pos > 4096 && r.pos > buffered r then begin
      let rest = Buffer.sub r.buf r.pos (buffered r) in
      Buffer.clear r.buf;
      Buffer.add_string r.buf rest;
      r.pos <- 0
    end

  let next (r : reader) : (string option, Error.t) result =
    match r.failed with
    | Some e -> Error e
    | None ->
        if buffered r < 4 then Ok None
        else begin
          let b i = Char.code (Buffer.nth r.buf (r.pos + i)) in
          let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
          if len > max_payload then begin
            (* a mangled header: there is no honest way to find the next
               frame boundary, so the stream is poisoned for good *)
            let e =
              terr `Permanent ~op:"frame"
                "length %d exceeds max payload %d — stream desynchronised"
                len max_payload
            in
            r.failed <- Some e;
            Error e
          end
          else if buffered r < 4 + len then Ok None
          else begin
            let payload = Buffer.sub r.buf (r.pos + 4) len in
            r.pos <- r.pos + 4 + len;
            compact r;
            Ok (Some payload)
          end
        end

  let eof (r : reader) : (unit, Error.t) result =
    match r.failed with
    | Some e -> Error e
    | None ->
        if buffered r = 0 then Ok ()
        else
          Error
            (terr `Transient ~op:"frame"
               "stream truncated mid-frame (%d byte(s) buffered)" (buffered r))
end

(* ------------------------------------------------------------------ *)
(* Envelopes                                                           *)
(* ------------------------------------------------------------------ *)

module Envelope = struct
  type req = { id : int; session : string; body : string }

  let render_req { id; session; body } =
    Printf.sprintf "%d @%s %s" id session body

  let perr fmt =
    Format.kasprintf (fun d -> Error (Error.v Error.Parse ~op:"envelope" d)) fmt

  let cut (s : string) : string * string =
    match String.index_opt s ' ' with
    | None -> (s, "")
    | Some i ->
        (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

  let parse_req (s : string) : (req, Error.t) result =
    let idw, rest = cut (String.trim s) in
    match int_of_string_opt idw with
    | None -> perr "expected '<id> @<session> <request>', got %S" s
    | Some id -> (
        let sessw, body = cut rest in
        if String.length sessw < 2 || sessw.[0] <> '@' then
          perr "expected '@<session>' after the id in %S" s
        else
          match String.sub sessw 1 (String.length sessw - 1) with
          | session -> Ok { id; session; body = String.trim body })

  type resp = { rid : int; body : string }

  let render_resp { rid; body } = Printf.sprintf "%d %s" rid body

  let parse_resp (s : string) : (resp, Error.t) result =
    let idw, body = cut (String.trim s) in
    match int_of_string_opt idw with
    | None -> perr "expected '<id> <response>', got %S" s
    | Some rid -> Ok { rid; body = String.trim body }
end

(* ------------------------------------------------------------------ *)
(* The transport-independent server core                               *)
(* ------------------------------------------------------------------ *)

module Core = struct
  type window = { mutable max_seen : int; mutable cached : string }

  type stats = {
    mutable requests : int;
    mutable executed : int;
    mutable dedup_hits : int;
    mutable stale : int;
    mutable overloads : int;
    mutable reaped : int;
  }

  type t = {
    wire : Wire.server;
    max_pending : int;
    dedup : (string, window) Hashtbl.t;
    last_seen : (string, float) Hashtbl.t;
    stats : stats;
  }

  let create ?(max_pending = 64) (wire : Wire.server) : t =
    {
      wire;
      max_pending;
      dedup = Hashtbl.create 32;
      last_seen = Hashtbl.create 32;
      stats =
        {
          requests = 0;
          executed = 0;
          dedup_hits = 0;
          stale = 0;
          overloads = 0;
          reaped = 0;
        };
    }

  let wire t = t.wire
  let stats t = t.stats

  let touch t ~session ~now = Hashtbl.replace t.last_seen session now

  let error_body kind fmt =
    Format.kasprintf
      (fun d -> Wire.render_response (Wire.Resp_error (kind, d)))
      fmt

  (* Execute one wire request line on behalf of [session].  Every bx
     failure — including an injected chaos fault inside the commit
     path — becomes an [error] response; only genuine programming
     errors propagate. *)
  let execute t ~session (body : string) : string =
    t.stats.executed <- t.stats.executed + 1;
    try Wire.handle_line t.wire ~session body
    with exn when Error.is_bx_exn exn -> (
      match Error.of_exn exn with
      | Some e -> error_body e.Error.kind "%s" (Error.message e)
      | None -> error_body Error.Other "%s" (Printexc.to_string exn))

  let handle_payload t ~(now : float) ~(pending : int) (payload : string) :
      string =
    t.stats.requests <- t.stats.requests + 1;
    match Envelope.parse_req payload with
    | Error e ->
        (* no id to echo: answer on id 0, which no client awaits *)
        Envelope.render_resp
          { rid = 0; body = error_body e.Error.kind "%s" (Error.message e) }
    | Ok { id; session; body } -> (
        touch t ~session ~now;
        let reply body = Envelope.render_resp { rid = id; body } in
        match Hashtbl.find_opt t.dedup session with
        | Some w when id < w.max_seen ->
            t.stats.stale <- t.stats.stale + 1;
            reply
              (error_body (Error.Transport `Permanent)
                 "envelope: stale request id %d (high-water %d)" id w.max_seen)
        | Some w when id = w.max_seen ->
            t.stats.dedup_hits <- t.stats.dedup_hits + 1;
            reply w.cached
        | _ when pending > t.max_pending ->
            (* shed unexecuted, dedup untouched: the retry (same id,
               quieter moment) executes normally *)
            t.stats.overloads <- t.stats.overloads + 1;
            reply
              (error_body Error.Overload
                 "connection has %d pending responses (max %d)" pending
                 t.max_pending)
        | found ->
            let resp = execute t ~session body in
            (match found with
            | Some w ->
                w.max_seen <- id;
                w.cached <- resp
            | None ->
                Hashtbl.replace t.dedup session { max_seen = id; cached = resp });
            reply resp)

  let reap t ~(now : float) ~(idle_timeout : float) : string list =
    let dead =
      Hashtbl.fold
        (fun session last acc ->
          if now -. last > idle_timeout then session :: acc else acc)
        t.last_seen []
    in
    List.iter
      (fun session ->
        Hashtbl.remove t.last_seen session;
        Hashtbl.remove t.dedup session;
        Wire.drop_session t.wire session;
        t.stats.reaped <- t.stats.reaped + 1)
      dead;
    List.sort compare dead
end

(* ------------------------------------------------------------------ *)
(* Socket addresses                                                    *)
(* ------------------------------------------------------------------ *)

let addr_of_string (s : string) : (Unix.sockaddr, Error.t) result =
  let malformed () =
    Error
      (terr `Permanent ~op:"addr"
         "expected 'unix:PATH', 'HOST:PORT' or ':PORT', got %S" s)
  in
  if String.length s > 5 && String.sub s 0 5 = "unix:" then
    Ok (Unix.ADDR_UNIX (String.sub s 5 (String.length s - 5)))
  else
    match String.rindex_opt s ':' with
    | None -> malformed ()
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | None -> malformed ()
        | Some port -> (
            let host = if host = "" then "127.0.0.1" else host in
            match Unix.inet_addr_of_string host with
            | ip -> Ok (Unix.ADDR_INET (ip, port))
            | exception _ -> (
                match Unix.gethostbyname host with
                | { Unix.h_addr_list = [||]; _ } -> malformed ()
                | { Unix.h_addr_list; _ } ->
                    Ok (Unix.ADDR_INET (h_addr_list.(0), port))
                | exception Not_found -> malformed ())))

let string_of_addr = function
  | Unix.ADDR_UNIX path -> "unix:" ^ path
  | Unix.ADDR_INET (ip, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port

let ignore_sigpipe () =
  (* a peer that dies mid-write must surface as EPIPE, not kill us *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* The non-blocking socket server                                      *)
(* ------------------------------------------------------------------ *)

module Server = struct
  type config = {
    max_pending : int;
    max_conns : int;
    idle_timeout : float;
    drain_grace : float;
  }

  let default_config =
    { max_pending = 64; max_conns = 1024; idle_timeout = 30.0; drain_grace = 5.0 }

  type conn = {
    fd : Unix.file_descr;
    reader : Frame.reader;
    outbox : string Queue.t;
    mutable wbuf : string;
    mutable wpos : int;
    mutable last_activity : float;
    mutable closing : bool;  (** flush the outbox, then die *)
    mutable dead : bool;
  }

  type t = {
    mutable listen_fd : Unix.file_descr option;
    bound : Unix.sockaddr;
    unix_path : string option;
    config : config;
    clock : Retry.clock;
    core : Core.t;
    mutable conns : conn list;
    mutable shutdown : bool;
    mutable closed : bool;
  }

  let listen ?(config = default_config) ?(clock = Retry.system_clock)
      (addr : Unix.sockaddr) (wire : Wire.server) : t =
    ignore_sigpipe ();
    let unix_path =
      match addr with
      | Unix.ADDR_UNIX path ->
          (try Unix.unlink path with Unix.Unix_error _ -> ());
          Some path
      | _ -> None
    in
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    (match addr with
    | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | _ -> ());
    Unix.bind fd addr;
    Unix.listen fd 128;
    Unix.set_nonblock fd;
    {
      listen_fd = Some fd;
      bound = Unix.getsockname fd;
      unix_path;
      config;
      clock;
      core = Core.create ~max_pending:config.max_pending wire;
      conns = [];
      shutdown = false;
      closed = false;
    }

  let addr t = t.bound
  let core t = t.core
  let conn_count t = List.length t.conns
  let shutting_down t = t.shutdown
  let request_shutdown t = t.shutdown <- true

  let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

  let close t =
    if not t.closed then begin
      List.iter (fun c -> close_fd c.fd) t.conns;
      t.conns <- [];
      Option.iter close_fd t.listen_fd;
      t.listen_fd <- None;
      Option.iter
        (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
        t.unix_path;
      t.closed <- true
    end

  let pending (c : conn) : int =
    Queue.length c.outbox + if c.wpos < String.length c.wbuf then 1 else 0

  let enqueue (c : conn) (payload : string) : unit =
    Queue.add (Frame.encode payload) c.outbox

  (* Decode every complete frame buffered on [c] and answer it.  A
     framing error gets a best-effort typed error response, then the
     connection flushes and dies — the stream cannot be re-synced. *)
  let dispatch t (c : conn) : unit =
    let rec go () =
      match Frame.next c.reader with
      | Ok None -> ()
      | Ok (Some payload) ->
          let resp =
            Core.handle_payload t.core ~now:(c.last_activity)
              ~pending:(pending c) payload
          in
          enqueue c resp;
          go ()
      | Error e ->
          enqueue c
            (Envelope.render_resp
               {
                 rid = 0;
                 body =
                   Wire.render_response
                     (Wire.Resp_error (e.Error.kind, Error.message e));
               });
          c.closing <- true
    in
    go ()

  let read_conn t (c : conn) : unit =
    if not c.closing then begin
      let buf = Bytes.create 65536 in
      let rec go () =
        match Unix.read c.fd buf 0 (Bytes.length buf) with
        | 0 -> c.dead <- true
        | n ->
            Frame.push c.reader (Bytes.sub_string buf 0 n);
            c.last_activity <- t.clock.Retry.now ();
            if n = Bytes.length buf then go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
        | exception Unix.Unix_error _ -> c.dead <- true
      in
      go ();
      if not c.dead then dispatch t c
    end

  let write_conn (c : conn) : unit =
    let rec go () =
      if c.wpos >= String.length c.wbuf then
        match Queue.take_opt c.outbox with
        | None -> if c.closing then c.dead <- true
        | Some frame ->
            c.wbuf <- frame;
            c.wpos <- 0;
            go ()
      else
        match
          Unix.write_substring c.fd c.wbuf c.wpos
            (String.length c.wbuf - c.wpos)
        with
        | n ->
            c.wpos <- c.wpos + n;
            go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
        | exception Unix.Unix_error _ -> c.dead <- true
    in
    go ()

  let accept_loop t : unit =
    match t.listen_fd with
    | None -> ()
    | Some lfd ->
        let rec go () =
          match Unix.accept lfd with
          | fd, _peer ->
              if List.length t.conns >= t.config.max_conns then
                (* connection-level load shedding: beyond the bound we
                   cannot even promise queue space, so refuse outright *)
                close_fd fd
              else begin
                Unix.set_nonblock fd;
                t.conns <-
                  {
                    fd;
                    reader = Frame.reader ();
                    outbox = Queue.create ();
                    wbuf = "";
                    wpos = 0;
                    last_activity = t.clock.Retry.now ();
                    closing = false;
                    dead = false;
                  }
                  :: t.conns;
                go ()
              end
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | exception Unix.Unix_error _ -> ()
        in
        go ()

  let drained t =
    List.for_all
      (fun c -> Queue.is_empty c.outbox && c.wpos >= String.length c.wbuf)
      t.conns

  let step t ~(timeout : float) : unit =
    if not t.closed then begin
      let now = t.clock.Retry.now () in
      (* heartbeat reaping: connections silent past the idle bound die;
         sessions outlive their connection by 4x (a client may be
         reconnecting), then their dedup window and binding go too *)
      List.iter
        (fun c ->
          if now -. c.last_activity > t.config.idle_timeout then c.dead <- true)
        t.conns;
      ignore
        (Core.reap t.core ~now ~idle_timeout:(4.0 *. t.config.idle_timeout));
      List.iter (fun c -> if c.dead then close_fd c.fd) t.conns;
      t.conns <- List.filter (fun c -> not c.dead) t.conns;
      if t.shutdown then begin
        (* stop accepting; what is queued still flushes *)
        Option.iter close_fd t.listen_fd;
        t.listen_fd <- None
      end;
      (* back-pressure: a connection whose queued responses exceed the
         bound is not read until its client drains them, so a client
         that writes and never reads is held by TCP flow control
         instead of growing the outbox without limit *)
      let reads =
        (match t.listen_fd with Some fd -> [ fd ] | None -> [])
        @ List.filter_map
            (fun c ->
              if pending c > t.config.max_pending then None else Some c.fd)
            t.conns
      in
      let writes =
        List.filter_map
          (fun c -> if pending c > 0 then Some c.fd else None)
          t.conns
      in
      match Unix.select reads writes [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
          (match t.listen_fd with
          | Some lfd when List.mem lfd readable -> accept_loop t
          | _ -> ());
          List.iter
            (fun c -> if List.mem c.fd readable then read_conn t c)
            t.conns;
          List.iter
            (fun c -> if List.mem c.fd writable then write_conn c)
            t.conns;
          List.iter (fun c -> if c.dead then close_fd c.fd) t.conns;
          t.conns <- List.filter (fun c -> not c.dead) t.conns
    end

  let run t : unit =
    let drain_deadline = ref nan in
    let rec loop () =
      if not t.closed then begin
        step t ~timeout:0.05;
        if t.shutdown then begin
          if Float.is_nan !drain_deadline then
            drain_deadline := t.clock.Retry.now () +. t.config.drain_grace;
          if drained t || t.clock.Retry.now () > !drain_deadline then close t
          else loop ()
        end
        else loop ()
      end
    in
    loop ()
end

(* ------------------------------------------------------------------ *)
(* The retrying client                                                 *)
(* ------------------------------------------------------------------ *)

module Remote_session = struct
  type endpoint = {
    ep_send : string -> (unit, Error.t) result;
    ep_recv : timeout:float -> (string, Error.t) result;
    ep_reconnect : unit -> (unit, Error.t) result;
    ep_close : unit -> unit;
  }

  (* ---- the TCP/Unix-domain endpoint ---- *)

  let tcp_endpoint ?(pump = fun () -> ()) ?(clock = Retry.system_clock)
      (addr : Unix.sockaddr) : endpoint =
    ignore_sigpipe ();
    let fd : Unix.file_descr option ref = ref None in
    let reader = ref (Frame.reader ()) in
    let inbox : string Queue.t = Queue.create () in
    let classify exn =
      match Error.of_exn exn with
      | Some e -> e
      | None -> terr `Transient ~op:"tcp" "%s" (Printexc.to_string exn)
    in
    let disconnect () =
      Option.iter (fun f -> try Unix.close f with Unix.Unix_error _ -> ()) !fd;
      fd := None
    in
    let connect () =
      disconnect ();
      match
        let f = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
        (try Unix.connect f addr
         with exn ->
           (try Unix.close f with Unix.Unix_error _ -> ());
           raise exn);
        f
      with
      | f ->
          fd := Some f;
          reader := Frame.reader ();
          Queue.clear inbox;
          Ok ()
      | exception exn -> Error (classify exn)
    in
    let ensure () =
      match !fd with
      | Some f -> Ok f
      | None -> (
          match connect () with
          | Ok () -> Ok (Option.get !fd)
          | Error e -> Error e)
    in
    let ep_send payload =
      match ensure () with
      | Error e -> Error e
      | Ok f -> (
          let data = Frame.encode payload in
          match
            let n = String.length data in
            let rec w off =
              if off < n then w (off + Unix.write_substring f data off (n - off))
            in
            w 0
          with
          | () -> Ok ()
          | exception exn ->
              disconnect ();
              Error (classify exn))
    in
    let ep_recv ~timeout =
      let deadline = clock.Retry.now () +. timeout in
      let rec wait () =
        if not (Queue.is_empty inbox) then Ok (Queue.take inbox)
        else
          match !fd with
          | None -> Error (terr `Transient ~op:"tcp" "not connected")
          | Some f -> (
              pump ();
              let remaining = deadline -. clock.Retry.now () in
              if remaining <= 0.0 then
                Error (Error.v Error.Timeout ~op:"tcp" "no frame arrived")
              else
                (* short slices so [pump] keeps running while we wait —
                   the hook that lets one thread be client and server *)
                let slice = Float.min remaining 0.05 in
                match Unix.select [ f ] [] [] slice with
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
                | [], _, _ -> wait ()
                | _ :: _, _, _ -> (
                    let buf = Bytes.create 65536 in
                    match Unix.read f buf 0 (Bytes.length buf) with
                    | 0 ->
                        disconnect ();
                        Error
                          (terr `Transient ~op:"tcp"
                             "connection closed by peer")
                    | n -> (
                        Frame.push !reader (Bytes.sub_string buf 0 n);
                        let rec drain () =
                          match Frame.next !reader with
                          | Ok (Some p) ->
                              Queue.add p inbox;
                              drain ()
                          | Ok None -> Ok ()
                          | Error e ->
                              disconnect ();
                              Error e
                        in
                        match drain () with
                        | Ok () -> wait ()
                        | Error e -> Error e)
                    | exception
                        Unix.Unix_error
                          ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                        wait ()
                    | exception exn ->
                        disconnect ();
                        Error (classify exn)))
      in
      wait ()
    in
    {
      ep_send;
      ep_recv;
      ep_reconnect = connect;
      ep_close = disconnect;
    }

  (* ---- the session driver ---- *)

  type t = {
    ep : endpoint;
    name : string;
    side : Session.side;
    policy : Retry.policy;
    clock : Retry.clock;
    mutable base : int;
    mutable next_id : int;
    mutable current : (int * string) option;  (** last (id, payload) sent *)
  }

  let name t = t.name
  let side t = t.side
  let base t = t.base
  let close t = t.ep.ep_close ()

  (* One send-and-await under the per-attempt deadline.  Responses to
     other ids (stale retransmits, duplicated frames) are discarded; a
     response to {e our} id whose body cannot be parsed is treated as a
     transient transport failure — resending the same id is safe, the
     dedup window answers from cache. *)
  let attempt_once t ~(id : int) ~(payload : string) :
      (Wire.response, Error.t) result =
    match t.ep.ep_send payload with
    | Error e -> Error e
    | Ok () ->
        let deadline = t.clock.Retry.now () +. t.policy.Retry.attempt_timeout in
        let rec await () =
          let remaining = deadline -. t.clock.Retry.now () in
          if remaining <= 0.0 then
            Error
              (Error.v Error.Timeout ~op:"remote"
                 (Printf.sprintf "%s: no response to request %d" t.name id))
          else
            match t.ep.ep_recv ~timeout:remaining with
            | Error e -> Error e
            | Ok frame -> (
                match Envelope.parse_resp frame with
                | Error _ -> await ()
                | Ok { rid; _ } when rid <> id -> await ()
                | Ok { body; _ } -> (
                    match Wire.parse_response body with
                    | resp -> Ok resp
                    | exception exn when Error.is_bx_exn exn ->
                        Error
                          (terr `Transient ~op:"remote"
                             "unparseable response to request %d: %s" id
                             (String.escaped body))))
        in
        await ()

  (* The full robustness policy around one logical request: see the
     module comment.  [fresh] is the is_transient/retryable split in
     action — unknown outcomes keep the envelope id, definite
     rejections take a new one. *)
  let request t (req : Wire.request) : (Wire.response, Error.t) result =
    let body = Wire.render_request req in
    let fresh = ref true in
    Retry.run ~policy:t.policy ~clock:t.clock ~key:t.name
      ~retryable:Error.retryable (fun ~attempt:_ ->
        if !fresh then begin
          let id = t.next_id in
          t.next_id <- id + 1;
          t.current <-
            Some (id, Envelope.render_req { Envelope.id; session = t.name; body });
          fresh := false
        end;
        let id, payload = Option.get t.current in
        match attempt_once t ~id ~payload with
        | Error e ->
            (* outcome unknown: reconnect, retry under the same id *)
            ignore (t.ep.ep_reconnect ());
            Error e
        | Ok (Wire.Resp_conflict (_, msg)) ->
            fresh := true;
            Error (Error.v Error.Conflict ~op:"remote" msg)
        | Ok (Wire.Resp_error (kind, msg)) ->
            let e = Error.v kind ~op:"remote" msg in
            (* a definite rejection re-executes under a fresh id; a shed
               (Overload) or transport-kind answer never executed, so
               the same id must be kept for the retry *)
            if Error.retryable e && not (Error.is_transient e) then
              fresh := true;
            Error e
        | Ok resp -> Ok resp)

  let protocol_error ~expected resp =
    Error
      (Error.v Error.Other ~op:"remote"
         (Printf.sprintf "expected %s, got %s" expected
            (Wire.render_response resp)))

  let bind ?policy ?(clock = Retry.system_clock) (ep : endpoint)
      ~(name : string) ~(side : Session.side) : (t, Error.t) result =
    let policy =
      match policy with Some p -> p | None -> Retry.default ()
    in
    let t =
      { ep; name; side; policy; clock; base = 0; next_id = 1; current = None }
    in
    match request t (Wire.Hello (name, side)) with
    | Ok (Wire.Resp_ok v) ->
        t.base <- v;
        Ok t
    | Ok resp -> protocol_error ~expected:"ok" resp
    | Error e -> Error e

  let submit t (op : [ `Set of Row.t list | `Batch of Row_delta.t list ]) :
      (int, Error.t) result =
    let req =
      match op with `Set rows -> Wire.Set rows | `Batch ds -> Wire.Batch ds
    in
    match request t req with
    | Ok (Wire.Resp_ok v) ->
        t.base <- v;
        Ok v
    | Ok resp -> protocol_error ~expected:"ok" resp
    | Error e -> Error e

  let pull t : (int * int, Error.t) result =
    match request t Wire.Pull with
    | Ok (Wire.Resp_update (v, n)) ->
        t.base <- v;
        Ok (v, n)
    | Ok resp -> protocol_error ~expected:"update" resp
    | Error e -> Error e

  let view t : (int * Row.t list, Error.t) result =
    match request t Wire.Get with
    | Ok (Wire.Resp_view (v, rows)) -> Ok (v, rows)
    | Ok resp -> protocol_error ~expected:"view" resp
    | Error e -> Error e

  let ping t : (unit, Error.t) result =
    match request t Wire.Ping with
    | Ok Wire.Resp_pong -> Ok ()
    | Ok resp -> protocol_error ~expected:"pong" resp
    | Error e -> Error e

  let bye t : (unit, Error.t) result =
    match request t Wire.Bye with
    | Ok (Wire.Resp_ok _) -> Ok ()
    | Ok resp -> protocol_error ~expected:"ok" resp
    | Error e -> Error e

  (* Settle an in-doubt request: same id, fresh attempt budget.  Run it
     when {!request} failed transiently and the caller must know
     whether the op applied (the soak's accounting does) — by dedup the
     resend can answer from cache but never double-apply. *)
  let resolve t : (Wire.response, Error.t) result =
    match t.current with
    | None ->
        Error (Error.v Error.Other ~op:"remote" "nothing in flight to resolve")
    | Some (id, payload) ->
        Retry.run ~policy:t.policy ~clock:t.clock ~key:(t.name ^ "/resolve")
          ~retryable:Error.is_transient (fun ~attempt:_ ->
            match attempt_once t ~id ~payload with
            | Error e ->
                ignore (t.ep.ep_reconnect ());
                Error e
            | Ok resp -> Ok resp)
end

(* ------------------------------------------------------------------ *)
(* The deterministic chaos network                                     *)
(* ------------------------------------------------------------------ *)

module Chaos_net = struct
  type stats = {
    mutable dropped : int;
    mutable duped : int;
    mutable reordered : int;
    mutable truncated : int;
    mutable delayed : int;
    mutable half_opened : int;
  }

  type flight = { due : int; chunk : string }

  type cconn = {
    sreader : Frame.reader;  (** server-side reassembly of client bytes *)
    mutable to_server : flight list;  (** oldest first *)
    mutable to_client : flight list;
    mutable round : int;
    mutable alive : bool;
    mutable half_open : bool;
  }

  type slot = { mutable conn : cconn; inbox : string Queue.t }

  type t = {
    core : Core.t;
    clk : Retry.clock;
    stats : stats;
    mutable slots : slot list;
  }

  let create ?max_pending ?clock (wire : Wire.server) : t =
    let clk =
      match clock with Some c -> c | None -> Retry.manual_clock ()
    in
    {
      core = Core.create ?max_pending wire;
      clk;
      stats =
        {
          dropped = 0;
          duped = 0;
          reordered = 0;
          truncated = 0;
          delayed = 0;
          half_opened = 0;
        };
      slots = [];
    }

  let clock t = t.clk
  let core t = t.core
  let stats t = t.stats

  (* A fault site consulted for a yes/no decision: the injected
     Error.Fault is the "yes".  With no chaos instance installed this
     is always "no" — the net is perfect. *)
  let decide (site : string) : bool =
    try
      Chaos.point site;
      false
    with exn when Error.degradable_exn exn -> true

  let fresh_conn () : cconn =
    {
      sreader = Frame.reader ();
      to_server = [];
      to_client = [];
      round = 0;
      alive = true;
      half_open = false;
    }

  (* Deliver everything due on the client->server path, running each
     complete frame through the real core; queue responses (through
     their own loss sites) on the return path. *)
  let pump t (c : cconn) : unit =
    c.round <- c.round + 1;
    let ready, rest = List.partition (fun f -> f.due <= c.round) c.to_server in
    c.to_server <- rest;
    List.iter (fun f -> Frame.push c.sreader f.chunk) ready;
    let rec serve () =
      match Frame.next c.sreader with
      | Ok None -> ()
      | Error _ ->
          (* the server drops a desynchronised connection *)
          c.alive <- false
      | Ok (Some payload) ->
          let resp =
            Core.handle_payload t.core ~now:(t.clk.Retry.now ())
              ~pending:(List.length c.to_client) payload
          in
          if not c.half_open then begin
            if decide "net.drop" then t.stats.dropped <- t.stats.dropped + 1
            else begin
              let due =
                if decide "net.delay" then begin
                  t.stats.delayed <- t.stats.delayed + 1;
                  c.round + 3
                end
                else c.round + 1
              in
              c.to_client <- c.to_client @ [ { due; chunk = resp } ];
              if decide "net.dup" then begin
                t.stats.duped <- t.stats.duped + 1;
                c.to_client <- c.to_client @ [ { due; chunk = resp } ]
              end
            end
          end;
          serve ()
    in
    serve ()

  let deliver_ready (c : cconn) (inbox : string Queue.t) : unit =
    let ready, rest = List.partition (fun f -> f.due <= c.round) c.to_client in
    c.to_client <- rest;
    List.iter (fun f -> Queue.add f.chunk inbox) ready

  let endpoint t : Remote_session.endpoint =
    let slot = { conn = fresh_conn (); inbox = Queue.create () } in
    t.slots <- slot :: t.slots;
    let lost () = terr `Transient ~op:"chaos-net" "connection lost" in
    let ep_send payload =
      let c = slot.conn in
      if not c.alive then Error (lost ())
      else begin
        let frame = Frame.encode payload in
        (if decide "net.truncate" then begin
           (* a prefix arrives, then the wire dies: the server reader is
              left mid-frame, the client finds out on its next receive *)
           t.stats.truncated <- t.stats.truncated + 1;
           let keep = max 1 (String.length frame / 2) in
           c.to_server <-
             c.to_server @ [ { due = c.round + 1; chunk = String.sub frame 0 keep } ];
           c.alive <- false
         end
         else if decide "net.halfopen" then begin
           (* the request side still works; every response from now on
              vanishes — the classic "did my commit apply?" *)
           t.stats.half_opened <- t.stats.half_opened + 1;
           c.half_open <- true;
           c.to_server <- c.to_server @ [ { due = c.round + 1; chunk = frame } ]
         end
         else if decide "net.drop" then t.stats.dropped <- t.stats.dropped + 1
         else begin
           let due =
             if decide "net.reorder" then begin
               (* reordered = overtaken: with one frame outstanding per
                  connection, the observable reordering is a copy that
                  arrives after everything sent later — typically once
                  the session has moved to a higher id, where the
                  server's stale-duplicate refusal catches it *)
               t.stats.reordered <- t.stats.reordered + 1;
               c.round + 150
             end
             else if decide "net.delay" then begin
               t.stats.delayed <- t.stats.delayed + 1;
               c.round + 3
             end
             else c.round + 1
           in
           c.to_server <- c.to_server @ [ { due; chunk = frame } ];
           if decide "net.dup" then begin
             t.stats.duped <- t.stats.duped + 1;
             c.to_server <- c.to_server @ [ { due; chunk = frame } ]
           end
         end);
        Ok ()
      end
    in
    let ep_recv ~timeout =
      let deadline = t.clk.Retry.now () +. timeout in
      let rec wait () =
        if not (Queue.is_empty slot.inbox) then Ok (Queue.take slot.inbox)
        else if not slot.conn.alive then Error (lost ())
        else if t.clk.Retry.now () >= deadline then
          Error (Error.v Error.Timeout ~op:"chaos-net" "no frame arrived")
        else begin
          (* waiting IS time passing: tick the shared clock, move the
             network one round — fully deterministic under a manual
             clock *)
          t.clk.Retry.sleep 0.01;
          pump t slot.conn;
          deliver_ready slot.conn slot.inbox;
          wait ()
        end
      in
      wait ()
    in
    let ep_reconnect () =
      (* in-flight frames die with the old connection *)
      slot.conn <- fresh_conn ();
      Queue.clear slot.inbox;
      Ok ()
    in
    {
      Remote_session.ep_send;
      ep_recv;
      ep_reconnect;
      ep_close = (fun () -> slot.conn.alive <- false);
    }

  let drain t : unit =
    Chaos.protected (fun () ->
        List.iter
          (fun slot ->
            let c = slot.conn in
            if c.alive then begin
              (* everything still in flight — including massively
                 overtaken frames — arrives now *)
              let now_due f = { f with due = 0 } in
              c.to_server <- List.map now_due c.to_server;
              c.to_client <- List.map now_due c.to_client;
              let rec go n =
                if
                  n > 0
                  && (c.to_server <> [] || c.to_client <> []
                     || Frame.buffered c.sreader > 0)
                then begin
                  pump t c;
                  deliver_ready c slot.inbox;
                  go (n - 1)
                end
              in
              go 64
            end)
          t.slots)
end
