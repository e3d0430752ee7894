(* The untraced black-box run: the production server in its own
   process, one client process driving two remote sessions (A side and
   B side) over a Unix socket in a closed loop — each request waits for
   its reply, so exactly one is in flight. *)

open Esm_core
open Esm_sync
module R = Transport.Remote_session
module W = Wire

(* Client-side socket accounting, from a wrapper around the endpoint's
   closures. *)
type ep_stats = {
  mutable requests : int;
  mutable sends : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable wait : float;  (** seconds blocked in [ep_recv] *)
}

let ep_stats () = { requests = 0; sends = 0; bytes_out = 0; bytes_in = 0; wait = 0.0 }
let copy (st : ep_stats) = { st with requests = st.requests }

(* Add what [st] counted since [before] to [into]. *)
let add_since ~(into : ep_stats) ~(before : ep_stats) (st : ep_stats) =
  into.requests <- into.requests + st.requests - before.requests;
  into.sends <- into.sends + st.sends - before.sends;
  into.bytes_out <- into.bytes_out + st.bytes_out - before.bytes_out;
  into.bytes_in <- into.bytes_in + st.bytes_in - before.bytes_in;
  into.wait <- into.wait +. (st.wait -. before.wait)

let wrap (st : ep_stats) (ep : R.endpoint) : R.endpoint =
  {
    ep with
    R.ep_send =
      (fun p ->
        st.sends <- st.sends + 1;
        st.bytes_out <- st.bytes_out + 4 + String.length p;
        ep.R.ep_send p);
    ep_recv =
      (fun ~timeout ->
        let t0 = Stat.now () in
        let r = ep.R.ep_recv ~timeout in
        st.wait <- st.wait +. (Stat.now () -. t0);
        (match r with Ok p -> st.bytes_in <- st.bytes_in + 4 + String.length p | Error _ -> ());
        r);
  }

(* One server's life: what the gate checks and the replays replay. *)
type segment = {
  log : Gen.action array;  (** every applied request, set-up first *)
  measured_from : int;  (** index of the first measured request in [log] *)
  acked : int;
  unresolved : int;
  pulled : int list;
  view_hash : string;
  model_hash : string option;  (** edit, read: the client's model of the A table *)
  drained : Proc.drained option;
  rss_mb : float;  (** peak RSS at the segment's fixed-work checkpoint *)
  log_bytes : int;  (** bytes in the server's log directory at the end *)
  user_bytes : int;  (** bytes of acked batch payloads *)
  seg_commits : Stat.samples;  (** seconds, arrival order *)
}

(* A round: [Gen.round_steps] steps of measured work. *)
type round = { steps : int; dt : float; complete : bool }

type result = {
  setup_s : float list;  (** one per set-up *)
  segments : segment list;
  rounds : round list;
  steps : int;
  commits : Stat.samples;  (** seconds *)
  reads : Stat.samples;
  pulls : Stat.samples;
  attempted : int;
  failed : int;
  ep : ep_stats;  (** the rounds' requests and socket accounting *)
  busy : float;  (** the rounds' seconds in requests, not blocked *)
}

let policy ~seed =
  { (Retry.default ~seed ()) with Retry.attempt_timeout = 30.0; deadline = 120.0 }

type live = {
  proc : Proc.t;
  sessions : R.t array;
  st : ep_stats;
  gen : Gen.t;
  log : Gen.action list ref;
  logdir : string option;
  mutable attempted : int;
  mutable failed : int;
  mutable acked : int;
  mutable unresolved : int;
  mutable user_bytes : int;
}

(* Send one request, account for it and log it for the replays when the
   server applied it. *)
let exec (l : live) ?(on_done = fun _ _ -> ()) (a : Gen.action) : W.response option =
  let s = l.sessions.(a.Gen.sess) in
  l.attempted <- l.attempted + 1;
  l.st.requests <- l.st.requests + 1;
  let t0 = Stat.now () in
  let resp =
    match a.Gen.req with
    | W.Batch ds -> (
        let acked v =
          l.acked <- l.acked + 1;
          l.user_bytes <- l.user_bytes + String.length (W.render_request a.Gen.req);
          Some (W.Resp_ok v)
        in
        match R.submit s (`Batch ds) with
        | Ok v -> acked v
        | Error e when Error.is_transient e -> (
            match R.resolve s with
            | Ok (W.Resp_ok v) -> acked v
            | Ok _ -> None
            | Error _ ->
                l.unresolved <- l.unresolved + 1;
                None)
        | Error _ -> None)
    | W.Get -> Result.to_option (Result.map (fun (v, rows) -> W.Resp_view (v, rows)) (R.view s))
    | W.Pull -> Result.to_option (Result.map (fun (v, n) -> W.Resp_update (v, n)) (R.pull s))
    | W.Ping -> Result.to_option (Result.map (fun () -> W.Resp_pong) (R.ping s))
    | _ -> invalid_arg "Blackbox.exec"
  in
  let dt = Stat.now () -. t0 in
  (match resp with
  | None -> l.failed <- l.failed + 1
  | Some _ -> l.log := a :: !(l.log));
  on_done a (Option.map (fun _ -> dt) resp);
  resp

(* Spawn, bind both sessions and pre-grow: everything [setup_s]
   counts. *)
let setup ~exe ~st ~dir ~workload ~seed ~toy ~durable : live * float =
  Unix.mkdir dir 0o755;
  let t0 = Stat.now () in
  let logdir = if durable then Some (Filename.concat dir "log") else None in
  let sock = Filename.concat dir "s.sock" in
  let proc = Proc.spawn ~exe ~sock ?dir:logdir ~out:(Filename.concat dir "server.out") () in
  let bind i =
    let name = Gen.names.(i) and side = Gen.sides.(i) in
    match R.bind ~policy:(policy ~seed) (wrap st (R.tcp_endpoint (Unix.ADDR_UNIX sock))) ~name ~side with
    | Ok s -> s
    | Error e -> failwith ("bind: " ^ Error.message e)
  in
  let sessions = Array.init 2 bind in
  let gen = Gen.create workload ~seed in
  let l =
    {
      proc;
      sessions;
      st;
      gen;
      log = ref (List.init 2 (fun i -> { Gen.sess = 1 - i; req = W.Hello (Gen.names.(1 - i), Gen.sides.(1 - i)) }));
      logdir;
      attempted = 2;
      failed = 0;
      acked = 0;
      unresolved = 0;
      user_bytes = 0;
    }
  in
  (match exec l { Gen.sess = Gen.a_sess; req = W.Get } with
  | Some (W.Resp_view (_, rows)) -> Gen.observe_initial gen rows
  | _ -> ());
  List.iter (fun a -> ignore (exec l a)) (Gen.pregrow gen ~rows:(Gen.pregrow_rows ~toy workload));
  ignore (exec l { Gen.sess = Gen.b_sess; req = W.Pull });
  (l, Stat.now () -. t0)

let teardown (l : live) =
  Array.iter R.close l.sessions;
  ignore (Proc.stop l.proc)

(* Final checks on a server: both sessions pull to the head, the A view
   is read, the server is stopped and reports its head. *)
let finish (l : live) ~measured_from ~rss_mb ~(seg_commits : Stat.samples) : segment =
  let pulled =
    Array.to_list
      (Array.map
         (fun s ->
           l.attempted <- l.attempted + 1;
           match R.pull s with
           | Ok (v, _) -> v
           | Error _ ->
               l.failed <- l.failed + 1;
               -1)
         l.sessions)
  in
  l.attempted <- l.attempted + 1;
  let view_hash, sorted_hash =
    match R.view l.sessions.(Gen.a_sess) with
    | Ok (_, rows) -> (Served.rows_hash rows, Served.rows_hash (List.sort compare rows))
    | Error _ ->
        l.failed <- l.failed + 1;
        ("", "")
  in
  let model_hash =
    if l.gen.Gen.workload = Gen.Grow then None
    else
      Some
        (if Served.rows_hash (List.sort compare (Gen.model l.gen)) = sorted_hash then view_hash
         else "client model differs")
  in
  let rss_mb = match rss_mb with Some r -> r | None -> Proc.peak_rss_mb l.proc in
  Array.iter R.close l.sessions;
  let drained = Proc.stop l.proc in
  {
    log = Array.of_list (List.rev !(l.log));
    measured_from;
    acked = l.acked;
    unresolved = l.unresolved;
    pulled;
    view_hash;
    model_hash;
    drained;
    rss_mb;
    log_bytes = (match l.logdir with Some d -> Proc.dir_bytes d | None -> 0);
    user_bytes = l.user_bytes;
    seg_commits;
  }

(* The measured phase is a sequence of rounds of a fixed number of
   steps, so every bounded metric describes a fixed amount of work and a
   faster server is not charged for the extra growth its speed buys.
   On grow each round starts a fresh server from the 48-row table; on
   edit and read the rounds continue on the one pre-grown server, whose
   RSS is read when the first round completes.  Rounds run until
   [seconds] have passed; the last one may be cut short.  [setups] is
   the number of set-ups before the first round (the rest are thrown
   away); grow also sets up a server for each later round. *)
let run ~exe ~run_dir ~workload ~seed ~seconds ~toy ~setups : result =
  let durable = workload = Gen.Grow in
  let st = ep_stats () in
  let setup_s = ref [] and n_setup = ref 0 in
  let attempted = ref 0 and failed = ref 0 in
  let absorb (l : live) =
    attempted := !attempted + l.attempted;
    failed := !failed + l.failed
  in
  let start () =
    let dir = Filename.concat run_dir (Printf.sprintf "srv%d" !n_setup) in
    incr n_setup;
    let l, dt = setup ~exe ~st ~dir ~workload ~seed ~toy ~durable in
    setup_s := dt :: !setup_s;
    l
  in
  for _ = 2 to setups do
    let l = start () in
    teardown l;
    absorb l
  done;
  let l = ref (start ()) in
  let measured_from = ref (List.length !(!l.log)) in
  let ep = ep_stats () in
  let commits = Stat.samples () and reads = Stat.samples () and pulls = Stat.samples () in
  let seg_commits = ref (Stat.samples ()) in
  let busy = ref 0.0 in
  let on_done (a : Gen.action) dt =
    match dt with
    | None -> ()
    | Some dt -> (
        busy := !busy +. dt;
        match a.Gen.req with
        | W.Batch _ ->
            Stat.add commits dt;
            Stat.add !seg_commits dt
        | W.Get -> Stat.add reads dt
        | W.Pull -> Stat.add pulls dt
        | _ -> ())
  in
  let k = Gen.round_steps ~toy workload in
  let segments = ref [] and rounds = ref [] and steps = ref 0 and rss = ref None in
  let t0 = Stat.now () in
  let time_left () = Stat.now () -. t0 < seconds in
  while time_left () do
    if durable && !rounds <> [] then begin
      segments := finish !l ~measured_from:!measured_from ~rss_mb:None ~seg_commits:!seg_commits :: !segments;
      absorb !l;
      l := start ();
      measured_from := List.length !(!l.log);
      seg_commits := Stat.samples ()
    end;
    let n = ref 0 and before = copy st and r0 = Stat.now () in
    while !n < k && time_left () do
      Gen.step !l.gen (exec !l ~on_done);
      incr n
    done;
    let dt = Stat.now () -. r0 in
    add_since ~into:ep ~before st;
    steps := !steps + !n;
    rounds := { steps = !n; dt; complete = !n = k } :: !rounds;
    if (not durable) && !rss = None && !n = k then rss := Some (Proc.peak_rss_mb !l.proc)
  done;
  let last = finish !l ~measured_from:!measured_from ~rss_mb:!rss ~seg_commits:!seg_commits in
  absorb !l;
  {
    setup_s = List.rev !setup_s;
    segments = List.rev (last :: !segments);
    rounds = List.rev !rounds;
    steps = !steps;
    commits;
    reads;
    pulls;
    attempted = !attempted;
    failed = !failed;
    ep;
    busy = !busy -. ep.wait;
  }
