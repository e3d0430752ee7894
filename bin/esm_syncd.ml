(* esm_syncd: the sync engine driver — the employees store (Esm_sync
   over the where|select lens) served to concurrent A-side and B-side
   sessions.

   Modes:

     esm_syncd --listen ADDR [--dir D]
       A real daemon: serve the store over length-framed wire messages
       on a Unix-domain ("unix:PATH") or TCP ("HOST:PORT", ":PORT")
       socket, multiplexing every connection over one select loop.
       SIGTERM/SIGINT request a clean drain: stop accepting, flush
       queued responses, print the transport counters, exit 0.  --dir D
       persists the store: a restart on a D that holds a log.bin
       resumes it at its committed head, a new or empty D starts a
       fresh log; log.bin, like memory, stays bounded by the live
       table.

     esm_syncd --script FILE
       Replay a wire-protocol script: each non-empty, non-# line is
       "@<session> <request>" in the grammar of Esm_sync.Wire; lines
       are processed in order (the script IS the schedule, so runs are
       reproducible), and each request/response pair is printed.
       Exit 2 on malformed script lines.  A FILE ending in .esmql is
       instead compiled through the ESMQL law-level gate and executed
       against the same store (docs/QUERY.md): exit 2 on a
       parse/compile rejection, 1 on a failed execution step.

     esm_syncd --soak | --connect ADDR | --check-dir D   [options]
       Every other mode is one Esm_sync.Scenario spec, built from the
       flags:
         topology    --shards N [--gossip-every K]  (default: one store)
         link        in-process; --chaos-net (the deterministic faulty
                     network, one per shard); --connect ADDR (remote
                     sessions against a --listen daemon)
         durability  --dir D  (default: memory)
         workload    --seed N --ops N --sessions N
       --soak runs the scenario and exits 1 on any violated invariant
       (recovery, batching, head = acked accounting, convergence,
       cross-shard convergence, the compaction audit); --kill-at N
       (needs --dir) hard-exits with status 130 after the Nth durable
       write syscall, compaction's fault sites included.
       --check-dir D reruns the identical scenario uncrashed into
       D.oracle and diffs every reopened store of D against the
       oracle's recorded history at the recovered version.
       --connect exits 1 unless every submit had a definite outcome
       and every session reached the head.  --require-poll-hits fails
       a soak whose unchanged-store polls never short-circuited;
       convergence is always required.  docs/SYNC.md §4 lists the
       checks.

   The soaks, checks and scripts honour CHAOS_SEED (and optional
   CHAOS_RATE in [0, 1]): fault injection at every chaos site, with the
   injection/fallback counts reported.  A malformed value exits 2. *)

open Esm_core
open Esm_relational
open Esm_sync

(* ------------------------------------------------------------------ *)
(* Script mode                                                         *)
(* ------------------------------------------------------------------ *)

(* An .esmql script runs through the query front-end against the same
   default employees store the wire scripts exercise: parse, gate
   (strict unless the script says otherwise), execute on the store
   backend.  Parse/compile rejections exit 2 like malformed wire
   lines; a failed execution step exits 1. *)
let run_esmql_script (path : string) : int =
  let read_file path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let bases =
    [
      {
        Esm_ql.Check.bname = "employees";
        bschema = Workload.employees_schema;
        bkey = [ "id" ];
        binit = Workload.employees ~seed:11 ~size:24;
      };
    ]
  in
  match Esm_ql.Parser.parse (read_file path) with
  | Error e ->
      Printf.printf "!! %s\n" (Esm_core.Error.message e);
      2
  | Ok script -> (
      match Esm_ql.Check.compile ~bases script with
      | Error e ->
          Printf.printf "!! %s\n" (Esm_core.Error.message e);
          2
      | Ok compiled ->
          let trace = Esm_ql.Exec.run ~kind:Esm_ql.Backend.Store compiled in
          Format.printf "%a@." Esm_ql.Exec.pp trace;
          if trace.Esm_ql.Exec.ok then 0 else 1)

let run_script (path : string) : int =
  if Filename.check_suffix path ".esmql" then run_esmql_script path
  else
  let srv = Wire.serve (Scenario.store ~seed:11 ~size:24 ()) in
  let ic = open_in path in
  let bad = ref false in
  (try
     let lineno = ref 0 in
     while true do
       let line = input_line ic in
       incr lineno;
       let line = String.trim line in
       if line <> "" && line.[0] <> '#' then
         if line.[0] <> '@' then (
           Printf.printf "!! line %d: expected '@<session> <request>'\n"
             !lineno;
           bad := true)
         else
           let body = String.sub line 1 (String.length line - 1) in
           let session, req =
             match String.index_opt body ' ' with
             | None -> (body, "")
             | Some i ->
                 ( String.sub body 0 i,
                   String.trim
                     (String.sub body (i + 1) (String.length body - i - 1)) )
           in
           Printf.printf "@%s> %s\n" session req;
           match Wire.handle_line srv ~session req with
           | resp -> Printf.printf "@%s< %s\n" session resp
           | exception Error.Bx_error e when e.Error.kind = Error.Parse ->
               Printf.printf "!! line %d: %s\n" !lineno (Error.message e);
               bad := true
     done
   with End_of_file -> close_in ic);
  if !bad then 2 else 0

(* ------------------------------------------------------------------ *)
(* Listen mode: the real daemon                                        *)
(* ------------------------------------------------------------------ *)

let run_listen ?dir (addr_s : string) : int =
  let ( let* ) = Result.bind in
  match
    let* addr = Transport.addr_of_string addr_s in
    let* store =
      match dir with
      | None -> Ok (Scenario.store ~seed:11 ~size:48 ())
      | Some dir -> Scenario.resume ~dir ~seed:11 ~size:48 ()
    in
    Ok (addr, store)
  with
  | Error e ->
      Printf.eprintf "esm_syncd: %s\n" (Error.message e);
      2
  | Ok (addr, store) ->
      let srv = Transport.Server.listen addr (Wire.serve store) in
      Printf.printf "esm_syncd: listening on %s\n%!"
        (Transport.string_of_addr (Transport.Server.addr srv));
      let stop _ = Transport.Server.request_shutdown srv in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Transport.Server.run srv;
      let count = Esm_incr.Stats.get in
      Printf.printf
        "esm_syncd: drained and stopped (requests=%d executed=%d \
         dedup-hits=%d stale=%d overloads=%d reaped=%d head=%d)\n%!"
        (count "core.requests") (count "core.executed")
        (count "core.dedup_hits") (count "core.stale") (count "core.overloads")
        (count "core.reaped") (Store.version store);
      Store.close store;
      0

(* ------------------------------------------------------------------ *)
(* Entry point: flags to a scenario spec                               *)
(* ------------------------------------------------------------------ *)

let env_chaos =
  lazy
    (match Chaos.of_env Sys.getenv_opt with
    | Ok c -> c
    | Error msg ->
        prerr_endline ("esm_syncd: " ^ msg);
        exit 2)

let chaos_trailer = function
  | None -> ()
  | Some c ->
      Printf.printf "chaos: seed=%d rate=%g injected=%d fallbacks=%d\n"
        (Chaos.seed c) (Chaos.rate c) (Chaos.injected c) (Chaos.fallbacks c)

let with_env_chaos (f : unit -> 'a) : 'a =
  let chaos = Lazy.force env_chaos in
  let out = match chaos with None -> f () | Some c -> Chaos.with_chaos c f in
  chaos_trailer chaos;
  out

let () =
  let script = ref "" in
  let do_soak = ref false in
  let seed = ref 42 in
  let ops = ref 200 in
  let sessions = ref 4 in
  let dir = ref "" in
  let kill_at = ref 0 in
  let check_dir = ref "" in
  let require_poll_hits = ref false in
  let listen = ref "" in
  let connect = ref "" in
  let chaos_net = ref false in
  let shards = ref 0 in
  let gossip_every = ref 25 in
  let specs =
    [
      ( "--listen",
        Arg.Set_string listen,
        "ADDR serve the store on unix:PATH, HOST:PORT or :PORT" );
      ( "--connect",
        Arg.Set_string connect,
        "ADDR drive remote sessions against a --listen daemon" );
      ( "--chaos-net",
        Arg.Set chaos_net,
        " with --soak: run the workload through the chaos network" );
      ("--script", Arg.Set_string script, "FILE replay a wire-protocol script");
      ("--soak", Arg.Set do_soak, " run the random multi-session soak");
      ("--seed", Arg.Set_int seed, "N soak workload seed (default 42)");
      ("--ops", Arg.Set_int ops, "N soak operation count (default 200)");
      ( "--sessions",
        Arg.Set_int sessions,
        "N soak session count (default 4)" );
      ( "--dir",
        Arg.Set_string dir,
        "D persist the soak store's oplog to directory D" );
      ( "--kill-at",
        Arg.Set_int kill_at,
        "N hard-exit (status 130) after the Nth durable write syscall" );
      ( "--check-dir",
        Arg.Set_string check_dir,
        "D reopen a killed log in D and diff against an uncrashed rerun" );
      ( "--require-poll-hits",
        Arg.Set require_poll_hits,
        " exit 1 if the soak recorded zero session.poll cache hits" );
      ( "--shards",
        Arg.Set_int shards,
        "N partition the soak store across N gossiping shards" );
      ( "--gossip-every",
        Arg.Set_int gossip_every,
        "K run one anti-entropy gossip round every K ops (default 25)" );
    ]
  in
  let usage =
    "esm_syncd (--listen ADDR | --connect ADDR | --script FILE | --soak \
     [--chaos-net] [--shards N] | --check-dir D) [options]"
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !shards < 0 || !gossip_every <= 0 || !sessions < 1 || !ops < 0 then (
    prerr_endline
      "esm_syncd: --shards must be >= 0, --gossip-every >= 1, --sessions >= 1, \
       --ops >= 0";
    exit 2);
  let spec ?(dir = !dir) link =
    {
      Scenario.topology =
        (if !shards > 0 then
           Sharded { shards = !shards; gossip_every = !gossip_every }
         else Single);
      link;
      durability = (if dir = "" then Memory else Dir dir);
      seed = !seed;
      ops = !ops;
      sessions = !sessions;
    }
  in
  let local_link = if !chaos_net then Scenario.Chaos_net else In_process in
  let soak () =
    if !kill_at > 0 then begin
      if !dir = "" then (
        prerr_endline "esm_syncd: --kill-at requires --dir";
        exit 2);
      Durable_log.set_kill_at (Some !kill_at)
    end;
    let code =
      with_env_chaos (fun () -> Scenario.print (Scenario.run (spec local_link)))
    in
    let poll_hits, _ = Esm_incr.Stats.counts "session.poll" in
    if !require_poll_hits && poll_hits = 0 then begin
      print_endline
        "VIOLATION: --require-poll-hits: the soak recorded zero session.poll \
         cache hits (the memoized poll path was bypassed)";
      max code 1
    end
    else code
  in
  let code =
    if !listen <> "" then
      run_listen ?dir:(if !dir = "" then None else Some !dir) !listen
    else if !connect <> "" then
      match Transport.addr_of_string !connect with
      | Error e ->
          Printf.eprintf "esm_syncd: %s\n" (Error.message e);
          2
      | Ok addr ->
          Scenario.print
            (Scenario.run
               { (spec ~dir:"" (Socket addr)) with topology = Single })
    else if !script <> "" then with_env_chaos (fun () -> run_script !script)
    else if !check_dir <> "" then begin
      let chaos = Lazy.force env_chaos in
      let report = Scenario.check ?chaos (spec ~dir:!check_dir local_link) in
      chaos_trailer chaos;
      Scenario.print report
    end
    else if !do_soak then soak ()
    else (
      prerr_endline usage;
      2)
  in
  exit code
