(* The one scenario driver: build the stores and clients a spec names,
   drive the seeded workload through them, then run the accounting,
   convergence, oracle and on-disk audit checks that apply. *)

open Esm_core
open Esm_relational
module R = Transport.Remote_session

type topology = Single | Sharded of { shards : int; gossip_every : int }
type link = In_process | Chaos_net | Socket of Unix.sockaddr
type durability = Memory | Dir of string

type spec = {
  topology : topology;
  link : link;
  durability : durability;
  seed : int;
  ops : int;
  sessions : int;
}

type report = {
  lines : string list;
  verdict : string;
  violations : string list;
  removed : int;
  spanning : int;
  horizons : int array;
}
type history = (int, Table.t * Table.t) Hashtbl.t

let fail (vs : string list ref) fmt = Printf.ksprintf (fun s -> vs := s :: !vs) fmt

(* ------------------------------------------------------------------ *)
(* The substrate: employees behind a where|select lens                 *)
(* ------------------------------------------------------------------ *)

let eng_lens =
  Query.lens_of_string ~schema:Workload.employees_schema ~key:[ "id" ]
    {|employees | where dept = "Engineering" | select id, name, dept|}

let codec =
  let schema_b =
    Table.schema (Esm_lens.Lens.get eng_lens (Workload.employees ~seed:1 ~size:1))
  in
  Wire.durable_op_codec ~schema_a:Workload.employees_schema ~schema_b

let table_size = 48
let snapshot_every = 8

let packed init =
  Concrete.packed_of_lens ~vwb:false ~init ~eq_state:Table.equal eng_lens

let open_store ?dir ~name init : Wire.rstore =
  let persist =
    Option.map
      (fun dir -> Store.persist ~fsync:(Durable_log.Fsync_every 8) ~dir codec)
      dir
  in
  Store.of_packed ~name ~snapshot_every ~apply_da:Row_delta.apply_all
    ~apply_db:Row_delta.apply_all ?persist (packed init)

let reopen_store ~name ~dir init =
  Store.reopen ~name ~snapshot_every ~apply_da:Row_delta.apply_all
    ~apply_db:Row_delta.apply_all ~codec ~dir (packed init)

let store ?dir ~seed ~size () =
  open_store ?dir ~name:"employees" (Workload.employees ~seed ~size)

let resume ~dir ~seed ~size () =
  if Sys.file_exists (Durable_log.log_file dir) then
    reopen_store ~name:"employees" ~dir (Workload.employees ~seed ~size)
  else Ok (store ~dir ~seed ~size ())

let shards spec =
  match spec.topology with Single -> 1 | Sharded { shards; _ } -> shards

(* Row ownership: id mod shards.  A and B rows both lead with the id. *)
let shard_of_row ~shards (row : Row.t) =
  match Row.to_list row with
  | Value.Int id :: _ -> ((id mod shards) + shards) mod shards
  | _ -> 0

(* Store [i]'s initial state: its partition of the seed table, so the
   union of the partitions is the unsharded initial table. *)
let init_of spec i =
  let init = Workload.employees ~seed:spec.seed ~size:table_size in
  let n = shards spec in
  if n = 1 then init
  else
    Table.of_rows Workload.employees_schema
      (List.filter (fun r -> shard_of_row ~shards:n r = i) (Table.rows init))

let store_name spec i =
  match spec.topology with
  | Single -> "employees"
  | Sharded _ -> Printf.sprintf "employees-%d" i

let store_label spec i =
  match spec.topology with
  | Single -> "store"
  | Sharded _ -> Printf.sprintf "shard %d" i

let store_dir spec dir i =
  match spec.topology with
  | Single -> dir
  | Sharded _ -> Filename.concat dir (Printf.sprintf "shard-%d" i)

let reopen spec dir i =
  reopen_store ~name:(store_name spec i) ~dir:(store_dir spec dir i)
    (init_of spec i)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path

(* ------------------------------------------------------------------ *)
(* The checkers                                                        *)
(* ------------------------------------------------------------------ *)

let accounting_violations ~heads ~acked ~unresolved =
  if unresolved > 0 then
    [
      Printf.sprintf "%d submit(s) could not be settled even on a healed network"
        unresolved;
    ]
  else
    List.concat
      (List.mapi
         (fun i h ->
           if h = acked.(i) then []
           else
             [
               Printf.sprintf "store %d: head %d <> %d acked commits — %s" i h
                 acked.(i)
                 (if h > acked.(i) then "a retry double-applied"
                  else "an acked commit was lost");
             ])
         (Array.to_list heads))

let oracle_violations (history : history) ~store (v, va, vb) =
  match Hashtbl.find_opt history v with
  | None ->
      [ Printf.sprintf "%s: recovered head %d never committed in the oracle" store v ]
  | Some (oa, ob) ->
      let diverges side =
        Printf.sprintf "%s: recovered %s view diverges from the oracle at %d"
          store side v
      in
      (if Table.equal va oa then [] else [ diverges "A" ])
      @ if Table.equal vb ob then [] else [ diverges "B" ]

(* ------------------------------------------------------------------ *)
(* Clients: the one session interface every link satisfies             *)
(* ------------------------------------------------------------------ *)

type outcome = Applied | Rejected | Resolved of bool | Unresolved

type client = {
  name : string;
  side : Session.side;
  home : int;  (** the shard its fresh rows belong to *)
  view : unit -> (Row.t list, Error.t) result;
  submit : Row_delta.t list -> (int * outcome) list;
      (** per-store outcomes of one burst *)
  pull : unit -> (int, Error.t) result;  (** the version reached *)
  ping : unit -> (unit, Error.t) result;
}

let op_of side ds = match side with `A -> Store.Batch_a ds | `B -> Store.Batch_b ds

(* A local session on its home store.  Unsharded it submits with
   rebase, so a conflict is a broken optimistic check; sharded it
   submits through the group router and reads the authoritative union,
   so one burst's removals route across several shards.  A rejected
   part must leave its store untouched: same version, same views. *)
let local_client ~vs ~group ~stores ~name ~side ~home =
  let sess = Session.bind stores.(home) ~name ~side in
  let view () =
    Ok
      (Table.rows
         (match (group, side) with
         | None, _ -> ( match Session.view sess with `A t | `B t -> t)
         | Some g, `A -> Shard.Relational.authoritative_a g
         | Some g, `B -> Shard.Relational.authoritative_b g))
  in
  let state (st : Wire.rstore) =
    Chaos.protected (fun () -> (Store.version st, Store.view_a st, Store.view_b st))
  in
  let submit ds =
    let before = Array.map state stores in
    let outcomes =
      match group with
      | None -> (
          match Session.submit_rebase sess (op_of side ds) with
          | Ok _ -> [ (home, Applied) ]
          | Error e when e.Error.kind = Error.Conflict ->
              fail vs "%s: conflict after rebase: %s" name (Error.message e);
              [ (home, Rejected) ]
          | Error _ -> [ (home, Rejected) ])
      | Some g ->
          List.map
            (fun (i, res) -> (i, if Result.is_ok res then Applied else Rejected))
            (Shard.submit g ~session:name (op_of side ds))
    in
    List.iter
      (fun (j, o) ->
        let v, va, vb = before.(j) and v', va', vb' = state stores.(j) in
        if o = Rejected && (v <> v' || not (Table.equal va va' && Table.equal vb vb'))
        then fail vs "%s: a rejected batch left a trace at store %d" name j)
      outcomes;
    outcomes
  in
  let pull () =
    ignore (Session.pull sess);
    Ok (Session.base sess)
  in
  { name; side; home; view; submit; pull; ping = (fun () -> Ok ()) }

(* A remote session.  A transiently failed submit is in doubt: [resolve]
   resends the same envelope id, and by dedup its answer is final. *)
let remote_client ~resolve ~home s =
  let submit ds =
    let outcome =
      match R.submit s (`Batch ds) with
      | Ok _ -> Applied
      | Error e when Error.is_transient e -> (
          match resolve s with
          | Ok (Wire.Resp_ok _) -> Resolved true
          | Ok _ -> Resolved false
          | Error _ -> Unresolved)
      | Error _ -> Rejected
    in
    [ (home, outcome) ]
  in
  {
    name = R.name s;
    side = R.side s;
    home;
    view = (fun () -> Result.map snd (R.view s));
    submit;
    pull = (fun () -> Result.map fst (R.pull s));
    ping = (fun () -> R.ping s);
  }

exception Abort of string

let bind_remote ~n_sessions bind =
  let rec go acc k =
    if k = n_sessions then List.rev acc
    else
      match bind k with
      | Ok s -> go (s :: acc) (k + 1)
      | Error e ->
          List.iter R.close acc;
          raise
            (Abort
               (Printf.sprintf "bind of session %d failed: %s" (k + 1)
                  (Error.message e)))
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

let label spec =
  match (spec.link, spec.topology) with
  | In_process, Single -> "soak"
  | In_process, Sharded _ -> "shard-soak"
  | Chaos_net, Single -> "net-soak"
  | Chaos_net, Sharded _ -> "shard-net-soak"
  | Socket _, _ -> "connect"

let verdict spec =
  label spec ^ ": "
  ^
  match (spec.link, spec.topology) with
  | In_process, Single -> "all invariants hold"
  | In_process, Sharded _ -> "all cross-shard invariants hold"
  | Chaos_net, Single -> "no lost commits, no duplicated commits"
  | Chaos_net, Sharded _ ->
      "no lost commits, no duplicated commits, all shards converged"
  | Socket _, _ -> "every outcome definite, every session converged"

let net_policy seed =
  {
    (Retry.default ~seed ()) with
    Retry.max_attempts = 8;
    base_delay = 0.02;
    attempt_timeout = 0.5;
    deadline = 60.0;
  }

(* The persisted, compacted log of one store, audited on disk after a
   fault-free final compaction; then a reopen must reach the pre-close
   head and views. *)
let audit ~vs spec dir j (v, va, vb) =
  let who = store_label spec j in
  (match Durable_log.load ~dir:(store_dir spec dir j) with
  | Error e -> fail vs "%s: post-run load failed: %s" who (Error.message e)
  | Ok l ->
      let hz = l.Durable_log.horizon in
      if v >= snapshot_every && hz = 0 then
        fail vs "%s: head %d but horizon still 0 after compaction" who v;
      List.iter
        (fun (e : Durable_log.raw_entry) ->
          if e.Durable_log.version <= hz then
            fail vs "%s: retained entry %d at or below horizon %d" who
              e.Durable_log.version hz)
        l.Durable_log.entries;
      let retained = List.length l.Durable_log.entries in
      if retained > snapshot_every then
        fail vs "%s: %d entries retained — log not bounded by the snapshot cadence"
          who retained;
      (* an uncompacted log (horizon 0) replays from the initial state *)
      match l.Durable_log.snapshot with
      | Some (sv, _) when sv >= hz -> ()
      | None when hz = 0 -> ()
      | _ -> fail vs "%s: no snapshot at or above horizon %d" who hz);
  match Chaos.protected (fun () -> reopen spec dir j) with
  | Error e -> fail vs "%s: reopen failed: %s" who (Error.message e)
  | Ok st ->
      if Store.version st <> v then
        fail vs "%s: reopened at %d, pre-close head was %d" who (Store.version st) v;
      if not (Table.equal (Store.view_a st) va) then
        fail vs "%s: reopened A view differs from pre-close" who;
      if not (Table.equal (Store.view_b st) vb) then
        fail vs "%s: reopened B view differs from pre-close" who;
      Store.close st

(* A batched commit equals its deltas committed one at a time: replay
   the store's collected history that way into a fresh store. *)
let batching_check ~vs spec j (st : Wire.rstore) history =
  let oracle = open_store ~name:"oracle" (init_of spec j) in
  let commit session op =
    match Store.commit ~session oracle op with
    | Ok _ -> ()
    | Error e -> fail vs "oracle replay commit failed: %s" (Error.message e)
  in
  List.iter
    (fun (e : _ Oplog.entry) ->
      match e.Oplog.op with
      | Store.Batch_a ds ->
          List.iter (fun d -> commit e.Oplog.session (Store.Batch_a [ d ])) ds
      | Store.Batch_b ds ->
          List.iter (fun d -> commit e.Oplog.session (Store.Batch_b [ d ])) ds
      | op -> commit e.Oplog.session op)
    history;
  let who = store_label spec j in
  if not (Table.equal (Store.view_a oracle) (Store.view_a st)) then
    fail vs "%s: batched A view differs from one-at-a-time oracle" who;
  if not (Table.equal (Store.view_b oracle) (Store.view_b st)) then
    fail vs "%s: batched B view differs from one-at-a-time oracle" who

let drive spec : report * history array =
  if spec.sessions < 1 || spec.ops < 0 then
    invalid_arg "Scenario.run: sessions must be >= 1 and ops >= 0";
  (* the report's counts are this run's: the registry is process-wide *)
  let count = Esm_incr.Stats.since () in
  let vs = ref [] in
  let n = shards spec in
  let dir = match spec.durability with Dir d -> Some d | Memory -> None in
  let owned = match spec.link with Socket _ -> false | _ -> true in
  let stores =
    if not owned then [||]
    else
      Array.init n (fun i ->
          open_store
            ?dir:(Option.map (fun d -> store_dir spec d i) dir)
            ~name:(store_name spec i) (init_of spec i))
  in
  let group =
    match spec.topology with
    | Sharded _ when owned ->
        Some
          (Shard.make ~stores
             ~route:
               (Shard.Relational.route_op ~shards:n
                  ~shard_of_row:(shard_of_row ~shards:n))
             ())
    | _ -> None
  in
  let nets =
    match spec.link with
    | Chaos_net ->
        Array.map (fun st -> Transport.Chaos_net.create (Wire.serve st)) stores
    | _ -> [||]
  in
  let side k = if k mod 2 = 0 then `A else `B in
  let home k = k mod n in
  let pid = Unix.getpid () in
  let remote_sessions = ref [] in
  let clients =
    match spec.link with
    | In_process ->
        List.init spec.sessions (fun k ->
            local_client ~vs ~group ~stores
              ~name:(Printf.sprintf "s%d" (k + 1))
              ~side:(side k) ~home:(home k))
    | Chaos_net ->
        let policy = net_policy spec.seed in
        let resolve s =
          Array.iter Transport.Chaos_net.drain nets;
          Chaos.protected (fun () -> R.resolve s)
        in
        (* bind on a quiet net: the interesting chaos is on the data ops *)
        Chaos.protected (fun () ->
            bind_remote ~n_sessions:spec.sessions (fun k ->
                let net = nets.(home k) in
                R.bind ~policy ~clock:(Transport.Chaos_net.clock net)
                  (Transport.Chaos_net.endpoint net)
                  ~name:(Printf.sprintf "n%d" (k + 1))
                  ~side:(side k)))
        |> List.mapi (fun k s -> remote_client ~resolve ~home:(home k) s)
    | Socket addr ->
        let policy =
          { (Retry.default ~seed:spec.seed ()) with Retry.attempt_timeout = 5.0 }
        in
        let sessions =
          bind_remote ~n_sessions:spec.sessions (fun k ->
              R.bind ~policy (R.tcp_endpoint addr)
                ~name:(Printf.sprintf "c%d-%d" pid (k + 1))
                ~side:(side k))
        in
        remote_sessions := sessions;
        List.mapi
          (fun k s -> remote_client ~resolve:R.resolve ~home:(home k) s)
          sessions
  in
  let clients = Array.of_list clients in
  let applied = ref 0 and rejected = ref 0 and unresolved = ref 0 in
  let resolved_applied = ref 0 and resolved_rejected = ref 0 in
  let read_failures = ref 0 and recoveries = ref 0 in
  let committed = ref 0 and removed = ref 0 and spanning = ref 0 in
  let acked = Array.make n 0 in
  let account (j, outcome) =
    (match outcome with
    | (Applied | Resolved true) when j >= 0 -> acked.(j) <- acked.(j) + 1
    | _ -> ());
    incr
      (match outcome with
      | Applied -> applied
      | Rejected -> rejected
      | Resolved true -> resolved_applied
      | Resolved false -> resolved_rejected
      | Unresolved -> unresolved)
  in
  (* the oracle history: only a persisted run can be checked later, and
     recording reads views, so the killed run and its rerun record alike *)
  let histories =
    if dir = None then [||] else Array.map (fun _ -> Hashtbl.create 64) stores
  in
  let record () =
    Array.iteri
      (fun j h ->
        let st = stores.(j) in
        if not (Hashtbl.mem h (Store.version st)) then
          Hashtbl.replace h (Store.version st) (Store.view_a st, Store.view_b st))
      histories
  in
  record ();
  (* the batching oracle's input: each store's entries, newest first,
     collected as they commit.  A store keeps its last snapshot period
     when it compacts, so a [`Resync] means entries were dropped unread. *)
  let logs = Array.map (fun _ -> []) stores in
  let collect () =
    Array.iteri
      (fun j st ->
        let mark = match logs.(j) with e :: _ -> e.Oplog.version | [] -> 0 in
        let es =
          match Store.read_since st mark with
          | `Entries es -> es
          | `Resync (v, _) ->
              fail vs "%s: entries %d..%d compacted away unread"
                (store_label spec j) (mark + 1) v;
              Store.entries_since st v
        in
        logs.(j) <- List.rev_append es logs.(j))
      stores
  in
  let crash_every = max 5 (spec.ops / 8) in
  let tick i =
    record ();
    collect ();
    (match (group, spec.topology) with
    | Some g, Sharded { gossip_every; _ } when i mod gossip_every = 0 ->
        Shard.gossip_round g
    | _ -> ());
    if i mod crash_every = 0 then
      (* recovery: crash + replay (from the snapshot horizon once
         compacted) reproduces the uncrashed store *)
      Array.iteri
        (fun j st ->
          let va = Store.view_a st and vb = Store.view_b st in
          let v = Store.version st in
          Store.crash st;
          Store.recover st;
          incr recoveries;
          let who = store_label spec j in
          if Store.version st <> v then
            fail vs "op %d %s: recovery stopped at %d, expected %d" i who
              (Store.version st) v;
          if not (Table.equal (Store.view_a st) va) then
            fail vs "op %d %s: recovered A view differs from pre-crash" i who;
          if not (Table.equal (Store.view_b st) vb) then
            fail vs "op %d %s: recovered B view differs from pre-crash" i who)
        stores
  in
  (* the workload: one row generator, one view/ping/submit/pull mix *)
  let r = Workload.rng ~seed:spec.seed in
  let id_base = if owned then 100_000 else pid * 1_000_000 in
  let next_id = ref 0 in
  let new_row (c : client) =
    incr next_id;
    (* the router places a routed client's rows; a pinned one keeps
       them in its shard's residue class *)
    let id =
      if Option.is_some group then id_base + !next_id
      else ((id_base + !next_id) * n) + c.home
    in
    let name = Workload.pick r [ "nu"; "xi"; "pi"; "rho" ] ^ string_of_int id in
    match c.side with
    | `A ->
        Row.of_list
          [
            Value.Int id;
            Value.Str name;
            Value.Str (Workload.pick r [ "Engineering"; "Sales"; "Ops" ]);
            Value.Int (40_000 + (500 * Workload.int r 100));
            Value.Str (name ^ "@example.com");
          ]
    | `B ->
        (* view rows must satisfy the lens predicate to be puttable *)
        Row.of_list [ Value.Int id; Value.Str name; Value.Str "Engineering" ]
  in
  let read_failed = function
    | Ok _ -> ()
    | Error _ -> incr read_failures
  in
  let pick_client () = clients.(Workload.int r (Array.length clients)) in
  (* a local read is free and a remote one is a round trip: in-process
     clients refresh their removal pool every round and, after the
     submit, re-poll (the unchanged-store short-circuit) and wake a
     bystander; remote clients read every 5th round and pull one round
     in four *)
  let local = match spec.link with In_process -> true | _ -> false in
  let seen : (string, Row.t list) Hashtbl.t = Hashtbl.create 16 in
  for i = 1 to spec.ops do
    let c = pick_client () in
    if local || i mod 5 = 0 then begin
      match c.view () with
      | Ok rows -> Hashtbl.replace seen c.name rows
      | Error _ as e -> read_failed e
    end;
    if i mod 11 = 0 then read_failed (c.ping ());
    (* a burst of 1-4 deltas, each the removal of a row the client saw
       with probability 2/3 (the same row may go twice) *)
    let pool = Option.value (Hashtbl.find_opt seen c.name) ~default:[] in
    let deltas =
      List.init (1 + Workload.int r 4) (fun _ ->
          if pool = [] || Workload.int r 3 = 0 then Row_delta.Add (new_row c)
          else Row_delta.Remove (Workload.pick r pool))
    in
    let outcomes = c.submit deltas in
    List.iter account outcomes;
    if List.length outcomes > 1 then incr spanning;
    if List.for_all (fun (_, o) -> o = Applied || o = Resolved true) outcomes
    then begin
      committed := !committed + List.length deltas;
      List.iter
        (function Row_delta.Remove _ -> incr removed | Row_delta.Add _ -> ())
        deltas
    end;
    if local then (
      read_failed (c.pull ());
      read_failed ((pick_client ()).pull ()))
    else if Workload.int r 4 = 0 then read_failed (c.pull ());
    tick i
  done;
  (* the net heals; everything below runs fault-free *)
  Array.iter Transport.Chaos_net.drain nets;
  record ();
  collect ();
  vs :=
    List.rev_append
      (accounting_violations ~heads:(Array.map Store.version stores) ~acked
         ~unresolved:!unresolved)
      !vs;
  Chaos.protected (fun () ->
      Array.iteri
        (fun j st -> batching_check ~vs spec j st (List.rev logs.(j)))
        stores;
      Option.iter
        (fun g ->
          if not (Shard.gossip_until_quiescent ~max_rounds:(8 * n) g) then
            fail vs "gossip did not quiesce on a fault-free net";
          if not (Shard.Relational.converged g) then
            fail vs "shards did not converge to the same entangled whole")
        group);
  (* convergence: every session pulls to its store's head — over a
     socket, other clients may still commit, so to at least the head
     observed when the check starts *)
  let observed = ref 0 in
  let converged =
    Chaos.protected (fun () ->
        if not owned then
          observed := Result.value (clients.(0).pull ()) ~default:max_int;
        Array.fold_left
          (fun k (c : client) ->
            match c.pull () with
            | Ok v when (owned && v = Store.version stores.(c.home))
                        || ((not owned) && v >= !observed) ->
                k + 1
            | Ok v ->
                fail vs "session %s stopped at %d, head is %d" c.name v
                  (if owned then Store.version stores.(c.home) else !observed);
                k
            | Error e ->
                fail vs "session %s final pull failed: %s" c.name
                  (Error.message e);
                k)
          0 clients)
  in
  List.iter
    (fun s ->
      ignore (R.bye s);
      R.close s)
    !remote_sessions;
  let heads =
    if owned then Array.map Store.version stores else [| !observed |]
  in
  (* what the stores' own policy compacted, before a last fault-free
     compaction gives the audit the tightest horizon *)
  let horizons = Array.map Store.horizon stores in
  Chaos.protected (fun () ->
      Array.iteri
        (fun j st ->
          match Store.compact st with
          | Ok _ -> ()
          | Error e ->
              fail vs "%s: fault-free compaction failed: %s"
                (store_label spec j) (Error.message e))
        stores);
  let pre_close =
    Array.map (fun st -> (Store.version st, Store.view_a st, Store.view_b st)) stores
  in
  Array.iter Store.close stores;
  Option.iter (fun d -> Array.iteri (audit ~vs spec d) pre_close) dir;
  let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  let summary =
    Printf.sprintf
      "%s: seed=%d ops=%d sessions=%d applied=%d rejected=%d resolved=%d+%d \
       unresolved=%d deltas=%d removes=%d multi-store=%d read-failures=%d \
       recoveries=%d heads=[%s]%s converged=%d/%d%s"
      (label spec) spec.seed spec.ops spec.sessions !applied !rejected
      !resolved_applied !resolved_rejected !unresolved !committed !removed
      !spanning !read_failures
      !recoveries (ints heads)
      (if owned then " horizons=[" ^ ints horizons ^ "]" else "")
      converged spec.sessions
      (match dir with None -> "" | Some d -> " dir=" ^ d)
  in
  let poll =
    (* the caches must be exercised, not bypassed: --require-poll-hits
       gates on the session.poll hits counted here *)
    let memo name =
      let h = count (name ^ ".hit") and m = count (name ^ ".miss") in
      Printf.sprintf "hits=%d misses=%d hit-rate=%.1f%%" h m
        (if h + m = 0 then 0.0 else 100.0 *. float h /. float (h + m))
    in
    Printf.sprintf "poll: %s  store-view: %s" (memo "session.poll")
      (memo "store.view")
  in
  let counted label names =
    label ^ ": "
    ^ String.concat " "
        (List.map (fun (key, name) -> Printf.sprintf "%s=%d" key (count name))
           names)
  in
  let net =
    counted "net"
      [
        ("dropped", "net.dropped"); ("duped", "net.duped");
        ("reordered", "net.reordered"); ("truncated", "net.truncated");
        ("delayed", "net.delayed"); ("halfopen", "net.half_opened");
      ]
    ^ "  "
    ^ counted "core"
        [
          ("requests", "core.requests"); ("executed", "core.executed");
          ("dedup-hits", "core.dedup_hits"); ("stale", "core.stale");
          ("overloads", "core.overloads");
        ]
  in
  let gossip =
    counted "gossip"
      [
        ("rounds", "gossip.rounds"); ("shipped", "gossip.shipped");
        ("resyncs", "gossip.resyncs"); ("skipped-edges", "gossip.skipped_edges");
      ]
  in
  let lines =
    [ summary ]
    @ (if owned then [ poll ] else [])
    @ (if nets <> [||] then [ net ] else [])
    @ if Option.is_some group then [ gossip ] else []
  in
  ( {
      lines;
      verdict = verdict spec;
      violations = List.rev !vs;
      removed = !removed;
      spanning = !spanning;
      horizons;
    },
    histories )

let run spec =
  try fst (drive spec)
  with Abort msg ->
    {
      lines = [];
      verdict = verdict spec;
      violations = [ label spec ^ ": " ^ msg ];
      removed = 0;
      spanning = 0;
      horizons = [||];
    }

let check ?chaos spec =
  let dir =
    match spec.durability with
    | Dir d -> d
    | Memory -> invalid_arg "Scenario.check: the spec names no directory"
  in
  let scratch = dir ^ ".oracle" in
  rm_rf scratch;
  let rerun () = drive { spec with durability = Dir scratch } in
  let oracle, histories =
    match chaos with None -> rerun () | Some c -> Chaos.with_chaos c rerun
  in
  let verdict =
    match spec.topology with
    | Single -> "check: recovered store matches the oracle prefix"
    | Sharded _ -> "check: every recovered shard matches the oracle history"
  in
  if oracle.violations <> [] then
    {
      oracle with
      lines = [ "check: the oracle rerun violated the scenario invariants" ];
      verdict;
    }
  else
    let vs = ref [] in
    let lines =
      List.init (shards spec) (fun j ->
          let who = store_label spec j and d = store_dir spec dir j in
          let oracle_head = Hashtbl.fold (fun v _ m -> max v m) histories.(j) 0 in
          match reopen spec dir j with
          | Error e ->
              fail vs "%s: reopen of %s failed: %s" who d (Error.message e);
              Printf.sprintf "check: dir=%s unrecoverable oracle=%d" d oracle_head
          | Ok st ->
              let h = Store.version st in
              vs :=
                List.rev_append
                  (oracle_violations histories.(j) ~store:who
                     (h, Store.view_a st, Store.view_b st))
                  !vs;
              Store.close st;
              Printf.sprintf "check: dir=%s recovered=%d oracle=%d" d h oracle_head)
    in
    { oracle with lines; verdict; violations = List.rev !vs }

let print r =
  List.iter print_endline r.lines;
  match r.violations with
  | [] ->
      print_endline r.verdict;
      0
  | vs ->
      List.iter (fun v -> print_endline ("VIOLATION: " ^ v)) vs;
      1
