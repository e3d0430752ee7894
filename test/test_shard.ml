(** Shard suite: sharded stores with gossip replication and
    snapshot-anchored log compaction (see [docs/SYNC.md], "Sharding and
    compaction").

    - horizon edge cases ([Oplog]): exactly-at-snapshot-version is
      servable, strictly-below a positive horizon is a typed answer
      ([entries_since] raises [Corrupt], [read_since] says [`Resync]),
      the empty-log/version-0 boundaries stay total;
    - store compaction: views/version unchanged, durable ordering
      (snapshot first, then the log rewrite), reopen of a compacted
      directory, a compacted directory whose snapshot vanished is a
      typed [Corrupt], stale [log.bin.tmp] is discarded on reopen;
    - the torn-compaction crash matrix: kill at {e every} tick of the
      compaction path (tmp record writes, fsync, rename, fd
      switch-over) and reopen recovers the exact pre-kill head — the
      in-process complement of [esm_syncd --kill-at];
    - session resync: a session whose base fell below the horizon
      pulls through the typed resync and lands on the head;
    - routers: [route_op] partitioning (whole-view sets reach every
      shard, deltas only their owners),
      hash and range routers;
    - gossip: convergence once rounds quiesce, resync of a follower
      that fell below a peer's compaction horizon, and the chaos seed
      matrix — N shards, interleaved sessions, faults at the gossip /
      append / durable sites, per-shard crash+recover and periodic
      compaction, with cross-shard convergence and exact per-shard
      head accounting asserted once gossip quiesces on a healed net. *)

open Esm_core
open Esm_sync
module Rel = Esm_relational

let check = Alcotest.check
let test = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Temp dirs and the store under test                                  *)
(* ------------------------------------------------------------------ *)

let tmp_count = ref 0

let with_tmp_dir (f : string -> 'a) : 'a =
  incr tmp_count;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "esm-shard-%d-%d" (Unix.getpid ()) !tmp_count)
  in
  let rec rm path =
    if Sys.is_directory path then (
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let eng_lens =
  Rel.Query.lens_of_string ~schema:Rel.Workload.employees_schema
    ~key:[ "id" ]
    {|employees | where dept = "Engineering" | select id, name, dept|}

let schema_b =
  Rel.Table.schema
    (Esm_lens.Lens.get eng_lens (Rel.Workload.employees ~seed:1 ~size:1))

let codec =
  Wire.durable_op_codec ~schema_a:Rel.Workload.employees_schema ~schema_b

let packed ?(init = Rel.Workload.employees ~seed:11 ~size:16) () =
  Concrete.packed_of_lens ~vwb:false ~init ~eq_state:Rel.Table.equal eng_lens

let make_store ?init ?persist ?(name = "employees") () : Wire.rstore =
  Store.of_packed ~name ~snapshot_every:8 ~apply_da:Rel.Row_delta.apply_all
    ~apply_db:Rel.Row_delta.apply_all ?persist (packed ?init ())

let make_pstore ~dir () : Wire.rstore =
  make_store ~persist:(Store.persist ~fsync:Durable_log.Fsync_always ~dir codec) ()

let reopen ?init ~dir () : (Wire.rstore, Error.t) result =
  Store.reopen ~name:"employees" ~snapshot_every:8
    ~apply_da:Rel.Row_delta.apply_all ~apply_db:Rel.Row_delta.apply_all ~codec
    ~dir
    (packed ?init ())

let base_row i name dept =
  Rel.Row.of_list
    [
      Rel.Value.Int i;
      Rel.Value.Str name;
      Rel.Value.Str dept;
      Rel.Value.Int 50_000;
      Rel.Value.Str (name ^ "@x.com");
    ]

let view_row i name =
  Rel.Row.of_list
    [ Rel.Value.Int i; Rel.Value.Str name; Rel.Value.Str "Engineering" ]

(* n fresh A-side add commits, ids disjoint from the seeded table *)
let commit_n ?(start = 1_000) store n =
  for i = start to start + n - 1 do
    match
      Store.commit ~session:"w" store
        (Store.Batch_a [ Rel.Row_delta.Add (base_row i "add" "Engineering") ])
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "commit %d failed: %s" i (Error.message e)
  done

let table = Alcotest.testable Rel.Table.pp Rel.Table.equal

let is_corrupt = function
  | Error.Bx_error e -> e.Error.kind = Error.Corrupt
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Oplog horizon edge cases                                            *)
(* ------------------------------------------------------------------ *)

let oplog_tests =
  [
    test "fresh log: version 0 and below are servable, head is 0" `Quick
      (fun () ->
        let l = Oplog.create ~init:0 () in
        check Alcotest.int "head" 0 (Oplog.head_version l);
        check Alcotest.int "horizon" 0 (Oplog.horizon l);
        check Alcotest.int "since 0" 0 (List.length (Oplog.entries_since l 0));
        (* horizon 0: total for every integer, even negative *)
        check Alcotest.int "since -3" 0
          (List.length (Oplog.entries_since l (-3)));
        match Oplog.read_since l 0 with
        | `Entries [] -> ()
        | _ -> Alcotest.fail "expected `Entries [] on a fresh log");
    test "seeded horizon: at serves, below answers typed resync" `Quick
      (fun () ->
        let l = Oplog.create ~horizon:5 ~init:"s5" () in
        check Alcotest.int "head = horizon while empty" 5
          (Oplog.head_version l);
        check Alcotest.int "exactly-at is servable" 0
          (List.length (Oplog.entries_since l 5));
        (try
           ignore (Oplog.entries_since l 4);
           Alcotest.fail "entries_since below horizon must raise"
         with e when is_corrupt e -> ());
        (match Oplog.read_since l 3 with
        | `Resync (5, "s5") -> ()
        | `Resync (v, s) -> Alcotest.failf "resync at (%d, %s)" v s
        | `Entries _ -> Alcotest.fail "expected `Resync below horizon");
        check Alcotest.int "append continues above horizon" 6
          (Oplog.append l ~session:"a" 60);
        match Oplog.entries_since l 5 with
        | [ { Oplog.version = 6; op = 60; _ } ] -> ()
        | _ -> Alcotest.fail "suffix above the seeded horizon");
    test "compact: drops the snapshot prefix, head unchanged, idempotent"
      `Quick (fun () ->
        let l = Oplog.create ~init:"s0" () in
        for i = 1 to 10 do
          ignore (Oplog.append l ~session:"a" (10 * i))
        done;
        Oplog.record_snapshot l 8 "s8";
        check Alcotest.int "dropped" 8 (Oplog.compact l 8);
        check Alcotest.int "horizon" 8 (Oplog.horizon l);
        check Alcotest.int "head unchanged" 10 (Oplog.head_version l);
        check Alcotest.int "retained" 2 (Oplog.length l);
        (* exactly-at-horizon yields the full retained log *)
        check
          Alcotest.(list int)
          "suffix at horizon" [ 90; 100 ]
          (List.map (fun e -> e.Oplog.op) (Oplog.entries_since l 8));
        (try
           ignore (Oplog.entries_since l 7);
           Alcotest.fail "below horizon must raise"
         with e when is_corrupt e -> ());
        (match Oplog.read_since l 2 with
        | `Resync (8, "s8") -> ()
        | _ -> Alcotest.fail "resync from the compaction snapshot");
        check Alcotest.int "idempotent" 0 (Oplog.compact l 8);
        (match Oplog.compact l 9 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "a horizon past the snapshot must be refused");
        check Alcotest.int "head still" 10 (Oplog.head_version l));
    test "compact with no post-snapshot entries leaves head = horizon"
      `Quick (fun () ->
        let l = Oplog.create ~init:"s0" () in
        for i = 1 to 8 do
          ignore (Oplog.append l ~session:"a" i)
        done;
        Oplog.record_snapshot l 8 "s8";
        check Alcotest.int "dropped" 8 (Oplog.compact l 8);
        check Alcotest.int "empty head = horizon" 8 (Oplog.head_version l);
        check Alcotest.int "since head" 0
          (List.length (Oplog.entries_since l 8));
        check Alcotest.int "far above head" 0
          (List.length (Oplog.entries_since l 99)));
    test "create rejects a negative horizon" `Quick (fun () ->
        match Oplog.create ~horizon:(-1) ~init:"x" () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

(* ------------------------------------------------------------------ *)
(* Store compaction                                                    *)
(* ------------------------------------------------------------------ *)

let store_tests =
  [
    test "in-memory compact: views and version unchanged" `Quick (fun () ->
        let s = make_store () in
        commit_n s 12;
        let va = Store.view_a s and vb = Store.view_b s in
        let v = Store.version s in
        (match Store.compact s with
        | Ok n -> check Alcotest.int "dropped the snapshot prefix" 8 n
        | Error e -> Alcotest.failf "compact failed: %s" (Error.message e));
        check Alcotest.int "horizon" 8 (Store.horizon s);
        check Alcotest.int "version" v (Store.version s);
        check table "A view" va (Store.view_a s);
        check table "B view" vb (Store.view_b s);
        (* crash recovery now starts from the horizon snapshot *)
        Store.crash s;
        Store.recover s;
        check Alcotest.int "recovered version" v (Store.version s);
        check table "recovered A view" va (Store.view_a s);
        (try
           ignore (Store.entries_since s 7);
           Alcotest.fail "below horizon must raise"
         with e when is_corrupt e -> ());
        match Store.read_since s 3 with
        | `Resync (8, _) -> ()
        | _ -> Alcotest.fail "read_since below horizon must resync");
    test "session below the horizon resyncs through pull" `Quick (fun () ->
        let s = make_store () in
        let sess = Session.bind s ~name:"lagger" ~side:`A in
        commit_n s 12;
        (match Store.compact s with
        | Ok 8 -> ()
        | Ok n -> Alcotest.failf "dropped %d" n
        | Error e -> Alcotest.failf "compact: %s" (Error.message e));
        (* the session's base (0) fell below the horizon (8): pull must
           answer the retained suffix, not raise, and land on the head *)
        let entries = Session.pull sess in
        check Alcotest.int "suffix length" 4 (List.length entries);
        check Alcotest.int "based at head" (Store.version s)
          (Session.base sess));
    test "persisted compact: snapshot-anchored, reopen reaches the head"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let s = make_pstore ~dir () in
            commit_n s 12;
            let va = Store.view_a s and vb = Store.view_b s in
            (match Store.compact s with
            | Ok 8 -> ()
            | Ok n -> Alcotest.failf "dropped %d" n
            | Error e -> Alcotest.failf "compact: %s" (Error.message e));
            (* the log may be rewritten below the snapshot, never past it *)
            (match Durable_log.load ~dir with
            | Error e -> Alcotest.failf "load: %s" (Error.message e)
            | Ok r ->
                check Alcotest.int "on-disk horizon" 8 r.Durable_log.horizon;
                List.iter
                  (fun (e : Durable_log.raw_entry) ->
                    if e.Durable_log.version <= 8 then
                      Alcotest.failf "retained entry %d below the horizon"
                        e.Durable_log.version)
                  r.Durable_log.entries;
                match r.Durable_log.snapshot with
                | Some (sv, _) when sv >= 8 -> ()
                | Some (sv, _) ->
                    Alcotest.failf "snapshot %d below the horizon" sv
                | None -> Alcotest.fail "no snapshot behind the horizon");
            (* the writer keeps appending through the switched fd *)
            commit_n ~start:2_000 s 3;
            let v = Store.version s in
            let va' = Store.view_a s and vb' = Store.view_b s in
            ignore (va, vb);
            Store.close s;
            match reopen ~dir () with
            | Error e -> Alcotest.failf "reopen: %s" (Error.message e)
            | Ok s' ->
                check Alcotest.int "reopened head" v (Store.version s');
                check table "reopened A" va' (Store.view_a s');
                check table "reopened B" vb' (Store.view_b s');
                check Alcotest.int "reopened horizon" 8 (Store.horizon s');
                Store.close s'));
    test "compacted directory without its snapshot is typed Corrupt" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            let s = make_pstore ~dir () in
            commit_n s 12;
            (match Store.compact s with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "compact: %s" (Error.message e));
            Store.close s;
            Sys.remove (Durable_log.snapshot_file dir);
            match reopen ~dir () with
            | Ok _ ->
                Alcotest.fail
                  "reopen must refuse a horizon with no snapshot behind it"
            | Error e ->
                check Alcotest.bool "kind" true (e.Error.kind = Error.Corrupt)));
    test "stale log.bin.tmp from a torn compaction is discarded" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            let s = make_pstore ~dir () in
            commit_n s 10;
            let v = Store.version s in
            Store.close s;
            write_file (Durable_log.log_file dir ^ ".tmp") "torn garbage";
            (match reopen ~dir () with
            | Error e -> Alcotest.failf "reopen: %s" (Error.message e)
            | Ok s' ->
                check Alcotest.int "head" v (Store.version s');
                Store.close s');
            check Alcotest.bool "tmp removed" false
              (Sys.file_exists (Durable_log.log_file dir ^ ".tmp"))));
  ]

(* ------------------------------------------------------------------ *)
(* The torn-compaction crash matrix                                    *)
(* ------------------------------------------------------------------ *)

exception Killed

let copy_dir src dst =
  List.iter
    (fun f ->
      let p = Filename.concat src f in
      if Sys.file_exists p then write_file (Filename.concat dst f) (read_file p))
    [ "log.bin"; "snapshot.bin" ]

(* Kill at every tick of the compaction path — the snapshot write, each
   tmp record write, the fsync, the rename and the fd switch-over — and
   recovery must reach the exact pre-kill head from whichever of the
   old or new log the crash left behind. *)
let crash_matrix_test () =
  with_tmp_dir (fun base ->
      let s = make_pstore ~dir:base () in
      commit_n s 12;
      let v = Store.version s in
      let va = Store.view_a s and vb = Store.view_b s in
      Store.close s;
      let completed = ref 0 in
      for kill_at = 1 to 24 do
        with_tmp_dir (fun dir ->
            copy_dir base dir;
            match reopen ~dir () with
            | Error e -> Alcotest.failf "reopen: %s" (Error.message e)
            | Ok s ->
                Durable_log.set_kill_at ~exit:(fun () -> raise Killed)
                  (Some kill_at);
                (match Store.compact s with
                | Ok _ -> incr completed
                | Error e ->
                    Alcotest.failf "kill_at=%d: typed error instead of kill: %s"
                      kill_at (Error.message e)
                | exception Killed -> ()
                | exception e ->
                    Durable_log.set_kill_at None;
                    raise e);
                Durable_log.set_kill_at None;
                (* the killed writer is dead; recovery reopens the dir *)
                (match reopen ~dir () with
                | Error e ->
                    Alcotest.failf "kill_at=%d: recovery failed: %s" kill_at
                      (Error.message e)
                | Ok s' ->
                    if Store.version s' <> v then
                      Alcotest.failf "kill_at=%d: recovered %d, expected %d"
                        kill_at (Store.version s') v;
                    check table
                      (Printf.sprintf "kill_at=%d A view" kill_at)
                      va (Store.view_a s');
                    check table
                      (Printf.sprintf "kill_at=%d B view" kill_at)
                      vb (Store.view_b s');
                    Store.close s');
                (* not [Store.close s]: its fd died mid-compaction *)
                ignore s)
      done;
      (* the matrix must include kill points past the end of the path —
         i.e. compactions that ran to completion untouched *)
      check Alcotest.bool "matrix covers completion" true (!completed > 0))

let crash_tests =
  [ test "torn-compaction kill matrix recovers the pre-kill head" `Quick
      crash_matrix_test ]

(* ------------------------------------------------------------------ *)
(* Routers                                                             *)
(* ------------------------------------------------------------------ *)

let shard_of_row ~shards row =
  match Rel.Row.to_list row with
  | Rel.Value.Int id :: _ -> ((id mod shards) + shards) mod shards
  | _ -> 0

let router_tests =
  [
    test "route_op: whole-view sets reach every shard" `Quick (fun () ->
        let tbl =
          Rel.Table.of_rows Rel.Workload.employees_schema
            [ base_row 3 "a" "Engineering"; base_row 6 "b" "Engineering" ]
        in
        let parts =
          Shard.Relational.route_op ~shards:3
            ~shard_of_row:(shard_of_row ~shards:3)
            (Store.Set_a tbl)
        in
        check Alcotest.int "all shards addressed" 3 (List.length parts);
        List.iter
          (fun (i, op) ->
            match op with
            | Store.Set_a p ->
                List.iter
                  (fun r ->
                    check Alcotest.int "row at its owner" i
                      (shard_of_row ~shards:3 r))
                  (Rel.Table.rows p)
            | _ -> Alcotest.fail "Set_a must stay Set_a")
          parts;
        (* shard 1 owns nothing here, but must still be overwritten *)
        match List.assoc 1 parts with
        | Store.Set_a p ->
            check Alcotest.int "empty partition still shipped" 0
              (List.length (Rel.Table.rows p))
        | _ -> Alcotest.fail "missing shard 1");
    test "route_op: delta bursts reach only their owners" `Quick (fun () ->
        let parts =
          Shard.Relational.route_op ~shards:3
            ~shard_of_row:(shard_of_row ~shards:3)
            (Store.Batch_a
               [
                 Rel.Row_delta.Add (base_row 3 "a" "Engineering");
                 Rel.Row_delta.Remove (base_row 9 "b" "Engineering");
               ])
        in
        (match parts with
        | [ (0, Store.Batch_a ds) ] ->
            check Alcotest.int "both deltas at shard 0" 2 (List.length ds)
        | _ -> Alcotest.fail "expected one part at shard 0");
        let parts =
          Shard.Relational.route_op ~shards:3
            ~shard_of_row:(shard_of_row ~shards:3)
            (Store.Batch_b
               [
                 Rel.Row_delta.Add (view_row 4 "c");
                 Rel.Row_delta.Add (view_row 5 "d");
               ])
        in
        check Alcotest.int "two owners" 2 (List.length parts));
    test "hash router: total, stable, in range" `Quick (fun () ->
        let route =
          Shard.Relational.hash_router ~shards:4 ~key:[ "id" ]
            Rel.Workload.employees_schema
        in
        List.iter
          (fun i ->
            let r = base_row i "n" "Sales" in
            let j = route r in
            check Alcotest.bool "in range" true (j >= 0 && j < 4);
            check Alcotest.int "stable" j (route r);
            (* key-only: the other columns must not matter *)
            check Alcotest.int "key-determined" j
              (route (base_row i "other" "Engineering")))
          [ 0; 1; 7; 42; 1000; -3 ]);
    test "range router: shard = bounds at or below the key" `Quick (fun () ->
        let route =
          Shard.Relational.range_router
            ~bounds:[ Rel.Value.Int 20; Rel.Value.Int 40 ]
            ~key:"id" Rel.Workload.employees_schema
        in
        check Alcotest.int "below both" 0 (route (base_row 5 "a" "Sales"));
        check Alcotest.int "at the first bound" 1
          (route (base_row 20 "b" "Sales"));
        check Alcotest.int "between" 1 (route (base_row 39 "c" "Sales"));
        check Alcotest.int "at the second" 2 (route (base_row 40 "d" "Sales"));
        check Alcotest.int "above both" 2 (route (base_row 99 "e" "Sales")));
  ]

(* ------------------------------------------------------------------ *)
(* Gossip and cross-shard convergence                                  *)
(* ------------------------------------------------------------------ *)

let make_group ?dirs ~shards () : Shard.Relational.rt =
  let init = Rel.Workload.employees ~seed:11 ~size:24 in
  let buckets = Array.make shards [] in
  List.iter
    (fun r ->
      let i = shard_of_row ~shards r in
      buckets.(i) <- r :: buckets.(i))
    (Rel.Table.rows init);
  let stores =
    Array.init shards (fun i ->
        let persist =
          match dirs with
          | None -> None
          | Some ds ->
              Some
                (Store.persist ~fsync:(Durable_log.Fsync_every 4) ~dir:ds.(i)
                   codec)
        in
        make_store
          ~init:
            (Rel.Table.of_rows Rel.Workload.employees_schema
               (List.rev buckets.(i)))
          ?persist
          ~name:(Printf.sprintf "employees-%d" i)
          ())
  in
  Shard.make ~stores
    ~route:
      (Shard.Relational.route_op ~shards ~shard_of_row:(shard_of_row ~shards))
    ()

let submit_ok g ~session op =
  List.iter
    (fun (i, outcome) ->
      match outcome with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "shard %d rejected: %s" i (Error.message e))
    (Shard.submit g ~session op)

let gossip_tests =
  [
    test "gossip quiesces and the shards converge" `Quick (fun () ->
        let g = make_group ~shards:3 () in
        for i = 1 to 30 do
          submit_ok g
            ~session:(Printf.sprintf "s%d" (1 + (i mod 3)))
            (Store.Batch_a
               [ Rel.Row_delta.Add (base_row (500 + i) "gg" "Engineering") ])
        done;
        check Alcotest.bool "quiesced" true (Shard.gossip_until_quiescent g);
        check Alcotest.bool "converged" true (Shard.Relational.converged g);
        (* every shard reconstructs the same authoritative union *)
        let a = Shard.Relational.authoritative_a g in
        for i = 0 to Shard.shards g - 1 do
          check table
            (Printf.sprintf "full view of shard %d" i)
            a
            (Shard.Relational.full_view_a g i)
        done);
    test "a follower below a peer's horizon resyncs through gossip" `Quick
      (fun () ->
        let g = make_group ~shards:2 () in
        (* shard 0 runs ahead and compacts before any gossip: shard 1's
           replica (still at 0) has fallen below the horizon *)
        for i = 1 to 12 do
          submit_ok g ~session:"s1"
            (Store.Batch_a
               (* ids ≡ 0 (mod 2): every one of these lives at shard 0 *)
               [ Rel.Row_delta.Add (base_row (600 + (2 * i)) "r" "Engineering") ])
        done;
        (match Store.compact (Shard.store g 0) with
        | Ok n -> check Alcotest.bool "dropped something" true (n > 0)
        | Error e -> Alcotest.failf "compact: %s" (Error.message e));
        let count = Esm_incr.Stats.since () in
        check Alcotest.bool "quiesced" true (Shard.gossip_until_quiescent g);
        check Alcotest.bool "a resync happened" true
          (count "gossip.resyncs" > 0);
        check Alcotest.bool "converged after resync" true
          (Shard.Relational.converged g));
  ]

(* The chaos seed matrix: interleaved sessions, faults on, per-shard
   crash+recover and periodic compaction, then a healed-net quiesce
   with convergence and exact head accounting. *)
let chaos_matrix_prop ~shards ~seed () =
  let g = make_group ~shards () in
  let stores = Array.init shards (Shard.store g) in
  let acked = Array.make shards 0 in
  let r = Rel.Workload.rng ~seed in
  let c = Chaos.make ~rate:0.08 ~seed () in
  Chaos.with_chaos c (fun () ->
      for i = 1 to 120 do
        let session = Printf.sprintf "s%d" (1 + (i mod 4)) in
        let id = 700 + Rel.Workload.int r 500 in
        let op =
          if Rel.Workload.int r 2 = 0 then
            Store.Batch_a [ Rel.Row_delta.Add (base_row id "cm" "Engineering") ]
          else Store.Batch_b [ Rel.Row_delta.Add (view_row id "cm") ]
        in
        List.iter
          (fun (j, outcome) ->
            match outcome with
            | Ok _ -> acked.(j) <- acked.(j) + 1
            | Error _ -> (* rolled back at that shard only *) ())
          (Shard.submit g ~session op);
        if i mod 15 = 0 then Shard.gossip_round g;
        if i mod 30 = 0 then
          Array.iter
            (fun st ->
              match Store.compact st with
              | Ok _ -> ()
              | Error _ -> (* absorbed, retried later *) ())
            stores;
        if i mod 40 = 0 then
          Array.iter
            (fun st ->
              let v = Store.version st in
              Store.crash st;
              Store.recover st;
              if Store.version st <> v then
                Alcotest.failf "seed %d: recovery lost versions" seed)
            stores
      done);
  (* healed net: gossip must quiesce and lift the invariant *)
  Array.iteri
    (fun j st ->
      if Store.version st <> acked.(j) then
        Alcotest.failf "seed %d: shard %d head %d <> %d acked" seed j
          (Store.version st) acked.(j))
    stores;
  check Alcotest.bool
    (Printf.sprintf "seed %d quiesced" seed)
    true
    (Shard.gossip_until_quiescent ~max_rounds:(8 * shards) g);
  check Alcotest.bool
    (Printf.sprintf "seed %d converged" seed)
    true
    (Shard.Relational.converged g)

let chaos_tests =
  List.map
    (fun seed ->
      test
        (Printf.sprintf "chaos matrix: 3 shards, seed %d" seed)
        `Quick
        (chaos_matrix_prop ~shards:3 ~seed))
    [ 1; 7; 42; 20140328 ]
  @ [ test "chaos matrix: 2 shards, seed 42" `Quick
        (chaos_matrix_prop ~shards:2 ~seed:42) ]

let suite =
  oplog_tests @ store_tests @ crash_tests @ router_tests @ gossip_tests
  @ chaos_tests
