(** Sync suite: the replicated store end to end.

    - {!Esm_sync.Oplog}: dense versioning, suffix reads, snapshots;
    - {!Esm_sync.Store}: transactional commits (a failing update
      appends nothing), optimistic conflicts, batched delta bursts as
      one oplog record, crash + replay recovery, memory and oplog
      bounded by live state rather than by snapshot or commit history
      (the store's own compaction policy), a stale optimistic check
      below the compaction horizon answered with [Conflict];
    - {!Esm_sync.Session}: side enforcement, pull/rebase;
    - {!Esm_sync.Wire}: codec roundtrips and the in-process server;
    - chaos properties: recovery reproduces the uncrashed store, a
      batched commit equals one-at-a-time commits, and sessions
      converge under fixed fault seeds;
    - a single-store kill sweep: a persisted soak killed at every
      durable-write tick, its automatic compaction included, recovers
      to a version the uncrashed oracle committed.

    Like the chaos suite, the base seed comes from [CHAOS_SEED] when
    set, and each property case derives its own instance seed. *)

open Esm_core
open Esm_sync
module Rel = Esm_relational

let check = Alcotest.check
let test = Alcotest.test_case

let chaos_seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> ( try int_of_string s with _ -> 42)
  | None -> 42

let next_case = ref 0

let case_chaos ~rate () =
  incr next_case;
  Chaos.make ~rate ~seed:(chaos_seed + (1000 * !next_case)) ()

(* ------------------------------------------------------------------ *)
(* The store under test: employees behind a where|select lens          *)
(* ------------------------------------------------------------------ *)

let eng_lens =
  Rel.Query.lens_of_string ~schema:Rel.Workload.employees_schema
    ~key:[ "id" ]
    {|employees | where dept = "Engineering" | select id, name, dept|}

let make_store ?(seed = 11) ?(size = 24) ?(snapshot_every = 4) () :
    Wire.rstore =
  Store.of_packed ~name:"employees" ~snapshot_every
    ~apply_da:Rel.Row_delta.apply_all ~apply_db:Rel.Row_delta.apply_all
    (Concrete.packed_of_lens ~vwb:false
       ~init:(Rel.Workload.employees ~seed ~size)
       ~eq_state:Rel.Table.equal eng_lens)

let view_row i name =
  Rel.Row.of_list
    [ Rel.Value.Int i; Rel.Value.Str name; Rel.Value.Str "Engineering" ]

let kind_of = function
  | Ok _ -> None
  | Error (e : Error.t) -> Some e.Error.kind

(* ------------------------------------------------------------------ *)
(* Oplog                                                               *)
(* ------------------------------------------------------------------ *)

let oplog_tests =
  [
    test "versions are dense and suffix reads are ordered" `Quick (fun () ->
        let log = Oplog.create ~snapshot_every:2 ~init:"s0" () in
        check Alcotest.int "empty head" 0 (Oplog.head_version log);
        let v1 = Oplog.append log ~session:"x" "op1" in
        let v2 = Oplog.append log ~session:"y" "op2" in
        let v3 = Oplog.append log ~session:"x" "op3" in
        check Alcotest.(list int) "dense" [ 1; 2; 3 ] [ v1; v2; v3 ];
        check
          Alcotest.(list (pair string string))
          "suffix oldest first"
          [ ("y", "op2"); ("x", "op3") ]
          (List.map
             (fun (e : _ Oplog.entry) -> (e.Oplog.session, e.Oplog.op))
             (Oplog.entries_since log 1)));
    test "snapshots seed at version 0 and record on period" `Quick (fun () ->
        let log = Oplog.create ~snapshot_every:2 ~init:"s0" () in
        check Alcotest.(pair int string) "seed" (0, "s0")
          (Oplog.latest_snapshot log);
        ignore (Oplog.append log ~session:"x" "op1");
        check Alcotest.bool "not due at 1" false (Oplog.snapshot_due log);
        ignore (Oplog.append log ~session:"x" "op2");
        check Alcotest.bool "due at 2" true (Oplog.snapshot_due log);
        Oplog.record_snapshot log 2 "s2";
        check Alcotest.(pair int string) "latest" (2, "s2")
          (Oplog.latest_snapshot log));
    test "create rejects a non-positive snapshot period" `Quick (fun () ->
        match Oplog.create ~snapshot_every:0 ~init:() () with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Store: commits, conflicts, transactionality                         *)
(* ------------------------------------------------------------------ *)

(* A fresh employees row, id [100_000 + i]. *)
let tmp_row i =
  Rel.Row.of_list
    [
      Rel.Value.Int (100_000 + i);
      Rel.Value.Str "tmp";
      Rel.Value.Str "Sales";
      Rel.Value.Int 50_000;
      Rel.Value.Str "tmp@example.com";
    ]

(* An employees burst that adds a fresh row and removes it again: the
   live table never changes, so anything that grows is history. *)
let net_zero_burst i =
  let row = tmp_row i in
  Store.Batch_a [ Rel.Row_delta.Add row; Rel.Row_delta.Remove row ]

let store_tests =
  [
    test "commit advances the version and both views" `Quick (fun () ->
        let store = make_store () in
        let d = Rel.Row_delta.Add (view_row 9001 "nina") in
        (match Store.commit ~session:"b1" store (Store.Batch_b [ d ]) with
        | Ok v -> check Alcotest.int "version 1" 1 v
        | Error e -> Alcotest.failf "commit failed: %s" (Error.message e));
        check Alcotest.bool "row in B view" true
          (List.exists
             (Rel.Row.equal (view_row 9001 "nina"))
             (Rel.Table.rows (Store.view_b store)));
        check Alcotest.bool "row propagated to A view" true
          (List.exists
             (fun r -> List.hd (Rel.Row.to_list r) = Rel.Value.Int 9001)
             (Rel.Table.rows (Store.view_a store))));
    test "stale optimistic check yields Conflict naming the winner" `Quick
      (fun () ->
        let store = make_store () in
        let s1 = Session.bind store ~name:"s1" ~side:`B in
        let s2 = Session.bind store ~name:"s2" ~side:`B in
        (match
           Session.submit s1
             (Store.Batch_b [ Rel.Row_delta.Add (view_row 9001 "nina") ])
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "s1 failed: %s" (Error.message e));
        let res =
          Session.submit s2
            (Store.Batch_b [ Rel.Row_delta.Add (view_row 9002 "omar") ])
        in
        check Alcotest.bool "Conflict kind" true
          (kind_of res = Some Error.Conflict);
        (match res with
        | Error e ->
            check Alcotest.bool "names the winner" true
              (let detail = Error.message e in
               let rec contains i =
                 i + 2 <= String.length detail
                 && (String.sub detail i 2 = "s1" || contains (i + 1))
               in
               contains 0)
        | Ok _ -> assert false);
        check Alcotest.int "loser appended nothing" 1 (Store.version store);
        (* the loser rebases: pull the winning entries, resubmit on top *)
        match
          Session.submit_rebase s2
            (Store.Batch_b [ Rel.Row_delta.Add (view_row 9002 "omar") ])
        with
        | Ok (v, rebased) ->
            check Alcotest.int "rebased to 2" 2 v;
            check Alcotest.int "saw one winning entry" 1 (List.length rebased);
            check Alcotest.bool "both rows present" true
              (let rows = Rel.Table.rows (Store.view_b store) in
               List.exists (Rel.Row.equal (view_row 9001 "nina")) rows
               && List.exists (Rel.Row.equal (view_row 9002 "omar")) rows)
        | Error e -> Alcotest.failf "rebase failed: %s" (Error.message e));
    test "a failing update rolls back and appends nothing" `Quick (fun () ->
        let store = make_store () in
        let before = Store.view_b store in
        (* a view row outside the lens predicate is not puttable *)
        let bad =
          Rel.Row.of_list
            [
              Rel.Value.Int 9003;
              Rel.Value.Str "zoe";
              Rel.Value.Str "Sales";
            ]
        in
        let res =
          Store.commit ~session:"b1" store
            (Store.Batch_b [ Rel.Row_delta.Add bad ])
        in
        check Alcotest.bool "typed error" true (Result.is_error res);
        check Alcotest.int "version unchanged" 0 (Store.version store);
        check Alcotest.int "oplog empty" 0
          (List.length (Store.entries_since store 0));
        check Alcotest.bool "view unchanged" true
          (Rel.Table.equal before (Store.view_b store)));
    test "a batched burst is one oplog record" `Quick (fun () ->
        let store = make_store () in
        let ds =
          [
            Rel.Row_delta.Add (view_row 9001 "nina");
            Rel.Row_delta.Add (view_row 9002 "omar");
            Rel.Row_delta.Remove (view_row 9001 "nina");
          ]
        in
        (match Store.commit ~session:"b1" store (Store.Batch_b ds) with
        | Ok v -> check Alcotest.int "one version" 1 v
        | Error e -> Alcotest.failf "commit failed: %s" (Error.message e));
        check Alcotest.int "one entry" 1
          (List.length (Store.entries_since store 0));
        check Alcotest.bool "net effect applied" true
          (let rows = Rel.Table.rows (Store.view_b store) in
           List.exists (Rel.Row.equal (view_row 9002 "omar")) rows
           && not (List.exists (Rel.Row.equal (view_row 9001 "nina")) rows)));
    test "crashed store refuses commits until recover" `Quick (fun () ->
        let store = make_store ~snapshot_every:4 () in
        for i = 1 to 5 do
          match
            Store.commit ~session:"b1" store
              (Store.Batch_b [ Rel.Row_delta.Add (view_row (9000 + i) "r") ])
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "commit %d failed: %s" i (Error.message e)
        done;
        let va = Store.view_a store and vb = Store.view_b store in
        Store.crash store;
        check Alcotest.int "woke at snapshot 4" 4 (Store.version store);
        check Alcotest.int "oplog head still 5" 5 (Store.head_version store);
        let refused =
          Store.commit ~session:"b1" store
            (Store.Batch_b [ Rel.Row_delta.Add (view_row 9999 "late") ])
        in
        check Alcotest.bool "refused" true
          (kind_of refused = Some Error.Other);
        Store.recover store;
        check Alcotest.int "caught up" 5 (Store.version store);
        check Alcotest.bool "A view reproduced" true
          (Rel.Table.equal va (Store.view_a store));
        check Alcotest.bool "B view reproduced" true
          (Rel.Table.equal vb (Store.view_b store)));
    test "memory is bounded by live state, not by snapshot history" `Quick
      (fun () ->
        let store = Scenario.store ~seed:5 ~size:4096 () in
        let rows = Array.of_list (Rel.Table.rows (Store.view_a store)) in
        (* 400 one-row edits (a salary bump) at a constant table size:
           50 snapshot periods of 8 commits *)
        for i = 0 to 399 do
          let old_row = rows.(i) in
          let new_row =
            Rel.Row.of_list
              (List.mapi
                 (fun j v ->
                   match v with
                   | Rel.Value.Int s when j = 3 -> Rel.Value.Int (s + 1)
                   | v -> v)
                 (Rel.Row.to_list old_row))
          in
          match
            Store.commit ~session:"a1" store
              (Store.Batch_a
                 [ Rel.Row_delta.Remove old_row; Rel.Row_delta.Add new_row ])
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "commit %d failed: %s" i (Error.message e)
        done;
        check Alcotest.int "size constant" 4096
          (Rel.Table.cardinality (Store.view_a store));
        (* the store holds the live state, one snapshot and the oplog;
           a snapshot per period would hold 50 more table spines and
           their key indexes *)
        let words x = Obj.reachable_words (Obj.repr x) in
        let ratio =
          float_of_int (words store) /. float_of_int (words (Store.view_a store))
        in
        if ratio >= 2.0 then
          Alcotest.failf "store holds %.1fx its A view" ratio);
    test "a stale expect below the horizon is a typed Conflict" `Quick
      (fun () ->
        let store = make_store () in
        for i = 1 to 16 do
          match
            Store.commit ~session:"b1" store
              (Store.Batch_b [ Rel.Row_delta.Add (view_row (9000 + i) "r") ])
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "commit %d failed: %s" i (Error.message e)
        done;
        (match Store.compact store with
        | Ok n -> check Alcotest.int "dropped the prefix" 16 n
        | Error e -> Alcotest.failf "compact: %s" (Error.message e));
        let res =
          Store.commit ~expect:3 ~session:"b2" store
            (Store.Batch_b [ Rel.Row_delta.Add (view_row 9999 "late") ])
        in
        check Alcotest.bool "Conflict kind" true
          (kind_of res = Some Error.Conflict);
        check Alcotest.int "nothing applied" 16 (Store.version store));
    test "memory and oplog are bounded by live state, not by history" `Quick
      (fun () ->
        let store = Scenario.store ~seed:5 ~size:48 () in
        (* the store's policy: compact once the retained suffix exceeds
           8 snapshot periods (Scenario.store snapshots every 8) *)
        let bound = (8 * 8) + 8 in
        let words x = Obj.reachable_words (Obj.repr x) in
        let at_2k = ref 0 in
        for i = 1 to 10_000 do
          (match Store.commit ~session:"a1" store (net_zero_burst i) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "commit %d failed: %s" i (Error.message e));
          let suffix = Store.head_version store - Store.horizon store in
          if suffix > bound then
            Alcotest.failf "commit %d: %d entries retained (bound %d)" i suffix
              bound;
          if i = 2_000 then at_2k := words store
        done;
        check Alcotest.int "size constant" 48
          (Rel.Table.cardinality (Store.view_a store));
        let ratio = float_of_int (words store) /. float_of_int !at_2k in
        if ratio >= 1.5 then
          Alcotest.failf "store grew %.2fx from 2k to 10k commits" ratio);
    test "replicated pedigree preserves the base law level" `Quick (fun () ->
        let store = make_store () in
        (match Store.pedigree store with
        | Pedigree.Replicated _ -> ()
        | p -> Alcotest.failf "unexpected pedigree %s" (Pedigree.to_string p));
        check Alcotest.bool "level preserved" true
          (Esm_analysis.Law_infer.level (Store.pedigree store)
          = Esm_analysis.Law_infer.level (Pedigree.Of_lens { name = "x"; vwb = false }));
        check Alcotest.bool "rollback protected" true
          (Esm_analysis.Law_infer.rollback_protected (Store.pedigree store));
        check Alcotest.bool "not fallible" true
          (not (Esm_analysis.Law_infer.fallible (Store.pedigree store))));
  ]

(* ------------------------------------------------------------------ *)
(* Session: side enforcement                                           *)
(* ------------------------------------------------------------------ *)

let session_tests =
  [
    test "an op against the unbound side is a protocol error" `Quick
      (fun () ->
        let store = make_store () in
        let sa = Session.bind store ~name:"a1" ~side:`A in
        let res =
          Session.submit sa
            (Store.Batch_b [ Rel.Row_delta.Add (view_row 9001 "nina") ])
        in
        check Alcotest.bool "Other kind" true (kind_of res = Some Error.Other);
        check Alcotest.int "store untouched" 0 (Store.version store));
    test "pull returns the suffix and advances the base" `Quick (fun () ->
        let store = make_store () in
        let sa = Session.bind store ~name:"a1" ~side:`A in
        let sb = Session.bind store ~name:"b1" ~side:`B in
        (match
           Session.submit sb
             (Store.Batch_b [ Rel.Row_delta.Add (view_row 9001 "nina") ])
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "submit failed: %s" (Error.message e));
        check Alcotest.int "behind" 0 (Session.base sa);
        let entries = Session.pull sa in
        check Alcotest.int "one entry" 1 (List.length entries);
        check Alcotest.int "caught up" 1 (Session.base sa);
        check Alcotest.int "idempotent" 0 (List.length (Session.pull sa)));
  ]

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)
(* ------------------------------------------------------------------ *)

(* Strings exercising every delimiter and escape the codec handles. *)
let gen_nasty_string : string QCheck.Gen.t =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; '"'; '\\'; ','; ';'; ' '; '+' ])
      (int_bound 8))

let gen_wire_row : Rel.Row.t QCheck.arbitrary =
  QCheck.make ~print:Rel.Row.to_string
    QCheck.Gen.(
      let* n = int_range 1 4 in
      let* vs =
        flatten_l
          (List.init n (fun _ ->
               oneof
                 [
                   map (fun i -> Rel.Value.Int i) small_signed_int;
                   map (fun b -> Rel.Value.Bool b) bool;
                   map (fun s -> Rel.Value.Str s) gen_nasty_string;
                 ]))
      in
      return (Rel.Row.of_list vs))

let wire_property_tests =
  [
    QCheck.Test.make ~count:500 ~name:"wire row codec roundtrips" gen_wire_row
      (fun r -> Rel.Row.equal (Wire.parse_row (Wire.render_row r)) r);
    QCheck.Test.make ~count:500 ~name:"wire request codec roundtrips"
      (QCheck.make
         ~print:(fun r -> Wire.render_request r)
         QCheck.Gen.(
           let* rows = list_size (int_bound 3) (QCheck.gen gen_wire_row) in
           oneofl
             [
               Wire.Hello ("sess", `A);
               Wire.Hello ("sess", `B);
               Wire.Get;
               Wire.Set rows;
               Wire.Batch
                 (List.map (fun r -> Rel.Row_delta.Add r) rows
                 @ List.map (fun r -> Rel.Row_delta.Remove r) rows);
               Wire.Pull;
               Wire.Ping;
               Wire.Crash;
               Wire.Recover;
               Wire.Bye;
             ]))
      (fun req -> Wire.parse_request (Wire.render_request req) = req);
  ]

let wire_unit_tests =
  [
    test "response codec roundtrips" `Quick (fun () ->
        List.iter
          (fun resp ->
            check Alcotest.bool
              (Wire.render_response resp)
              true
              (Wire.parse_response (Wire.render_response resp) = resp))
          [
            Wire.Resp_ok 7;
            Wire.Resp_conflict (3, "s1 got there first");
            Wire.Resp_error (Error.Conflict, "stale base");
            Wire.Resp_error (Error.Shape, "bad view");
            Wire.Resp_error (Error.Transport `Transient, "conn reset");
            Wire.Resp_error (Error.Transport `Permanent, "bad frame");
            Wire.Resp_error (Error.Timeout, "no response");
            Wire.Resp_error (Error.Overload, "queue full");
            Wire.Resp_view (2, [ view_row 1 {|quo"te|}; view_row 2 "b;c" ]);
            Wire.Resp_update (5, 2);
            Wire.Resp_pong;
          ]);
    test "malformed input raises a typed Parse error" `Quick (fun () ->
        List.iter
          (fun line ->
            match Wire.parse_request line with
            | _ -> Alcotest.failf "accepted %S" line
            | exception Error.Bx_error e ->
                check Alcotest.bool line true (e.Error.kind = Error.Parse))
          [ "frobnicate"; "hello x"; "hello x c"; "batch ~1, 2"; "" ]);
    test "server turns bx failures into error responses" `Quick (fun () ->
        let srv = Wire.serve (make_store ()) in
        (match Wire.handle srv ~session:"b1" (Wire.Hello ("b1", `B)) with
        | Wire.Resp_ok 0 -> ()
        | r -> Alcotest.failf "hello: %s" (Wire.render_response r));
        (* predicate-violating put comes back as an error response *)
        (match
           Wire.handle srv ~session:"b1"
             (Wire.Batch
                [
                  Rel.Row_delta.Add
                    (Rel.Row.of_list
                       [
                         Rel.Value.Int 1;
                         Rel.Value.Str "zoe";
                         Rel.Value.Str "Sales";
                       ]);
                ])
         with
        | Wire.Resp_error (_, _) -> ()
        | r -> Alcotest.failf "bad batch: %s" (Wire.render_response r));
        (* an unbound session is an error, not an exception *)
        match Wire.handle srv ~session:"ghost" Wire.Get with
        | Wire.Resp_error (_, _) -> ()
        | r -> Alcotest.failf "ghost: %s" (Wire.render_response r));
  ]

(* ------------------------------------------------------------------ *)
(* Chaos properties, driven through the one scenario driver            *)
(* ------------------------------------------------------------------ *)

let scenario ?(topology = Scenario.Single) ?(link = Scenario.In_process)
    ?(durability = Scenario.Memory) ~seed ~ops ~sessions () =
  { Scenario.topology; link; durability; seed; ops; sessions }

let no_violations (r : Scenario.report) =
  match r.Scenario.violations with
  | [] -> true
  | vs -> QCheck.Test.fail_report (String.concat "; " vs)

(* Ten ops crash and recover the store twice (every 5 ops) and diff the
   recovered views against the pre-crash ones. *)
let recovery_prop seed =
  let c = case_chaos ~rate:0.2 () in
  no_violations
    (Chaos.with_chaos c (fun () ->
         Scenario.run (scenario ~seed ~ops:10 ~sessions:2 ())))

(* Four ops, no crash: every round reads the view and commits 1-4
   deltas, about two thirds of them removals of viewed rows (possibly
   the same row twice).  A rejected batch must leave no trace, and the
   end-of-run replay commits every batch one delta at a time and must
   land on the same views. *)
let batch_oracle_spec seed = scenario ~seed ~ops:4 ~sessions:2 ()

let batch_oracle_prop seed =
  let c = case_chaos ~rate:0.2 () in
  no_violations
    (Chaos.with_chaos c (fun () -> Scenario.run (batch_oracle_spec seed)))

let chaos_property_tests =
  [
    QCheck.Test.make ~count:60
      ~name:"recovery under chaos reproduces the uncrashed store"
      QCheck.small_nat recovery_prop;
    QCheck.Test.make ~count:60
      ~name:"a batched commit equals one-at-a-time commits"
      QCheck.small_nat batch_oracle_prop;
  ]

let check_clean (r : Scenario.report) =
  check Alcotest.(list string) "no violations" [] r.Scenario.violations

(* Convergence under two fixed fault seeds: after a chaotic multi-session
   workload with crashes along the way, every session pulls to the store
   head. *)
let convergence_case fault_seed =
  test
    (Printf.sprintf "sessions converge under chaos seed %d" fault_seed)
    `Quick
    (fun () ->
      let c = Chaos.make ~rate:0.1 ~seed:fault_seed () in
      check_clean
        (Chaos.with_chaos c (fun () ->
             Scenario.run (scenario ~seed:fault_seed ~ops:30 ~sessions:4 ()))))

let convergence_tests = [ convergence_case 1; convergence_case 20140328 ]

(* ------------------------------------------------------------------ *)
(* The scenario matrix and its checkers                                *)
(* ------------------------------------------------------------------ *)

(* A run directory inside a scratch root, so the check's sibling
   [DIR.oracle] is cleaned up with it. *)
let with_run_dir f =
  Test_durable_log.with_tmp_dir (fun root -> f (Filename.concat root "run"))

(* A clean run in which every owned store compacted on its own before
   the end-of-run compaction. *)
let check_clean_self_compacted (r : Scenario.report) =
  check_clean r;
  Array.iteri
    (fun j h -> if h = 0 then Alcotest.failf "store %d never compacted itself" j)
    r.Scenario.horizons

(* Persisted runs commit past version 80 on every store (a sharded
   store sees about a quarter to a third of the bursts), so each store
   compacts itself under chaos, crashes and gossip. *)
let persisted_ops = function Scenario.Single -> 120 | Scenario.Sharded _ -> 480

(* Every topology x link x durability at toy size under chaos: zero
   violations.  Persisted runs are long enough for every store to
   compact itself, and the on-disk audit runs after them. *)
let matrix_case (tname, topology) (lname, link) persisted =
  test
    (Printf.sprintf "scenario %s / %s / %s is clean" tname lname
       (if persisted then "dir+compact" else "memory"))
    `Quick
    (fun () ->
      let go durability ops =
        let c = case_chaos ~rate:0.05 () in
        Chaos.with_chaos c (fun () ->
            Scenario.run
              (scenario ~topology ~link ~durability ~seed:chaos_seed ~ops
                 ~sessions:4 ()))
      in
      if persisted then
        with_run_dir (fun d ->
            check_clean_self_compacted
              (go (Scenario.Dir d) (persisted_ops topology)))
      else check_clean (go Scenario.Memory 40))

let matrix_tests =
  List.concat_map
    (fun topo ->
      List.concat_map
        (fun link -> [ matrix_case topo link false; matrix_case topo link true ])
        [ ("in-process", Scenario.In_process); ("chaos-net", Scenario.Chaos_net) ])
    [
      ("single", Scenario.Single);
      ("3 shards", Scenario.Sharded { shards = 3; gossip_every = 5 });
    ]

let checker_tests =
  [
    test "check: an uncrashed persisted run matches its oracle history" `Quick
      (fun () ->
        List.iter
          (fun topology ->
            with_run_dir (fun d ->
                let spec =
                  scenario ~topology ~durability:(Scenario.Dir d)
                    ~seed:chaos_seed ~ops:(persisted_ops topology)
                    ~sessions:3 ()
                in
                let chaos () = Chaos.make ~rate:0.05 ~seed:chaos_seed () in
                check_clean_self_compacted
                  (Chaos.with_chaos (chaos ()) (fun () -> Scenario.run spec));
                check_clean (Scenario.check ~chaos:(chaos ()) spec)))
          [ Scenario.Single; Scenario.Sharded { shards = 2; gossip_every = 4 } ]);
    (* the properties above are only as strong as the bursts they see *)
    test "the batch-oracle workload commits removals" `Quick (fun () ->
        List.iter
          (fun seed ->
            let r = Scenario.run (batch_oracle_spec seed) in
            check_clean r;
            if r.Scenario.removed = 0 then
              Alcotest.failf "seed %d committed no Remove delta" seed)
          (List.init 60 Fun.id));
    test "a sharded in-process burst routes across several shards" `Quick
      (fun () ->
        let r =
          Scenario.run
            (scenario
               ~topology:(Scenario.Sharded { shards = 3; gossip_every = 5 })
               ~seed:chaos_seed ~ops:40 ~sessions:4 ())
        in
        check_clean r;
        check Alcotest.bool "some burst spans shards" true (r.Scenario.spanning > 0));
    test "accounting flags head <> acked and unresolved submits" `Quick
      (fun () ->
        check Alcotest.int "clean" 0
          (List.length
             (Scenario.accounting_violations ~heads:[| 4; 2 |] ~acked:[| 4; 2 |]
                ~unresolved:0));
        check Alcotest.int "fabricated ack count" 1
          (List.length
             (Scenario.accounting_violations ~heads:[| 4; 2 |] ~acked:[| 4; 3 |]
                ~unresolved:0));
        check Alcotest.int "unresolved submit" 1
          (List.length
             (Scenario.accounting_violations ~heads:[| 4 |] ~acked:[| 4 |]
                ~unresolved:1)));
    test "the oracle flags a recovered view that differs from the history"
      `Quick (fun () ->
        let store = make_store () in
        let history : Scenario.history = Hashtbl.create 4 in
        Hashtbl.replace history 0 (Store.view_a store, Store.view_b store);
        let va = Store.view_a store and vb = Store.view_b store in
        check Alcotest.int "match" 0
          (List.length (Scenario.oracle_violations history ~store:"s" (0, va, vb)));
        let vb' = Rel.Table.insert vb (view_row 9001 "nina") in
        check Alcotest.int "B view differs" 1
          (List.length (Scenario.oracle_violations history ~store:"s" (0, va, vb')));
        check Alcotest.int "never committed" 1
          (List.length (Scenario.oracle_violations history ~store:"s" (3, va, vb))));
  ]

exception Killed

(* Kill a persisted single-store soak at every durable-write tick: both
   halves of each entry record, the periodic snapshots, the automatic
   compaction's log rewrite (tmp records, fsync, rename, fd switch) and
   the end-of-run compaction.  Each torn directory must reopen to a
   version the uncrashed oracle rerun committed, with the same views. *)
let kill_sweep_test () =
  with_run_dir (fun d ->
      (* 80 rounds commit past version 72, where the retained suffix
         first exceeds eight snapshot periods *)
      let spec =
        scenario ~durability:(Scenario.Dir d) ~seed:chaos_seed ~ops:80
          ~sessions:4 ()
      in
      let before = Durable_log.writes_performed () in
      check_clean (Scenario.run spec);
      let ticks = Durable_log.writes_performed () - before in
      let head = ref 0 and auto = ref 0 in
      (match Durable_log.load ~dir:d with
      | Ok l ->
          head :=
            List.fold_left
              (fun _ (e : Durable_log.raw_entry) -> e.Durable_log.version)
              l.Durable_log.horizon l.Durable_log.entries
      | Error e -> Alcotest.failf "load: %s" (Error.message e));
      for k = 1 to ticks do
        Durable_log.set_kill_at ~exit:(fun () -> raise Killed) (Some k);
        (match Scenario.run spec with
        | _ -> Alcotest.failf "kill at tick %d of %d did not fire" k ticks
        | exception Killed -> ()
        | exception e ->
            Durable_log.set_kill_at None;
            raise e);
        Durable_log.set_kill_at None;
        (* a compacted log behind the final head: the commit path
           compacted on its own, before the end-of-run compaction *)
        (match Durable_log.load ~dir:d with
        | Ok l
          when l.Durable_log.horizon > 0
               && List.exists
                    (fun (e : Durable_log.raw_entry) ->
                      e.Durable_log.version < !head)
                    l.Durable_log.entries ->
            incr auto
        | _ -> ());
        match (Scenario.check spec).Scenario.violations with
        | [] -> ()
        | vs -> Alcotest.failf "kill at tick %d: %s" k (String.concat "; " vs)
      done;
      check Alcotest.bool "the sweep crosses an automatic compaction" true
        (!auto > 0))

(* The policy's fault arms, on a persisted store: a faulted log rewrite
   and a faulted snapshot write are absorbed (the commit succeeds and the
   full log stays valid on disk), and the next snapshot compacts. *)
let absorbed_faults_test () =
  with_run_dir (fun d ->
      let store = Scenario.store ~dir:d ~seed:5 ~size:48 () in
      let commit_ok i =
        match Store.commit ~session:"a1" store (net_zero_burst i) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "commit %d failed: %s" i (Error.message e)
      in
      let on_disk () =
        match Durable_log.load ~dir:d with
        | Ok l -> (l.Durable_log.horizon, List.length l.Durable_log.entries)
        | Error e -> Alcotest.failf "load: %s" (Error.message e)
      in
      (* every rewrite faults: versions 72 and 80 are both due *)
      let c = Chaos.make ~rate:1.0 ~seed:chaos_seed () in
      Chaos.with_chaos c (fun () ->
          Chaos.at_sites [ "sync.durable.compact" ] (fun () ->
              for i = 1 to 80 do
                commit_ok i
              done));
      check Alcotest.int "rewrites faulted" 2 (Chaos.injected c);
      check Alcotest.int "and absorbed" 2 (Chaos.fallbacks c);
      check Alcotest.int "nothing compacted" 0 (Store.horizon store);
      check Alcotest.(pair int int) "the full log on disk" (0, 80) (on_disk ());
      check Alcotest.bool "no rewrite left behind" false
        (Sys.file_exists (Filename.concat d "log.bin.tmp"));
      for i = 81 to 88 do
        commit_ok i
      done;
      check Alcotest.int "the next snapshot compacts" 80 (Store.horizon store);
      check Alcotest.(pair int int) "compacted on disk" (80, 8) (on_disk ());
      (* half the snapshot writes fault (a faulted append aborts its
         commit, which the loop retries) until a due compaction's
         snapshot write failed *)
      let c = Chaos.make ~rate:0.5 ~seed:chaos_seed () in
      let missed = ref 0 and i = ref 88 in
      Chaos.with_chaos c (fun () ->
          Chaos.at_sites [ "sync.durable.write" ] (fun () ->
              while !missed = 0 && !i < 2_000 do
                let h = Store.horizon store in
                match
                  Store.commit ~session:"a1" store (net_zero_burst (!i + 1))
                with
                | Error _ -> ()
                | Ok v ->
                    incr i;
                    if v mod 8 = 0 && v - h > 64 && Store.horizon store = h
                    then missed := v
              done));
      if !missed = 0 then Alcotest.fail "no due snapshot write faulted";
      for i = !i + 1 to !i + 8 do
        commit_ok i
      done;
      check Alcotest.int "the next snapshot compacts" !missed (Store.horizon store);
      check Alcotest.(pair int int) "compacted on disk" (!missed, 8) (on_disk ());
      Store.close store)

(* The daemon's store over a directory: a new directory starts a fresh
   log, a restart on a compacted one resumes at its committed head. *)
let resume_test () =
  with_run_dir (fun d ->
      let resume () =
        match Scenario.resume ~dir:d ~seed:5 ~size:48 () with
        | Ok st -> st
        | Error e -> Alcotest.failf "resume: %s" (Error.message e)
      in
      let grow st i =
        match
          Store.commit ~session:"a1" st
            (Store.Batch_a [ Rel.Row_delta.Add (tmp_row i) ])
        with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "commit %d failed: %s" i (Error.message e)
      in
      let st = resume () in
      check Alcotest.int "a new directory starts at 0" 0 (Store.version st);
      for i = 1 to 100 do
        grow st i
      done;
      check Alcotest.bool "the log compacted" true (Store.horizon st > 0);
      let a = Store.view_a st in
      Store.close st;
      let st = resume () in
      check Alcotest.int "the restart resumes at the head" 100 (Store.version st);
      check Alcotest.bool "with the same A view" true
        (Rel.Table.equal a (Store.view_a st));
      grow st 101;
      Store.close st;
      let st = resume () in
      check Alcotest.int "and keeps committing" 101 (Store.version st);
      Store.close st)

let kill_sweep_tests =
  [
    test "esm_syncd's store resumes a persisted directory at its head" `Quick
      resume_test;
    test "single-store kill sweep: every durable-write tick recovers" `Quick
      kill_sweep_test;
    test "a faulted snapshot or log rewrite is absorbed, the next snapshot \
          compacts"
      `Quick absorbed_faults_test;
  ]

let suite =
  oplog_tests @ store_tests @ session_tests @ wire_unit_tests
  @ convergence_tests @ matrix_tests @ checker_tests @ kill_sweep_tests
  @ Helpers.q (wire_property_tests @ chaos_property_tests)
