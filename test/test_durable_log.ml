(** Durable-log suite: the on-disk oplog format and crash-point
    exhaustive recovery (see [docs/SYNC.md], "Durability").

    - format units: CRC vector, fresh-log shape, header validation;
    - crash-point matrix: for a generated 64-commit workload, truncate
      the log at {e every} record and mid-record boundary and assert
      [Store.reopen] lands on exactly the committed version the valid
      prefix holds — no partial commit ever observable — under all
      three fsync policies, with and without the snapshot file;
    - crash artifacts: duplicated tail after a re-append, missing and
      stale snapshot files;
    - corruption fuzz: random byte flips / splices either recover a
      committed prefix or return a typed [Corrupt] — never an
      unclassified exception, never a wrong state;
    - golden files: checked-in fixtures under [fixtures/durable/] parse
      byte-for-byte and today's writer reproduces them exactly
      (regenerate with [DURABLE_FIXTURE_OUT=<dir> dune exec
      test/test_main.exe -- test durable]);
    - [Oplog.entries_since] against a list-filter reference for
      arguments below the latest snapshot version and above head;
    - chaos: commits under fault injection at [sync.durable.write]
      keep disk and memory agreeing (reopen = live store).

    Like the chaos suite, the base seed comes from [CHAOS_SEED]. *)

open Esm_core
open Esm_sync
module Rel = Esm_relational

let check = Alcotest.check
let test = Alcotest.test_case

let chaos_seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> ( try int_of_string s with _ -> 42)
  | None -> 42

(* ------------------------------------------------------------------ *)
(* Temp dirs and file helpers                                          *)
(* ------------------------------------------------------------------ *)

let tmp_count = ref 0

let with_tmp_dir (f : string -> 'a) : 'a =
  incr tmp_count;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "esm-durable-%d-%d" (Unix.getpid ()) !tmp_count)
  in
  let rec rm path =
    if Sys.is_directory path then (
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Lay out a log directory from raw bytes (snapshot optional). *)
let make_dir ~dir ~log ~snapshot =
  write_file (Durable_log.log_file dir) log;
  (match snapshot with
  | Some s -> write_file (Durable_log.snapshot_file dir) s
  | None ->
      if Sys.file_exists (Durable_log.snapshot_file dir) then
        Sys.remove (Durable_log.snapshot_file dir))

(* ------------------------------------------------------------------ *)
(* The store under test (as in test_sync: employees where|select)      *)
(* ------------------------------------------------------------------ *)

let eng_lens =
  Rel.Query.lens_of_string ~schema:Rel.Workload.employees_schema
    ~key:[ "id" ]
    {|employees | where dept = "Engineering" | select id, name, dept|}

let schema_b =
  Rel.Table.schema
    (Esm_lens.Lens.get eng_lens (Rel.Workload.employees ~seed:1 ~size:1))

let codec =
  Wire.durable_op_codec ~schema_a:Rel.Workload.employees_schema ~schema_b

let packed ?(seed = 11) ?(size = 16) () =
  Concrete.packed_of_lens ~vwb:false
    ~init:(Rel.Workload.employees ~seed ~size)
    ~eq_state:Rel.Table.equal eng_lens

let make_pstore ?(seed = 11) ?(size = 16) ?(snapshot_every = 8)
    ?(fsync = Durable_log.Fsync_never) ~dir () : Wire.rstore =
  Store.of_packed ~name:"employees" ~snapshot_every
    ~apply_da:Rel.Row_delta.apply_all ~apply_db:Rel.Row_delta.apply_all
    ~persist:(Store.persist ~fsync ~dir codec)
    (packed ~seed ~size ())

let reopen ?(snapshot_every = 8) ~dir () :
    (Wire.rstore, Error.t) result =
  Store.reopen ~name:"employees" ~snapshot_every
    ~apply_da:Rel.Row_delta.apply_all ~apply_db:Rel.Row_delta.apply_all
    ~codec ~dir (packed ())

let view_row i name =
  Rel.Row.of_list
    [ Rel.Value.Int i; Rel.Value.Str name; Rel.Value.Str "Engineering" ]

let base_row i name dept =
  Rel.Row.of_list
    [
      Rel.Value.Int i;
      Rel.Value.Str name;
      Rel.Value.Str dept;
      Rel.Value.Int 50_000;
      Rel.Value.Str (name ^ "@example.com");
    ]

(* A deterministic workload of [commits] committed operations (every
   one succeeds), returning the committed history: [history.(v)] is
   (A view, B view) at version [v]. *)
let run_workload ?(seed = 7) ~commits (store : Wire.rstore) :
    (Rel.Table.t * Rel.Table.t) array =
  let r = Rel.Workload.rng ~seed in
  let fresh = ref 90_000 in
  let history = Array.make (commits + 1) (Store.view_a store, Store.view_b store) in
  for v = 1 to commits do
    let b_rows = Rel.Table.rows (Store.view_b store) in
    let op =
      match Rel.Workload.int r 4 with
      | 0 ->
          incr fresh;
          Store.Batch_a
            [
              Rel.Row_delta.Add
                (base_row !fresh
                   ("a" ^ string_of_int !fresh)
                   (Rel.Workload.pick r [ "Engineering"; "Sales" ]));
            ]
      | 1 when b_rows <> [] ->
          Store.Batch_b [ Rel.Row_delta.Remove (Rel.Workload.pick r b_rows) ]
      | 2 ->
          incr fresh;
          Store.Set_b
            (Rel.Table.insert (Store.view_b store)
               (view_row !fresh ("s" ^ string_of_int !fresh)))
      | _ ->
          incr fresh;
          Store.Batch_b
            [
              Rel.Row_delta.Add (view_row !fresh ("b" ^ string_of_int !fresh));
              Rel.Row_delta.Add
                (view_row (!fresh + 100_000) ("c" ^ string_of_int !fresh));
            ]
    in
    (match Store.commit ~session:(if v mod 2 = 0 then "s1" else "s2") store op with
    | Ok v' -> check Alcotest.int "dense commit" v v'
    | Error e -> Alcotest.failf "workload commit %d failed: %s" v (Error.message e));
    history.(v) <- (Store.view_a store, Store.view_b store)
  done;
  history

let check_reopened ~msg (history : (Rel.Table.t * Rel.Table.t) array)
    (store : Wire.rstore) : unit =
  let v = Store.version store in
  check Alcotest.int (msg ^ ": version = head") (Store.head_version store) v;
  if v < 0 || v >= Array.length history then
    Alcotest.failf "%s: recovered version %d outside committed range" msg v;
  let va, vb = history.(v) in
  check Alcotest.bool (msg ^ ": A view committed") true
    (Rel.Table.equal va (Store.view_a store));
  check Alcotest.bool (msg ^ ": B view committed") true
    (Rel.Table.equal vb (Store.view_b store))

(* Record boundaries of a log byte string: the offsets where each
   record starts, plus the end offset. *)
let record_offsets (log : string) : int list =
  let rec go off acc =
    if off + 9 > String.length log then List.rev (off :: acc)
    else
      let len = Int32.to_int (String.get_int32_le log (off + 1)) in
      go (off + 9 + len) (off :: acc)
  in
  go 8 []

(* ------------------------------------------------------------------ *)
(* Format units                                                        *)
(* ------------------------------------------------------------------ *)

let format_tests =
  [
    test "crc32 matches the IEEE check vector" `Quick (fun () ->
        check Alcotest.int32 "123456789" 0xCBF43926l
          (Durable_log.crc32 "123456789");
        check Alcotest.int32 "empty" 0l (Durable_log.crc32 ""));
    test "a fresh log is header-only and loads empty" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let w = Durable_log.create ~dir ~fsync:Durable_log.Fsync_never () in
            Durable_log.close w;
            let bytes = read_file (Durable_log.log_file dir) in
            check Alcotest.int "8-byte header" 8 (String.length bytes);
            check Alcotest.string "magic" "ESMLOG" (String.sub bytes 0 6);
            check Alcotest.int "format version byte"
              Durable_log.format_version
              (Char.code bytes.[6]);
            match Durable_log.load ~dir with
            | Ok r ->
                check Alcotest.int "no entries" 0 (List.length r.Durable_log.entries);
                check Alcotest.bool "no snapshot" true (r.Durable_log.snapshot = None)
            | Error e -> Alcotest.failf "load failed: %s" (Error.message e)));
    test "a missing log directory is a typed Corrupt" `Quick (fun () ->
        match Durable_log.load ~dir:"/nonexistent/esm-durable" with
        | Ok _ -> Alcotest.fail "expected Corrupt"
        | Error e -> check Alcotest.bool "kind" true (e.Error.kind = Error.Corrupt));
    test "a bumped format version byte is refused as Corrupt" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let store = make_pstore ~dir () in
            let _ = run_workload ~commits:3 store in
            Store.close store;
            let log = read_file (Durable_log.log_file dir) in
            let bumped = Bytes.of_string log in
            Bytes.set bumped 6 (Char.chr (Durable_log.format_version + 1));
            make_dir ~dir ~log:(Bytes.to_string bumped) ~snapshot:None;
            match reopen ~dir () with
            | Ok _ -> Alcotest.fail "expected Corrupt"
            | Error e ->
                check Alcotest.bool "kind" true (e.Error.kind = Error.Corrupt)));
    test "corrupt error kind has a wire name" `Quick (fun () ->
        check Alcotest.string "name" "corrupt" (Error.kind_name Error.Corrupt);
        match
          Wire.parse_response
            (Wire.render_response (Wire.Resp_error (Error.Corrupt, "boom")))
        with
        | Wire.Resp_error (Error.Corrupt, "boom") -> ()
        | r -> Alcotest.failf "roundtrip lost: %s" (Wire.render_response r));
  ]

(* ------------------------------------------------------------------ *)
(* Basic persistence roundtrip                                         *)
(* ------------------------------------------------------------------ *)

let roundtrip_tests =
  [
    test "reopen reproduces the live store exactly" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let store = make_pstore ~dir ~snapshot_every:4 () in
            let history = run_workload ~commits:10 store in
            Store.close store;
            match reopen ~snapshot_every:4 ~dir () with
            | Error e -> Alcotest.failf "reopen failed: %s" (Error.message e)
            | Ok r ->
                check Alcotest.int "head" 10 (Store.head_version r);
                check_reopened ~msg:"roundtrip" history r;
                check
                  Alcotest.(list string)
                  "sessions preserved" [ "s1"; "s2" ]
                  (List.sort_uniq String.compare
                     (List.map
                        (fun (e : _ Oplog.entry) -> e.Oplog.session)
                        (Store.entries_since r 0)));
                Store.close r));
    test "a reopened store keeps committing and reopens again" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            let store = make_pstore ~dir ~snapshot_every:4 () in
            let _ = run_workload ~commits:6 store in
            Store.close store;
            let r1 =
              match reopen ~snapshot_every:4 ~dir () with
              | Ok r -> r
              | Error e -> Alcotest.failf "reopen 1: %s" (Error.message e)
            in
            (match
               Store.commit ~session:"s3" r1
                 (Store.Batch_b [ Rel.Row_delta.Add (view_row 77_001 "new") ])
             with
            | Ok v -> check Alcotest.int "continues at 7" 7 v
            | Error e -> Alcotest.failf "commit after reopen: %s" (Error.message e));
            let va = Store.view_a r1 and vb = Store.view_b r1 in
            Store.close r1;
            match reopen ~snapshot_every:4 ~dir () with
            | Error e -> Alcotest.failf "reopen 2: %s" (Error.message e)
            | Ok r2 ->
                check Alcotest.int "head 7" 7 (Store.head_version r2);
                check Alcotest.bool "A view" true
                  (Rel.Table.equal va (Store.view_a r2));
                check Alcotest.bool "B view" true
                  (Rel.Table.equal vb (Store.view_b r2));
                Store.close r2));
    test "persist starts fresh: an existing log is truncated" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            let s1 = make_pstore ~dir () in
            let _ = run_workload ~commits:5 s1 in
            Store.close s1;
            let s2 = make_pstore ~dir () in
            check Alcotest.bool "persisted" true (Store.persisted s2);
            Store.close s2;
            match reopen ~dir () with
            | Ok r ->
                check Alcotest.int "empty again" 0 (Store.head_version r);
                Store.close r
            | Error e -> Alcotest.failf "reopen: %s" (Error.message e)));
    test "an in-memory store is not persisted" `Quick (fun () ->
        let store : Wire.rstore =
          Store.of_packed ~name:"mem" ~apply_da:Rel.Row_delta.apply_all
            ~apply_db:Rel.Row_delta.apply_all (packed ())
        in
        check Alcotest.bool "not persisted" false (Store.persisted store);
        Store.flush store;
        Store.close store);
  ]

(* ------------------------------------------------------------------ *)
(* Crash-point matrix                                                  *)
(* ------------------------------------------------------------------ *)

(* Truncate the committed log at every record boundary and a spread of
   mid-record offsets; each prefix must reopen to exactly the committed
   version it holds. *)
let crash_point_matrix ~fsync ~with_snapshot () =
  with_tmp_dir (fun dir ->
      let store = make_pstore ~dir ~fsync ~snapshot_every:8 () in
      let history = run_workload ~commits:64 store in
      Store.close store;
      let log = read_file (Durable_log.log_file dir) in
      let snapshot =
        let path = Durable_log.snapshot_file dir in
        if with_snapshot && Sys.file_exists path then Some (read_file path)
        else None
      in
      let offsets = record_offsets log in
      let boundaries = Array.of_list offsets in
      let n_records = Array.length boundaries - 1 in
      check Alcotest.int "one record per commit" 64 n_records;
      check Alcotest.int "offsets end at the file size" (String.length log)
        boundaries.(n_records);
      let checked = ref 0 in
      with_tmp_dir (fun scratch ->
          let try_at ~expect_head cut =
            make_dir ~dir:scratch ~log:(String.sub log 0 cut) ~snapshot;
            (match reopen ~snapshot_every:8 ~dir:scratch () with
            | Error e ->
                Alcotest.failf "cut at %d (%s): reopen failed: %s" cut
                  (Durable_log.fsync_name fsync) (Error.message e)
            | Ok r ->
                check Alcotest.int
                  (Printf.sprintf "cut at %d: head" cut)
                  expect_head (Store.head_version r);
                check_reopened
                  ~msg:(Printf.sprintf "cut at %d" cut)
                  history r;
                Store.close r);
            incr checked
          in
          for i = 0 to n_records do
            let b = boundaries.(i) in
            (* the clean boundary: exactly i complete records *)
            try_at ~expect_head:i b;
            if i < n_records then begin
              let next = boundaries.(i + 1) in
              (* torn header, torn payload start, torn mid-payload,
                 one byte short of complete *)
              try_at ~expect_head:i (b + 1);
              try_at ~expect_head:i (min next (b + 9));
              try_at ~expect_head:i (b + ((next - b) / 2));
              try_at ~expect_head:i (next - 1)
            end
          done);
      check Alcotest.bool "matrix visited every boundary" true (!checked > 4 * 64))

let matrix_tests =
  List.concat_map
    (fun fsync ->
      [
        test
          (Printf.sprintf
             "crash-point matrix (64 commits, fsync=%s, with snapshot)"
             (Durable_log.fsync_name fsync))
          `Slow
          (crash_point_matrix ~fsync ~with_snapshot:true);
      ])
    [ Durable_log.Fsync_always; Durable_log.Fsync_every 8; Durable_log.Fsync_never ]
  @ [
      test "crash-point matrix without a snapshot file (full replay)" `Slow
        (crash_point_matrix ~fsync:Durable_log.Fsync_never
           ~with_snapshot:false);
    ]

(* ------------------------------------------------------------------ *)
(* Crash artifacts: duplicated tail, stale snapshot                    *)
(* ------------------------------------------------------------------ *)

let artifact_tests =
  [
    test "a duplicated tail after a re-append deduplicates" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let store = make_pstore ~dir ~snapshot_every:4 () in
            let history = run_workload ~commits:9 store in
            Store.close store;
            let log = read_file (Durable_log.log_file dir) in
            let offsets = Array.of_list (record_offsets log) in
            let n = Array.length offsets - 1 in
            (* re-append the last two records verbatim *)
            let tail =
              String.sub log offsets.(n - 2) (offsets.(n) - offsets.(n - 2))
            in
            make_dir ~dir ~log:(log ^ tail)
              ~snapshot:
                (let p = Durable_log.snapshot_file dir in
                 if Sys.file_exists p then Some (read_file p) else None);
            (match Durable_log.load ~dir with
            | Ok r ->
                check Alcotest.int "two duplicates dropped" 2 r.Durable_log.duplicates
            | Error e -> Alcotest.failf "load: %s" (Error.message e));
            match reopen ~snapshot_every:4 ~dir () with
            | Error e -> Alcotest.failf "reopen: %s" (Error.message e)
            | Ok r ->
                check Alcotest.int "head still 9" 9 (Store.head_version r);
                check_reopened ~msg:"dup tail" history r;
                Store.close r));
    test "a snapshot ahead of a truncated log is ignored" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let store = make_pstore ~dir ~snapshot_every:4 () in
            let history = run_workload ~commits:10 store in
            Store.close store;
            let log = read_file (Durable_log.log_file dir) in
            let offsets = Array.of_list (record_offsets log) in
            (* keep only 2 records: below the version-8 snapshot *)
            make_dir ~dir
              ~log:(String.sub log 0 offsets.(2))
              ~snapshot:(Some (read_file (Durable_log.snapshot_file dir)));
            match reopen ~snapshot_every:4 ~dir () with
            | Error e -> Alcotest.failf "reopen: %s" (Error.message e)
            | Ok r ->
                check Alcotest.int "head 2" 2 (Store.head_version r);
                check_reopened ~msg:"stale snapshot" history r;
                Store.close r));
    test "a garbled snapshot file falls back to full replay" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let store = make_pstore ~dir ~snapshot_every:4 () in
            let history = run_workload ~commits:10 store in
            Store.close store;
            let snap = read_file (Durable_log.snapshot_file dir) in
            let garbled = Bytes.of_string snap in
            Bytes.set garbled (String.length snap / 2)
              (Char.chr
                 ((Char.code snap.[String.length snap / 2] + 1) land 0xFF));
            write_file (Durable_log.snapshot_file dir) (Bytes.to_string garbled);
            match reopen ~snapshot_every:4 ~dir () with
            | Error e -> Alcotest.failf "reopen: %s" (Error.message e)
            | Ok r ->
                check Alcotest.int "head 10" 10 (Store.head_version r);
                check_reopened ~msg:"garbled snapshot" history r;
                Store.close r));
  ]

(* ------------------------------------------------------------------ *)
(* Corruption fuzz                                                     *)
(* ------------------------------------------------------------------ *)

(* One prepared valid log (bytes + committed history), shared across
   fuzz cases. *)
let fuzz_fixture =
  lazy
    (with_tmp_dir (fun dir ->
         let store = make_pstore ~dir ~snapshot_every:8 () in
         let history = run_workload ~commits:24 store in
         Store.close store;
         let log = read_file (Durable_log.log_file dir) in
         let snap = read_file (Durable_log.snapshot_file dir) in
         (log, snap, history)))

let fuzz_prop (case_seed : int) : bool =
  let log, snap, history = Lazy.force fuzz_fixture in
  let r = Rel.Workload.rng ~seed:(chaos_seed + (7919 * case_seed)) in
  let mutate (s : string) : string =
    match Rel.Workload.int r 3 with
    | 0 ->
        (* flip one byte anywhere (header included) *)
        let i = Rel.Workload.int r (String.length s) in
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 + Rel.Workload.int r 255)));
        Bytes.to_string b
    | 1 ->
        (* splice garbage at a random offset *)
        let i = Rel.Workload.int r (String.length s + 1) in
        let n = 1 + Rel.Workload.int r 16 in
        let garbage = String.init n (fun _ -> Char.chr (Rel.Workload.int r 256)) in
        String.sub s 0 i ^ garbage ^ String.sub s i (String.length s - i)
    | _ ->
        (* overwrite a short run in place *)
        let n = 1 + Rel.Workload.int r 8 in
        let i = Rel.Workload.int r (max 1 (String.length s - n)) in
        let b = Bytes.of_string s in
        for j = i to min (String.length s - 1) (i + n - 1) do
          Bytes.set b j (Char.chr (Rel.Workload.int r 256))
        done;
        Bytes.to_string b
  in
  with_tmp_dir (fun dir ->
      make_dir ~dir ~log:(mutate log) ~snapshot:(Some snap);
      match reopen ~snapshot_every:8 ~dir () with
      | Ok r ->
          (* recovered: must be exactly some committed prefix *)
          let v = Store.version r in
          let ok =
            v = Store.head_version r
            && v >= 0
            && v < Array.length history
            &&
            let va, vb = history.(v) in
            Rel.Table.equal va (Store.view_a r)
            && Rel.Table.equal vb (Store.view_b r)
          in
          Store.close r;
          ok
      | Error e -> e.Error.kind = Error.Corrupt
      | exception exn ->
          Alcotest.failf "unclassified exception: %s" (Printexc.to_string exn))

let fuzz_tests =
  [
    QCheck.Test.make ~count:150
      ~name:"corruption fuzz: reopen recovers a committed prefix or is Corrupt"
      QCheck.small_nat fuzz_prop;
  ]

(* ------------------------------------------------------------------ *)
(* Golden format fixtures                                              *)
(* ------------------------------------------------------------------ *)

(* The canonical fixture store: fixed seed/size, snapshot at 4, five
   commits with every persistable op shape and a nasty string. *)
let fixture_commits (store : Wire.rstore) : unit =
  let commit session op =
    match Store.commit ~session store op with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "fixture commit failed: %s" (Error.message e)
  in
  commit "alice" (Store.Batch_b [ Rel.Row_delta.Add (view_row 9001 "nina") ]);
  commit "bob"
    (Store.Batch_a
       [
         Rel.Row_delta.Add (base_row 9002 {|o"mar; x|} "Engineering");
         Rel.Row_delta.Add (base_row 9003 "pia" "Sales");
       ]);
  commit "alice" (Store.Batch_b [ Rel.Row_delta.Remove (view_row 9001 "nina") ]);
  commit "alice" (Store.Set_b (Rel.Table.insert (Store.view_b store) (view_row 9004 "quinn")));
  commit "bob" (Store.Batch_b [ Rel.Row_delta.Add (view_row 9005 "rosa") ])

let build_fixture (dir : string) : unit =
  let store = make_pstore ~seed:11 ~size:8 ~snapshot_every:4 ~dir () in
  fixture_commits store;
  Store.close store

let fixture_dir = Filename.concat "fixtures" "durable"

let golden_tests =
  [
    test "golden log parses to the expected entries" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            make_dir ~dir
              ~log:(read_file (Filename.concat fixture_dir "v1.log"))
              ~snapshot:
                (Some (read_file (Filename.concat fixture_dir "v1.snapshot")));
            (match Durable_log.load ~dir with
            | Error e -> Alcotest.failf "load: %s" (Error.message e)
            | Ok r ->
                check Alcotest.int "five entries" 5
                  (List.length r.Durable_log.entries);
                check Alcotest.int "no torn bytes" 0 r.Durable_log.torn_bytes;
                check
                  Alcotest.(list (pair int string))
                  "versions and sessions"
                  [ (1, "alice"); (2, "bob"); (3, "alice"); (4, "alice"); (5, "bob") ]
                  (List.map
                     (fun (e : Durable_log.raw_entry) ->
                       (e.Durable_log.version, e.Durable_log.session))
                     r.Durable_log.entries);
                (match r.Durable_log.snapshot with
                | Some (4, _) -> ()
                | Some (v, _) -> Alcotest.failf "snapshot at %d, expected 4" v
                | None -> Alcotest.fail "snapshot missing");
                check Alcotest.bool "ops decode" true
                  (List.for_all
                     (fun (e : Durable_log.raw_entry) ->
                       match codec.Store.decode_op e.Durable_log.payload with
                       | _ -> true
                       | exception _ -> false)
                     r.Durable_log.entries));
            match reopen ~snapshot_every:4 ~dir () with
            | Error e -> Alcotest.failf "reopen: %s" (Error.message e)
            | Ok r ->
                check Alcotest.int "head 5" 5 (Store.head_version r);
                check Alcotest.bool "nasty string survived" true
                  (List.exists
                     (fun row ->
                       List.exists
                         (fun v -> v = Rel.Value.Str {|o"mar; x|})
                         (Rel.Row.to_list row))
                     (Rel.Table.rows (Store.view_a r)));
                Store.close r));
    test "today's writer reproduces the golden files byte-for-byte" `Quick
      (fun () ->
        (* regeneration hook: DURABLE_FIXTURE_OUT=<dir> writes fresh
           fixtures instead of comparing — used when the format or the
           canonical workload changes deliberately *)
        (match Sys.getenv_opt "DURABLE_FIXTURE_OUT" with
        | Some out ->
            with_tmp_dir (fun dir ->
                build_fixture dir;
                let cp src dst =
                  write_file (Filename.concat out dst)
                    (read_file (Filename.concat dir src))
                in
                cp "log.bin" "v1.log";
                cp "snapshot.bin" "v1.snapshot";
                (* derived crash artifacts: a torn tail (last 5 bytes
                   lost) and a flipped byte inside entry 2's payload *)
                let log = read_file (Filename.concat dir "log.bin") in
                write_file (Filename.concat out "torn.log")
                  (String.sub log 0 (String.length log - 5));
                let offsets = Array.of_list (record_offsets log) in
                let b = Bytes.of_string log in
                let mid = offsets.(1) + 9 + ((offsets.(2) - offsets.(1) - 9) / 2) in
                Bytes.set b mid (Char.chr (Char.code log.[mid] lxor 0x20));
                write_file (Filename.concat out "corrupt.log") (Bytes.to_string b))
        | None -> ());
        with_tmp_dir (fun dir ->
            build_fixture dir;
            check Alcotest.string "log bytes"
              (read_file (Filename.concat fixture_dir "v1.log"))
              (read_file (Filename.concat dir "log.bin"));
            check Alcotest.string "snapshot bytes"
              (read_file (Filename.concat fixture_dir "v1.snapshot"))
              (read_file (Filename.concat dir "snapshot.bin"))));
    test "golden torn log truncates to four entries" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            make_dir ~dir
              ~log:(read_file (Filename.concat fixture_dir "torn.log"))
              ~snapshot:None;
            match Durable_log.load ~dir with
            | Error e -> Alcotest.failf "load: %s" (Error.message e)
            | Ok r ->
                check Alcotest.int "four entries" 4
                  (List.length r.Durable_log.entries);
                check Alcotest.bool "torn bytes reported" true
                  (r.Durable_log.torn_bytes > 0)));
    test "golden corrupt log is a typed Corrupt" `Quick (fun () ->
        with_tmp_dir (fun dir ->
            make_dir ~dir
              ~log:(read_file (Filename.concat fixture_dir "corrupt.log"))
              ~snapshot:None;
            match Durable_log.load ~dir with
            | Ok _ -> Alcotest.fail "expected Corrupt"
            | Error e ->
                check Alcotest.bool "kind" true (e.Error.kind = Error.Corrupt)));
  ]

(* ------------------------------------------------------------------ *)
(* Oplog.entries_since against a reference implementation             *)
(* ------------------------------------------------------------------ *)

(* The reference: a plain list filter over everything appended, oldest
   first — no early exit, no assumptions. *)
let entries_since_prop (seed : int) : bool =
  let r = Rel.Workload.rng ~seed in
  let n = Rel.Workload.int r 30 in
  let log = Oplog.create ~snapshot_every:3 ~init:"s0" () in
  let appended = ref [] in
  for i = 1 to n do
    let op = Printf.sprintf "op%d" i in
    let session = Rel.Workload.pick r [ "x"; "y"; "z" ] in
    let v = Oplog.append log ~session op in
    appended := (v, op) :: !appended;
    if Oplog.snapshot_due log then
      Oplog.record_snapshot log v (Printf.sprintf "s%d" v)
  done;
  let reference v =
    List.filter (fun (v', _) -> v' > v) (List.rev !appended)
  in
  (* sweep far below 0 (and below the latest snapshot version) to far
     above head *)
  List.for_all
    (fun v ->
      let got =
        List.map
          (fun (e : _ Oplog.entry) -> (e.Oplog.version, e.Oplog.op))
          (Oplog.entries_since log v)
      in
      got = reference v)
    (List.init (n + 11) (fun i -> i - 5))

let entries_since_qcheck =
  [
    QCheck.Test.make ~count:200
      ~name:"Oplog.entries_since equals the list-filter reference everywhere"
      QCheck.small_nat entries_since_prop;
  ]

let entries_since_tests =
  [
    test "entries_since is total out of range" `Quick (fun () ->
        let log = Oplog.create ~snapshot_every:2 ~init:"s0" () in
        for i = 1 to 6 do
          let v = Oplog.append log ~session:"x" (Printf.sprintf "op%d" i) in
          if Oplog.snapshot_due log then
            Oplog.record_snapshot log v (Printf.sprintf "s%d" v)
        done;
        let snap_v, _ = Oplog.latest_snapshot log in
        check Alcotest.int "snapshot recorded at 6" 6 snap_v;
        check Alcotest.int "below latest snapshot: full suffix" 4
          (List.length (Oplog.entries_since log 2));
        check Alcotest.int "far below zero: everything" 6
          (List.length (Oplog.entries_since log (-100)));
        check Alcotest.int "at head: nothing" 0
          (List.length (Oplog.entries_since log 6));
        check Alcotest.int "far above head: nothing" 0
          (List.length (Oplog.entries_since log 1000)));
  ]

(* ------------------------------------------------------------------ *)
(* Chaos: the persistence path under fault injection                   *)
(* ------------------------------------------------------------------ *)

let next_case = ref 0

let durable_chaos_prop (seed : int) : bool =
  incr next_case;
  let c = Chaos.make ~rate:0.2 ~seed:(chaos_seed + (1000 * !next_case)) () in
  with_tmp_dir (fun dir ->
      let store = make_pstore ~dir ~snapshot_every:3 () in
      let fresh = ref (50_000 + (100 * seed)) in
      Chaos.with_chaos c (fun () ->
          for _ = 1 to 15 do
            incr fresh;
            (* failed commits (injected faults, durable-write faults
               included) must abort whole — allowed here *)
            ignore
              (Store.commit ~session:"s1" store
                 (Store.Batch_b
                    [ Rel.Row_delta.Add (view_row !fresh ("w" ^ string_of_int !fresh)) ]))
          done);
      let va = Store.view_a store and vb = Store.view_b store in
      let v = Store.version store in
      Store.close store;
      match reopen ~snapshot_every:3 ~dir () with
      | Error e -> Alcotest.failf "reopen after chaos: %s" (Error.message e)
      | Ok rstore ->
          let ok =
            Store.version rstore = v
            && Rel.Table.equal va (Store.view_a rstore)
            && Rel.Table.equal vb (Store.view_b rstore)
          in
          Store.close rstore;
          ok)

let chaos_tests =
  [
    QCheck.Test.make ~count:40
      ~name:"chaos at sync.durable.write keeps disk and memory agreeing"
      QCheck.small_nat durable_chaos_prop;
  ]

let suite =
  format_tests @ roundtrip_tests @ matrix_tests @ artifact_tests
  @ golden_tests @ entries_since_tests
  @ Helpers.q (entries_since_qcheck @ fuzz_tests @ chaos_tests)
