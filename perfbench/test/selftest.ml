(* The benchmark's self-test at toy size: every workload in both trace
   modes against the real server binary, checking that each metric
   BENCHMARK.json names prints exactly once with its unit and that the
   run passes its gate; then that the gate rejects fabricated
   accounting. *)

open Perfbench

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        Printf.printf "FAIL %s\n%!" msg
      end)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Index of [sub] in [s] at or after [from]. *)
let find s sub from =
  let n = String.length sub in
  let rec go i = if i + n > String.length s then None else if String.sub s i n = sub then Some i else go (i + 1) in
  go from

let count s sub =
  let rec go from acc = match find s sub from with Some i -> go (i + 1) (acc + 1) | None -> acc in
  go 0 0

(* The quoted value after [key] at or after [from], and where it ends. *)
let string_after s key from =
  match find s ("\"" ^ key ^ "\": \"") from with
  | None -> None
  | Some i ->
      let start = i + String.length key + 5 in
      let stop = String.index_from s start '"' in
      Some (String.sub s start (stop - start), stop)

(* The (name, unit) pairs of one metric list of BENCHMARK.json. *)
let metric_list json section =
  let start = Option.get (find json ("\"" ^ section ^ "\"") 0) in
  let stop = String.index_from json start ']' in
  let rec go from acc =
    match string_after json "name" from with
    | Some (name, i) when i < stop ->
        let unit, j = Option.get (string_after json "unit" i) in
        go j ((name, unit) :: acc)
    | _ -> List.rev acc
  in
  go start []

let () =
  let json = read_file "../../BENCHMARK.json" in
  let server = Filename.concat (Sys.getcwd ()) "../../bin/esm_syncd.exe" in
  let root = ".bench_run" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let run_dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  Unix.mkdir run_dir 0o755;
  at_exit (fun () ->
      Proc.kill_all ();
      Proc.rm_rf run_dir);
  List.iter
    (fun (wname, workload) ->
      check (count json (Printf.sprintf "\"name\": \"%s\"" wname) = 1) "workload %s is listed once" wname;
      List.iter
        (fun trace ->
          let dir = Filename.concat run_dir (Printf.sprintf "%s-%b" wname trace) in
          Unix.mkdir dir 0o755;
          let o = Bench.run ~exe:server ~run_dir:dir ~workload ~seed:7 ~seconds:0.3 ~trace ~toy:true in
          check o.Bench.correct "%s trace=%b passes its gate (%s)" wname trace (String.concat "; " o.violations);
          check (o.failed = 0 && o.attempted > 0) "%s trace=%b: attempted %d, failed %d" wname trace o.attempted
            o.failed;
          let out = Bench.result_json o in
          let expected = metric_list json (if trace then "per_layer" else "end_to_end") in
          check (List.length o.metrics = List.length expected) "%s trace=%b prints %d metrics, BENCHMARK.json names %d"
            wname trace (List.length o.metrics) (List.length expected);
          List.iter
            (fun (name, unit) ->
              check (count out (Printf.sprintf "%S: {" name) = 1) "%s trace=%b prints %s once" wname trace name;
              check
                (count out (Printf.sprintf "%S: {\"value\": " name) = 1
                && List.exists (fun m -> m.Bench.name = name && m.unit = unit) o.metrics)
                "%s trace=%b prints %s with unit %s" wname trace name unit)
            expected)
        [ false; true ])
    Gen.workloads;
  let honest =
    {
      Gate.head = 40;
      acked = 40;
      unresolved = 0;
      pulled = [ 40; 40 ];
      view_hash = "h";
      model_hash = Some "h";
      replay_head = 40;
      replay_hash = "h";
    }
  in
  check (Gate.violations honest = []) "the gate accepts honest accounting";
  check (Gate.violations { honest with Gate.acked = 39 } <> []) "the gate rejects head <> acked (lost ack)";
  check (Gate.violations { honest with Gate.head = 41; replay_head = 41 } <> []) "the gate rejects head <> acked (duplicate)";
  check (Gate.violations { honest with Gate.unresolved = 1 } <> []) "the gate rejects an unresolved submit";
  check (Gate.violations { honest with Gate.pulled = [ 40; 39 ] } <> []) "the gate rejects a session short of the head";
  check (Gate.violations { honest with Gate.replay_hash = "x" } <> []) "the gate rejects a replay view mismatch";
  check (Gate.violations { honest with Gate.model_hash = Some "x" } <> []) "the gate rejects a view the client's edits do not predict";
  (* A request the server rejects is neither acked nor applied, so the
     accounting above still adds up; it must fail the run all the same. *)
  let l, _ =
    Blackbox.setup ~exe:server ~st:(Blackbox.ep_stats ()) ~dir:(Filename.concat run_dir "reject")
      ~workload:Gen.Grow ~seed:7 ~toy:true ~durable:false
  in
  let bad = Esm_relational.(Row_delta.Add (Row.of_list [ Value.Int 1 ])) in
  check (Blackbox.exec l { Gen.sess = Gen.b_sess; req = Esm_sync.Wire.Batch [ bad ] } = None) "the server rejects a malformed batch";
  Blackbox.teardown l;
  check (l.failed = 1 && l.acked = 0) "a rejected batch counts as failed (failed %d, acked %d)" l.failed l.acked;
  check (Gate.failed_requests l.failed <> []) "the gate rejects a run with a failed request";
  check (Gate.fidelity ~head:40 ~view_hash:"h" ~traced_head:39 ~traced_hash:"h" <> []) "fidelity rejects a head mismatch";
  if !failures > 0 then begin
    Printf.printf "%d self-test check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "perfbench self-test: ok"
