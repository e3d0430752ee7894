(* esmbench: the end-to-end benchmark of esm_syncd.

     esmbench --workload grow|edit|read --seed N --seconds S --trace 0|1
              [--server PATH]

   Spawns the server binary (default _build/default/bin/esm_syncd.exe),
   measures for S seconds, checks the run and prints one JSON result as
   the last line of standard output: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1.  Exit 0 when the
   correctness gate passes, 1 when it fails, 2 on bad arguments or
   when stopped by SIGTERM/SIGINT.  All files live under .bench_run/ in
   the working directory and are removed at exit. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let server = ref "_build/default/bin/esm_syncd.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "grow|edit|read");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--server", Arg.Set_string server, "PATH the esm_syncd binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "esmbench --workload grow|edit|read --seed N --seconds S --trace 0|1";
  let usage msg =
    prerr_endline ("esmbench: " ^ msg);
    exit 2
  in
  let w = match List.assoc_opt !workload Gen.workloads with Some w -> w | None -> usage "unknown --workload" in
  if !trace <> 0 && !trace <> 1 then usage "--trace is 0 or 1";
  if not (Sys.file_exists !server) then usage ("no server binary at " ^ !server);
  let server = if Filename.is_relative !server then Filename.concat (Sys.getcwd ()) !server else !server in
  let root = ".bench_run" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let run_dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  Unix.mkdir run_dir 0o755;
  at_exit (fun () ->
      Proc.kill_all ();
      Proc.rm_rf run_dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ());
  (* Killed from outside: still stop the servers and remove the files. *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigterm; Sys.sigint ];
  let o =
    Bench.run ~exe:server ~run_dir ~workload:w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~toy:false
  in
  List.iter (fun v -> Printf.printf "gate: %s\n" v) o.Bench.violations;
  Printf.printf "detail: %s\n" (Bench.metrics_json o.detail);
  print_endline (Bench.result_json o);
  exit (if o.correct then 0 else 1)
