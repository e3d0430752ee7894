(* esmql — the ESMQL front-end CLI (see docs/QUERY.md).

   Compile .esmql scripts through the law-level gate and execute them
   against one of the three backends:

     esmql [--backend mem|store|remote] [--mode strict|fallback]
           [--check] [--json] [--seed N] [--size N] [--dir DIR]
           [--base NAME=FILE]... FILE...

   The default environment is one base table, `employees`
   (Esm_relational.Workload, keyed by id), seeded deterministically.
   Repeated --base NAME=FILE flags register extra base tables: FILE is
   line-oriented (schema <col>:<ty>..., optional key <col>..., then
   row lines in the wire row grammar), so one script can entangle
   views over several independently-defined bases — see
   examples/two_bases.esmql.

   Exit codes: 0 every file compiled (and, without --check, executed)
   cleanly; 1 a parse/compile rejection or a failed execution step;
   2 usage error.  CHAOS_SEED/CHAOS_RATE install deterministic fault
   injection around execution, as in esm_syncd. *)

open Esm_core
open Esm_analysis
module Rel = Esm_relational
module Ql = Esm_ql

let with_env_chaos (f : unit -> 'a) : 'a =
  match Chaos.of_env Sys.getenv_opt with
  | Error msg ->
      prerr_endline ("esmql: " ^ msg);
      exit 2
  | Ok None -> f ()
  | Ok (Some c) ->
      (* injection is scoped to the net.* sites: faults hit the wire
         (remote backend), never the bx core, so the same script under
         the same seed must yield the same answers on every backend *)
      Chaos.with_chaos c (fun () -> Chaos.at_sites [ "net." ] f)

let bases ~seed ~size : Ql.Check.base list =
  [
    {
      Ql.Check.bname = "employees";
      bschema = Rel.Workload.employees_schema;
      bkey = [ "id" ];
      binit = Rel.Workload.employees ~seed ~size;
    };
  ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --base NAME=FILE: register an extra base table.  FILE is
   line-oriented ('#' and blank lines ignored):

     schema <col>:<int|str|bool>, <col>:<ty>, ...   (first, exactly once)
     key <col>[, <col>...]                          (optional; default:
                                                     the first column)
     row <value>, <value>, ...                      (Wire row grammar)

   Row values reuse the wire grammar (Esm_sync.Wire.parse_row), so the
   same literals work in base files, wire scripts and ESMQL deltas. *)
let parse_base_file ~(name : string) (path : string) : Ql.Check.base =
  let fail lineno fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "esmql: --base %s: %s:%d: %s\n" name path lineno m;
        exit 2)
      fmt
  in
  let ty_of_string lineno = function
    | "int" -> Rel.Value.Tint
    | "str" -> Rel.Value.Tstr
    | "bool" -> Rel.Value.Tbool
    | t -> fail lineno "unknown column type %S (int, str or bool)" t
  in
  let schema = ref None and key = ref None and rows = ref [] in
  let lines = String.split_on_char '\n' (read_file path) in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match String.index_opt line ' ' with
        | None -> fail lineno "expected 'schema', 'key' or 'row' directive"
        | Some sp -> (
            let kw = String.sub line 0 sp in
            let body =
              String.trim
                (String.sub line (sp + 1) (String.length line - sp - 1))
            in
            match kw with
            | "schema" ->
                if !schema <> None then fail lineno "duplicate schema line";
                let cols =
                  List.map
                    (fun col ->
                      match String.split_on_char ':' (String.trim col) with
                      | [ n; t ] ->
                          (String.trim n, ty_of_string lineno (String.trim t))
                      | _ -> fail lineno "expected <col>:<ty> in %S" col)
                    (String.split_on_char ',' body)
                in
                schema := Some (Rel.Schema.make cols)
            | "key" ->
                if !key <> None then fail lineno "duplicate key line";
                key :=
                  Some
                    (List.map String.trim (String.split_on_char ',' body))
            | "row" -> (
                if !schema = None then fail lineno "row before schema";
                match Esm_sync.Wire.parse_row body with
                | r -> rows := r :: !rows
                | exception Error.Bx_error e ->
                    fail lineno "%s" (Error.message e))
            | kw -> fail lineno "unknown directive %S" kw))
    lines;
  match !schema with
  | None -> fail 0 "missing schema line"
  | Some schema ->
      let key =
        match !key with
        | Some k -> k
        | None -> [ List.hd (Rel.Schema.column_names schema) ]
      in
      let binit =
        try Rel.Table.of_rows schema (List.rev !rows)
        with Error.Bx_error e -> fail 0 "%s" (Error.message e)
      in
      { Ql.Check.bname = name; bschema = schema; bkey = key; binit }

let parse_base_spec (spec : string) : string * string =
  match String.index_opt spec '=' with
  | Some i when i > 0 ->
      ( String.sub spec 0 i,
        String.sub spec (i + 1) (String.length spec - i - 1) )
  | _ ->
      prerr_endline "esmql: --base expects NAME=FILE";
      exit 2

let view_json (cv : Ql.Check.cview) =
  Printf.sprintf
    {|{"view":"%s","query":"%s","inferred":"%s","requested":"%s","mode":"%s","downgraded":%b,"diagnostics":%s}|}
    (Lint.json_escape cv.Ql.Check.vname)
    (Lint.json_escape (Rel.Query.to_string cv.Ql.Check.query))
    (Law_infer.to_string cv.Ql.Check.inferred)
    (Law_infer.to_string cv.Ql.Check.requested)
    (Esm_ql.Ast.mode_name cv.Ql.Check.mode)
    cv.Ql.Check.downgraded
    (Lint.diagnostics_to_json cv.Ql.Check.lint)

let report_check ~json path (c : Ql.Check.compiled) =
  if json then
    Printf.printf {|{"file":"%s","ok":true,"views":[%s]}|}
      (Lint.json_escape path)
      (String.concat "," (List.map view_json c.Ql.Check.views))
  else begin
    Printf.printf "%s: ok (%d view%s)\n" path
      (List.length c.Ql.Check.views)
      (if List.length c.Ql.Check.views = 1 then "" else "s");
    List.iter
      (fun (cv : Ql.Check.cview) ->
        Printf.printf "  view %s: inferred %s, requested %s%s\n"
          cv.Ql.Check.vname
          (Law_infer.to_string cv.Ql.Check.inferred)
          (Law_infer.to_string cv.Ql.Check.requested)
          (if cv.Ql.Check.downgraded then " — downgraded (runtime-validated)"
           else ""))
      c.Ql.Check.views
  end

let report_error ~json path (e : Error.t) =
  if json then
    Printf.printf {|{"file":"%s","ok":false,"error":"%s"}|}
      (Lint.json_escape path)
      (Lint.json_escape (Error.message e))
  else Printf.printf "%s: REJECTED: %s\n" path (Error.message e)

let run_file ~mode ~backend ~check ~json ~dir ~bases path : bool =
  match Ql.Parser.parse (read_file path) with
  | Error e ->
      report_error ~json path e;
      if json then print_newline ();
      false
  | Ok script -> (
      match Ql.Check.compile ~mode ~bases script with
      | Error e ->
          report_error ~json path e;
          if json then print_newline ();
          false
      | Ok compiled ->
          if check then begin
            report_check ~json path compiled;
            if json then print_newline ();
            true
          end
          else
            let trace =
              with_env_chaos (fun () -> Ql.Exec.run ?dir ~kind:backend compiled)
            in
            if json then print_endline (Ql.Exec.to_json ~backend trace)
            else Format.printf "== %s (%s)@.%a@." path
                (Ql.Backend.kind_name backend)
                Ql.Exec.pp trace;
            trace.Ql.Exec.ok)

let () =
  let backend = ref "mem" in
  let mode = ref "strict" in
  let check = ref false in
  let json = ref false in
  let seed = ref 42 in
  let size = ref 60 in
  let dir = ref "" in
  let base_specs = ref [] in
  let files = ref [] in
  let specs =
    [
      ( "--backend",
        Arg.Set_string backend,
        "KIND execution backend: mem, store or remote (default mem)" );
      ( "--mode",
        Arg.Set_string mode,
        "MODE initial gate mode: strict or fallback (default strict)" );
      ("--check", Arg.Set check, " compile and lint only, execute nothing");
      ("--json", Arg.Set json, " machine-readable output, one object per file");
      ("--seed", Arg.Set_int seed, "N employees workload seed (default 42)");
      ("--size", Arg.Set_int size, "N employees table size (default 60)");
      ( "--dir",
        Arg.Set_string dir,
        "DIR durable-log directory (store backend only)" );
      ( "--base",
        Arg.String (fun s -> base_specs := s :: !base_specs),
        "NAME=FILE register an extra base table (repeatable; FILE holds \
         schema/key/row lines, see docs/QUERY.md)" );
    ]
  in
  let usage =
    "esmql [--backend mem|store|remote] [--check] [--json] [--base \
     NAME=FILE]... FILE.esmql..."
  in
  Arg.parse specs (fun f -> files := f :: !files) usage;
  let files = List.rev !files in
  if files = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let backend =
    match Ql.Backend.kind_of_string !backend with
    | Some k -> k
    | None ->
        prerr_endline "esmql: --backend must be mem, store or remote";
        exit 2
  in
  let mode =
    match Ql.Ast.mode_of_string !mode with
    | Some m -> m
    | None ->
        prerr_endline "esmql: --mode must be strict or fallback";
        exit 2
  in
  let dir = if !dir = "" then None else Some !dir in
  let extra =
    List.rev_map
      (fun spec ->
        let name, file = parse_base_spec spec in
        parse_base_file ~name file)
      !base_specs
  in
  let bases = bases ~seed:!seed ~size:!size @ extra in
  let rec dup = function
    | [] -> None
    | (b : Ql.Check.base) :: rest ->
        if List.exists (fun (b' : Ql.Check.base) -> b'.bname = b.bname) rest
        then Some b.Ql.Check.bname
        else dup rest
  in
  (match dup bases with
  | Some n ->
      Printf.eprintf "esmql: duplicate base table %S\n" n;
      exit 2
  | None -> ());
  let ok =
    (* no short-circuit: every file is processed and reported *)
    List.fold_left
      (fun acc path ->
        run_file ~mode ~backend ~check:!check ~json:!json ~dir ~bases path
        && acc)
      true files
  in
  exit (if ok then 0 else 1)
