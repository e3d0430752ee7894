(** A small pipeline query language over the relational substrate, with a
    parser and pretty-printer.  Gives the examples and the CLI a textual
    surface, and exercises the algebra end-to-end:

    {v
    employees | where dept = "Engineering" and salary < 70000
              | select id, name
              | rename name as who
    employees join depts
    (a union b) | where x <= 3
    v}

    Grammar (pipelines bind tighter than the infix set operators, which
    associate to the left):

    {v
    query := term (("union" | "diff" | "join" | "product") term)*
    term  := atom ("|" stage)*
    atom  := IDENT | "(" query ")"
    stage := "where" pred
           | "select" IDENT ("," IDENT)*
           | "rename" IDENT "as" IDENT ("," IDENT "as" IDENT)*
    pred  := conj ("or" conj)* ; conj := neg ("and" neg)*
    neg   := "not" neg | "(" pred ")" | expr ("=" | "<=" | "<") expr
    expr  := IDENT | INT | STRING | "true" | "false"
    v} *)

type t =
  | Base of string
  | Where of Pred.t * t
  | Project of string list * t
  | Rename of (string * string) list * t
  | Union of t * t
  | Diff of t * t
  | Join of t * t
  | Product of t * t

exception Parse_error of string

let parse_errorf fmt =
  Esm_core.Error.raisef Esm_core.Error.Parse
    ~wrap:(fun m -> Parse_error m)
    fmt

let () =
  Esm_core.Error.register_classifier (function
    | Parse_error m -> Some (Esm_core.Error.of_message Esm_core.Error.Parse m)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(** Evaluate against an environment of named base tables. *)
let rec eval (env : string -> Table.t) : t -> Table.t = function
  | Base name -> env name
  | Where (p, q) -> Algebra.select p (eval env q)
  | Project (cols, q) -> Algebra.project cols (eval env q)
  | Rename (mapping, q) -> Algebra.rename mapping (eval env q)
  | Union (q1, q2) -> Algebra.union (eval env q1) (eval env q2)
  | Diff (q1, q2) -> Algebra.diff (eval env q1) (eval env q2)
  | Join (q1, q2) -> Algebra.join (eval env q1) (eval env q2)
  | Product (q1, q2) -> Algebra.product (eval env q1) (eval env q2)

(** Base tables referenced by the query. *)
let rec bases : t -> string list = function
  | Base name -> [ name ]
  | Where (_, q) | Project (_, q) | Rename (_, q) -> bases q
  | Union (q1, q2) | Diff (q1, q2) | Join (q1, q2) | Product (q1, q2) ->
      bases q1 @ bases q2

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let rec pp fmt = function
  | Base name -> Format.fprintf fmt "%s" name
  | Where (p, q) -> Format.fprintf fmt "%a | where %a" pp_term q pp_pred p
  | Project (cols, q) ->
      Format.fprintf fmt "%a | select %s" pp_term q (String.concat ", " cols)
  | Rename (mapping, q) ->
      Format.fprintf fmt "%a | rename %s" pp_term q
        (String.concat ", "
           (List.map (fun (a, b) -> a ^ " as " ^ b) mapping))
  | Union (q1, q2) -> Format.fprintf fmt "(%a) union (%a)" pp q1 pp q2
  | Diff (q1, q2) -> Format.fprintf fmt "(%a) diff (%a)" pp q1 pp q2
  | Join (q1, q2) -> Format.fprintf fmt "(%a) join (%a)" pp q1 pp q2
  | Product (q1, q2) -> Format.fprintf fmt "(%a) product (%a)" pp q1 pp q2

(* A pipeline stage binds tighter than the set operators, so a set-op
   operand of a stage needs parentheses. *)
and pp_term fmt q =
  match q with
  | Union _ | Diff _ | Join _ | Product _ -> Format.fprintf fmt "(%a)" pp q
  | Base _ | Where _ | Project _ | Rename _ -> pp fmt q

and pp_pred fmt (p : Pred.t) =
  match p with
  | Pred.Const b -> Format.fprintf fmt "%b" b
  | Pred.Eq (e1, e2) -> Format.fprintf fmt "%a = %a" pp_expr e1 pp_expr e2
  | Pred.Lt (e1, e2) -> Format.fprintf fmt "%a < %a" pp_expr e1 pp_expr e2
  | Pred.Le (e1, e2) -> Format.fprintf fmt "%a <= %a" pp_expr e1 pp_expr e2
  | Pred.And (p1, p2) -> Format.fprintf fmt "(%a and %a)" pp_pred p1 pp_pred p2
  | Pred.Or (p1, p2) -> Format.fprintf fmt "(%a or %a)" pp_pred p1 pp_pred p2
  | Pred.Not p -> Format.fprintf fmt "not (%a)" pp_pred p

and pp_expr fmt = function
  | Pred.Col c -> Format.fprintf fmt "%s" c
  | Pred.Lit (Value.Int i) -> Format.fprintf fmt "%d" i
  | Pred.Lit (Value.Str s) -> Format.fprintf fmt "%S" s
  | Pred.Lit (Value.Bool b) -> Format.fprintf fmt "%b" b

let to_string q = Format.asprintf "%a" pp q

(* ------------------------------------------------------------------ *)
(* Parser (recursive descent over the shared positioned token stream)  *)
(* ------------------------------------------------------------------ *)

(* The lexer lives in Qlex, shared with the ESMQL statement language —
   one token grammar, two parsers.  Every failure names the position
   (line, column) and the offending token. *)

let parse_prefix (toks : Qlex.t list) ~(eof : Qlex.pos) : t * Qlex.t list =
  let tokens = ref toks in
  let peek () = match !tokens with [] -> None | t :: _ -> Some t.Qlex.tok in
  let advance () = match !tokens with [] -> () | _ :: rest -> tokens := rest in
  let here () = match !tokens with [] -> eof | t :: _ -> t.Qlex.pos in
  let got () =
    match !tokens with
    | [] -> "end of input"
    | t :: _ -> Qlex.describe t.Qlex.tok
  in
  let fail what =
    parse_errorf "%s: expected %s, got %s" (Qlex.pos_string (here ())) what
      (got ())
  in
  let expect t what =
    match peek () with Some t' when t' = t -> advance () | _ -> fail what
  in
  let ident what =
    match peek () with
    | Some (Qlex.Ident s) ->
        advance ();
        s
    | _ -> fail what
  in
  let parse_expr () : Pred.expr =
    match peek () with
    | Some (Qlex.Int i) ->
        advance ();
        Pred.Lit (Value.Int i)
    | Some (Qlex.Str s) ->
        advance ();
        Pred.Lit (Value.Str s)
    | Some (Qlex.Ident "true") ->
        advance ();
        Pred.Lit (Value.Bool true)
    | Some (Qlex.Ident "false") ->
        advance ();
        Pred.Lit (Value.Bool false)
    | Some (Qlex.Ident c) ->
        advance ();
        Pred.Col c
    | _ -> fail "an expression"
  in
  let rec parse_neg () : Pred.t =
    match peek () with
    | Some (Qlex.Ident "not") ->
        advance ();
        Pred.Not (parse_neg ())
    | Some Qlex.Lparen ->
        advance ();
        let p = parse_pred () in
        expect Qlex.Rparen "')'";
        p
    | _ -> (
        let e1 = parse_expr () in
        match peek () with
        | Some Qlex.Eq ->
            advance ();
            Pred.Eq (e1, parse_expr ())
        | Some Qlex.Le ->
            advance ();
            Pred.Le (e1, parse_expr ())
        | Some Qlex.Lt ->
            advance ();
            Pred.Lt (e1, parse_expr ())
        | _ -> fail "a comparison operator ('=', '<' or '<=')")
  and parse_conj () : Pred.t =
    let p = parse_neg () in
    match peek () with
    | Some (Qlex.Ident "and") ->
        advance ();
        Pred.And (p, parse_conj ())
    | _ -> p
  and parse_pred () : Pred.t =
    let p = parse_conj () in
    match peek () with
    | Some (Qlex.Ident "or") ->
        advance ();
        Pred.Or (p, parse_pred ())
    | _ -> p
  in
  let parse_columns () : string list =
    let rec go acc =
      let c = ident "a column name" in
      match peek () with
      | Some Qlex.Comma ->
          advance ();
          go (c :: acc)
      | _ -> List.rev (c :: acc)
    in
    go []
  in
  let parse_renames () : (string * string) list =
    let rec go acc =
      let a = ident "a column name" in
      (match peek () with
      | Some (Qlex.Ident "as") -> advance ()
      | _ -> fail "'as'");
      let b = ident "a column name" in
      match peek () with
      | Some Qlex.Comma ->
          advance ();
          go ((a, b) :: acc)
      | _ -> List.rev ((a, b) :: acc)
    in
    go []
  in
  let rec parse_query () : t =
    let q = parse_term () in
    parse_ops q
  and parse_ops q =
    match peek () with
    | Some (Qlex.Ident (("union" | "diff" | "join" | "product") as op)) ->
        advance ();
        let rhs = parse_term () in
        let q' =
          match op with
          | "union" -> Union (q, rhs)
          | "diff" -> Diff (q, rhs)
          | "join" -> Join (q, rhs)
          | _ -> Product (q, rhs)
        in
        parse_ops q'
    | _ -> q
  and parse_term () : t =
    let q = parse_atom () in
    parse_stages q
  and parse_stages q =
    match peek () with
    | Some Qlex.Pipe -> (
        advance ();
        match peek () with
        | Some (Qlex.Ident "where") ->
            advance ();
            parse_stages (Where (parse_pred (), q))
        | Some (Qlex.Ident "select") ->
            advance ();
            parse_stages (Project (parse_columns (), q))
        | Some (Qlex.Ident "rename") ->
            advance ();
            parse_stages (Rename (parse_renames (), q))
        | _ -> fail "a stage ('where', 'select' or 'rename')")
    | _ -> q
  and parse_atom () : t =
    match peek () with
    | Some Qlex.Lparen ->
        advance ();
        let q = parse_query () in
        expect Qlex.Rparen "')'";
        q
    | Some (Qlex.Ident name) ->
        advance ();
        Base name
    | _ -> fail "a table name or '('"
  in
  let q = parse_query () in
  (q, !tokens)

let tokenize (input : string) : Qlex.t list * Qlex.pos =
  match Qlex.tokenize input with
  | Ok (toks, eof) -> (toks, eof)
  | Error { Qlex.at; what } ->
      parse_errorf "%s: %s" (Qlex.pos_string at) what

let parse (input : string) : t =
  let toks, eof = tokenize input in
  let q, rest = parse_prefix toks ~eof in
  (match rest with
  | [] -> ()
  | { Qlex.tok; pos } :: _ ->
      parse_errorf "%s: trailing input after the query (%s)"
        (Qlex.pos_string pos) (Qlex.describe tok));
  q

(** Parse and evaluate in one step. *)
let run (env : string -> Table.t) (input : string) : Table.t =
  eval env (parse input)

(* ------------------------------------------------------------------ *)
(* Updatable views: compile a view definition into a relational lens   *)
(* ------------------------------------------------------------------ *)

exception Not_updatable of string

let not_updatable fmt =
  Esm_core.Error.raisef Esm_core.Error.Other
    ~wrap:(fun m -> Not_updatable m)
    fmt

let () =
  Esm_core.Error.register_classifier (function
    | Not_updatable m ->
        Some (Esm_core.Error.of_message Esm_core.Error.Other m)
    | _ -> None)

(** The pedigree {!to_lens} compilation produces: a [Plan] node over the
    composed combinator pedigrees, mirroring the compilation walk.
    Total — shapes {!to_lens} rejects get an [Opaque] body instead of
    raising, so audits can always render a provenance. *)
let pedigree ~(schema : Schema.t) ~(key : string list) (q : t) :
    Esm_core.Pedigree.t =
  let compose p1 p2 =
    match (p1, p2) with
    | Esm_core.Pedigree.Identity, p | p, Esm_core.Pedigree.Identity -> p
    | p1, p2 -> Esm_core.Pedigree.Compose (p1, p2)
  in
  let rec go : t -> Esm_core.Pedigree.t * Schema.t * string list = function
    | Base _ -> (Esm_core.Pedigree.Identity, schema, key)
    | Where (p, q) ->
        let pe, sch, key = go q in
        (compose pe (Rlens.select_pedigree ~key p), sch, key)
    | Project (cols, q) ->
        let pe, sch, key = go q in
        ( compose pe (Rlens.project_pedigree ~keep:cols ~key sch),
          Schema.project sch cols,
          key )
    | Rename (mapping, q) ->
        let pe, sch, key = go q in
        let rename_one n =
          match List.assoc_opt n mapping with Some n' -> n' | None -> n
        in
        ( compose pe (Rlens.rename_pedigree mapping),
          Schema.rename sch mapping,
          List.map rename_one key )
    | (Union _ | Diff _ | Join _ | Product _) as q ->
        (Esm_core.Pedigree.opaque (to_string q), schema, key)
  in
  let body, _, _ = go q in
  Esm_core.Pedigree.Plan { query = to_string q; body }

(** Compile a single-base pipeline into a delta-capable lens
    ({!Rlens.dlens}) — the one compilation walk, whose [lens] is
    {!to_lens}; view edits can be pushed back incrementally with
    {!Rlens.put_delta} / {!Dml.through_delta} instead of replacing the
    whole view.  This is the cold compiler; {!to_dlens} routes through
    the plan cache. *)
let to_dlens_uncached ~(schema : Schema.t) ~(key : string list) (q : t) :
    Rlens.dlens =
  let rec go : t -> Rlens.dlens * Schema.t * string list = function
    | Base _ -> (Rlens.did, schema, key)
    | Where (p, q) ->
        let l, sch, key = go q in
        List.iter
          (fun c ->
            if not (Schema.mem sch c) then
              not_updatable "where: unknown column %s" c)
          (Pred.columns_used p);
        (Rlens.dcompose l (Rlens.dselect ~key p), sch, key)
    | Project (cols, q) ->
        let l, sch, key = go q in
        List.iter
          (fun k ->
            if not (List.mem k cols) then
              not_updatable
                "select: key column %s must be kept for the view to be \
                 updatable"
                k)
          key;
        ( Rlens.dcompose l (Rlens.dproject ~keep:cols ~key sch),
          Schema.project sch cols,
          key )
    | Rename (mapping, q) ->
        let l, sch, key = go q in
        let rename_one n =
          match List.assoc_opt n mapping with Some n' -> n' | None -> n
        in
        ( Rlens.dcompose l (Rlens.drename mapping),
          Schema.rename sch mapping,
          List.map rename_one key )
    | Union _ -> not_updatable "union views are not updatable"
    | Diff _ -> not_updatable "diff views are not updatable"
    | Join _ ->
        not_updatable
          "join views over one base are not updatable (use Rlens.join on a \
           pair of tables)"
    | Product _ -> not_updatable "product views are not updatable"
  in
  let dl, _, _ = go q in
  {
    dl with
    Rlens.lens =
      Esm_lens.Lens.with_name ("view: " ^ to_string q) dl.Rlens.lens;
    Rlens.pedigree =
      Esm_core.Pedigree.Plan
        { query = to_string q; body = dl.Rlens.pedigree };
  }

(** Compile a single-base pipeline query into a relational lens from the
    base table to the view: the full-put lens of {!to_dlens_uncached},
    so both compilers share one walk, one set of checks and one
    {!Not_updatable} vocabulary. *)
let to_lens ~(schema : Schema.t) ~(key : string list) (q : t) :
    (Table.t, Table.t) Esm_lens.Lens.t =
  (to_dlens_uncached ~schema ~key q).Rlens.lens

(** Parse a view definition and compile it in one step. *)
let lens_of_string ~schema ~key (input : string) :
    (Table.t, Table.t) Esm_lens.Lens.t =
  to_lens ~schema ~key (parse input)

(* ------------------------------------------------------------------ *)
(* The plan cache                                                      *)
(* ------------------------------------------------------------------ *)

(* Compiled plans are pure closures over (query, schema, key) — the
   printer is deterministic and [parse ∘ pp] round-trips, so the
   printed forms are a faithful cache key.  The cached dlens carries
   its full [Pedigree.Plan] provenance, so a cache hit reports exactly
   the law level of its cold-compile twin — memoization can never
   launder law levels (regression-tested in test/test_incr.ml and the
   "relational/memoized-plan" catalog entry). *)
let plan_cache : (string * string * string, Rlens.dlens) Hashtbl.t =
  Hashtbl.create 64

(* One workload compiles a handful of plans; the bound only guards
   against adversarial churn.  Eviction is wholesale — simplicity over
   LRU bookkeeping at this size. *)
let plan_cache_bound = 512

let clear_plan_cache () = Hashtbl.reset plan_cache
let plan_memo = Esm_incr.Stats.memo "query.plan"

(** {!to_dlens_uncached} through the plan cache, keyed by the printed
    query, the schema, and the key columns.  Reports to the
    ["query.plan"] {!Esm_incr.Stats} counter.  Uncompilable shapes
    raise before anything is cached. *)
let to_dlens ~(schema : Schema.t) ~(key : string list) (q : t) : Rlens.dlens =
  let k = (to_string q, Schema.to_string schema, String.concat "," key) in
  match Hashtbl.find_opt plan_cache k with
  | Some dl ->
      Esm_incr.Stats.hit plan_memo;
      dl
  | None ->
      Esm_incr.Stats.miss plan_memo;
      let dl = to_dlens_uncached ~schema ~key q in
      if Hashtbl.length plan_cache >= plan_cache_bound then
        Hashtbl.reset plan_cache;
      Hashtbl.replace plan_cache k dl;
      dl

(** Parse a view definition and compile it to a delta-capable lens. *)
let dlens_of_string ~schema ~key (input : string) : Rlens.dlens =
  to_dlens ~schema ~key (parse input)
