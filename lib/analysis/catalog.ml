(** The example catalog: the scenarios that the [examples/] directory and
    [bin/esm_demo.ml] run interactively, re-exported as packed, pedigreed
    bx together with representative command/op pipelines — the corpus
    `bxlint` analyses and CI gates on.

    Every entry carries the value samples and equalities needed to run
    the sampling {!Esm_core.Certify} report, so each static verdict can
    be cross-checked: a statically inferred level strictly above the
    sampled observation means the {e analyzer} (or a pedigree claim) is
    wrong, and the audit reports it loudly. *)

open Esm_core
module Rel = Esm_relational

type ('a, 'b) subject =
  | Cmd of string * Law_infer.level * ('a, 'b) Command.t
      (** a command pipeline and the optimizer level it is compiled at *)
  | Prog of string * Law_infer.level * ('a, 'b) Program.op list
      (** a first-order op script and the level its rewriter assumes *)
  | Puts of string * Law_infer.level * ('a, 'b) Lint.put_op list
      (** a put-presentation session script (the language sync sessions
          speak) and the level its rewriter assumes *)

type query_plan = {
  plan_schema : Rel.Schema.t;
  plan_key : string list;
  plan_query : Rel.Query.t;
  plan_requested : Law_infer.level option;
}
(** The relational query plan an entry compiled from, when there is one:
    the subject {!Lint.lint_plan} audits with the abstract domains.
    [plan_requested] is the law level the plan's author asked the
    optimizer for (ESMQL [expect level=…] pragmas) — [None] for plans
    with no surface-level request. *)

type ('a, 'b) scenario = {
  label : string;
  description : string;
  packed : ('a, 'b) Concrete.packed;
  values_a : 'a list;
  values_b : 'b list;
  eq_a : 'a -> 'a -> bool;
  eq_b : 'b -> 'b -> bool;
  show_a : 'a -> string;
  show_b : 'b -> string;
  subjects : ('a, 'b) subject list;
  plan : query_plan option;
}

type entry = Entry : ('a, 'b) scenario -> entry

let entry_label (Entry s) = s.label

(* ------------------------------------------------------------------ *)
(* The instances (mirroring examples/ and bin/esm_demo.ml)             *)
(* ------------------------------------------------------------------ *)

let eq_int_pair (a1, b1) (a2, b2) = Int.equal a1 a2 && Int.equal b1 b2
let int_values = [ -7; -2; 0; 1; 2; 9; 10 ]

(** The parity algebraic bx of [examples/model_sync.ml] and the demo:
    consistency is "same parity", restored undoably by flipping the
    low bit. *)
let parity : (int, int) Esm_algbx.Algbx.t =
  Esm_algbx.Algbx.v ~name:"parity"
    ~consistent:(fun a b -> (a - b) mod 2 = 0)
    ~fwd:(fun a b -> if (a - b) mod 2 = 0 then b else b + 1 - (2 * (b land 1)))
    ~bwd:(fun a b -> if (a - b) mod 2 = 0 then a else a + 1 - (2 * (a land 1)))
    ()

(** Parity restored by incrementing until consistent: correct and
    hippocratic but {e not} undoable. *)
let parity_sticky : (int, int) Esm_algbx.Algbx.t =
  Esm_algbx.Algbx.v ~name:"parity-sticky"
    ~consistent:(fun a b -> (a - b) mod 2 = 0)
    ~fwd:(fun a b -> if (a - b) mod 2 = 0 then b else b + 1)
    ~bwd:(fun a b -> if (a - b) mod 2 = 0 then a else a + 1)
    ()

(** The account/owner lens of [examples/quickstart.ml]. *)
type account = { owner : string; balance : int }

let equal_account a1 a2 =
  String.equal a1.owner a2.owner && Int.equal a1.balance a2.balance

let show_account a = Printf.sprintf "{owner=%s; balance=%d}" a.owner a.balance

let owner_lens : (account, string) Esm_lens.Lens.t =
  Esm_lens.Lens.v ~name:"owner"
    ~get:(fun a -> a.owner)
    ~put:(fun a owner -> { a with owner })
    ()

let shift_symlens : (int, int) Esm_symlens.Symlens.t =
  Esm_symlens.Symlens.of_iso ~name:"shift"
    (fun x -> x + 100)
    (fun x -> x - 100)

let show_bindings kvs =
  "[" ^ String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs) ^ "]"

let eq_bindings k1 k2 =
  List.length k1 = List.length k2
  && List.for_all2
       (fun (a, x) (b, y) -> String.equal a b && String.equal x y)
       k1 k2

(** The bookmarks-document lens of [examples/tree_sync.ml]: hide the
    "meta" subtree, rename "bookmarks" to "links".  Both combinators are
    very well behaved on their domains (Foster et al.), so the vwb claim
    is justified — sources carry "bookmarks" and "meta" edges, views a
    "links" edge and neither of the others. *)
module Tree = Esm_lens.Tree

let bookmarks_lens : (Tree.t, Tree.t) Esm_lens.Lens.t =
  Esm_lens.Lens.(Tree.prune "meta" ~default:Tree.empty // Tree.rename "bookmarks" "links")

let bookmarks_doc entries version =
  Tree.node
    [
      ("bookmarks", Tree.node (List.map (fun (k, v) -> (k, Tree.value v)) entries));
      ("meta", Tree.node [ ("version", Tree.value version) ]);
    ]

let links_view entries =
  Tree.node
    [ ("links", Tree.node (List.map (fun (k, v) -> (k, Tree.value v)) entries)) ]

(** The class<->table correspondence of [examples/mde_sync.ml], packed
    through [Mbx.to_algbx] and Lemma 5.  The restorers are correct and
    hippocratic but {e not} undoable (a deleted partner object cannot be
    resurrected with its private attributes), so [~undoable:false]. *)
module Mbx = Esm_modelbx.Mbx
module Model = Esm_modelbx.Model

let class_table_spec =
  Mbx.v ~name:"class<->table"
    ~left_mm:
      (Esm_modelbx.Metamodel.v
         [
           {
             Esm_modelbx.Metamodel.cls_name = "Class";
             attributes =
               [
                 ("name", Esm_modelbx.Metamodel.Tstr);
                 ("abstract", Esm_modelbx.Metamodel.Tbool);
                 ("doc", Esm_modelbx.Metamodel.Tstr);
               ];
           };
         ])
    ~right_mm:
      (Esm_modelbx.Metamodel.v
         [
           {
             Esm_modelbx.Metamodel.cls_name = "Table";
             attributes =
               [
                 ("name", Esm_modelbx.Metamodel.Tstr);
                 ("persistent", Esm_modelbx.Metamodel.Tbool);
                 ("engine", Esm_modelbx.Metamodel.Tstr);
               ];
           };
         ])
    [
      {
        Mbx.left_class = "Class";
        right_class = "Table";
        key = [ ("name", "name") ];
        synced = [ ("abstract", "persistent") ];
      };
    ]

let class_model names =
  Model.of_objects
    (List.mapi
       (fun i name ->
         Model.obj ~id:(i + 1) ~cls:"Class"
           [
             ("name", Model.Vstr name);
             ("abstract", Model.Vbool (i mod 2 = 0));
             ("doc", Model.Vstr (name ^ " docs"));
           ])
       names)

let table_model names =
  Model.of_objects
    (List.mapi
       (fun i name ->
         Model.obj ~id:(i + 1) ~cls:"Table"
           [
             ("name", Model.Vstr name);
             ("persistent", Model.Vbool (i mod 2 = 1));
             ("engine", Model.Vstr "innodb");
           ])
       names)

(** The compiled engineering-roster pipeline of [examples/view_update.ml]:
    a select+project relational lens over the employees table.  The
    pedigree is the per-combinator {!Rel.Query.pedigree} of the plan: the
    non-key select keeps the undo law, the lossy project drops to set-bx,
    and the meet is set-bx — the same level the old [Of_lens { vwb =
    false }] claim gave, now derived combinator by combinator. *)
let eng_query : Rel.Query.t =
  Rel.Query.parse
    {|employees | where dept = "Engineering" | select id, name, dept|}

let eng_view_lens : (Rel.Table.t, Rel.Table.t) Esm_lens.Lens.t =
  Rel.Query.to_lens ~schema:Rel.Workload.employees_schema ~key:[ "id" ]
    eng_query

let eng_pedigree : Pedigree.t =
  Rel.Query.pedigree ~schema:Rel.Workload.employees_schema ~key:[ "id" ]
    eng_query

(* ---- compiled delta pipelines and sample tables for the relational
   entries ----------------------------------------------------------- *)

let eng_dlens : Rel.Rlens.dlens =
  Rel.Query.to_dlens ~schema:Rel.Workload.employees_schema ~key:[ "id" ]
    eng_query

(** The same compilation through the plan cache a second time — by
    construction a cache {e hit} (the [eng_dlens] compile above warmed
    the cache).  The "relational/memoized-plan" entry audits this
    dlens: a hit returns the cached plan with its full [Pedigree.Plan]
    provenance intact, so the inferred law level must be identical to
    the cold compile's — memoization can never launder law levels
    (cross-checked against {!Rel.Query.to_dlens_uncached} in
    [test/test_incr.ml]). *)
let eng_dlens_memo_hit : Rel.Rlens.dlens =
  Rel.Query.to_dlens ~schema:Rel.Workload.employees_schema ~key:[ "id" ]
    eng_query

(** A key-preserving slice: the predicate reads only the key column, so
    the select lemma yields [`Overwriteable]. *)
let slice_query : Rel.Query.t = Rel.Query.parse {|employees | where id <= 4|}

let slice_dlens : Rel.Rlens.dlens =
  Rel.Query.to_dlens ~schema:Rel.Workload.employees_schema ~key:[ "id" ]
    slice_query

(** Views of [where id <= 4]: any table whose rows all satisfy the
    predicate works (the select put validates them). *)
let id_slice_view tbl = Rel.Algebra.select Rel.Pred.(col "id" <= int 4) tbl

(** A pure column renaming: a schema iso, [`Overwriteable] by the rename
    lemma. *)
let contact_query : Rel.Query.t =
  Rel.Query.parse {|employees | rename email as contact|}

let contact_dlens : Rel.Rlens.dlens =
  Rel.Query.to_dlens ~schema:Rel.Workload.employees_schema ~key:[ "id" ]
    contact_query

let contact_view tbl = Esm_lens.Lens.get contact_dlens.Rel.Rlens.lens tbl

let staff_schema : Rel.Schema.t =
  Rel.Schema.make [ ("id", Rel.Value.Tint); ("name", Rel.Value.Tstr) ]

let comp_schema : Rel.Schema.t =
  Rel.Schema.make [ ("id", Rel.Value.Tint); ("salary", Rel.Value.Tint) ]

let staff names =
  Rel.Table.of_lists staff_schema
    (List.mapi (fun i n -> [ Rel.Value.Int (i + 1); Rel.Value.Str n ]) names)

let comp salaries =
  Rel.Table.of_lists comp_schema
    (List.mapi
       (fun i s -> [ Rel.Value.Int (i + 1); Rel.Value.Int s ])
       salaries)

let staff_comp_view rows =
  Rel.Table.of_lists
    (Rel.Schema.make
       [
         ("id", Rel.Value.Tint);
         ("name", Rel.Value.Tstr);
         ("salary", Rel.Value.Tint);
       ])
    (List.map
       (fun (i, n, s) -> [ Rel.Value.Int i; Rel.Value.Str n; Rel.Value.Int s ])
       rows)

(* ------------------------------------------------------------------ *)
(* The entries                                                         *)
(* ------------------------------------------------------------------ *)

let builtin () : entry list =
  [
    Entry
      {
        label = "demo/pair";
        description =
          "the independent pair state monad of §3.4 (esm-demo `pair`)";
        packed =
          Concrete.packed_pair ~init:(0, 0) ~eq_state:eq_int_pair ();
        values_a = int_values;
        values_b = int_values;
        eq_a = Int.equal;
        eq_b = Int.equal;
        show_a = string_of_int;
        show_b = string_of_int;
        subjects =
          [
            (* the pair bx really commutes, so compiling at `Commuting is
               statically justified — including the rewrite that would
               miscompile parity *)
            Cmd
              ( "independent-updates",
                `Commuting,
                Command.(Seq (Set_a 3, Seq (Set_b 4, Set_a 3))) );
            Prog
              ( "read-after-writes",
                `Commuting,
                Program.[ Set_a 1; Set_b 2; Get_a; Get_b ] );
          ];
        plan = None;
      };
    Entry
      {
        label = "model-sync/parity";
        description =
          "undoable parity algebraic bx (examples/model_sync.ml, Lemma 5)";
        packed =
          Concrete.packed_of_algebraic ~undoable:true ~init:(0, 0)
            ~eq_state:eq_int_pair parity;
        values_a = int_values;
        values_b = int_values;
        eq_a = Int.equal;
        eq_b = Int.equal;
        show_a = string_of_int;
        show_b = string_of_int;
        subjects =
          [
            (* same shape as the known miscompilation, but compiled at
               the level the pedigree supports: the commuting-only
               rewrite is reported as unavailable, not applied *)
            Cmd
              ( "interleaved-repair",
                `Overwriteable,
                Command.(Seq (Set_a 3, Seq (Set_b 4, Set_a 3))) );
            Cmd
              ( "overwrite-burst",
                `Overwriteable,
                Command.(Seq (Set_a 1, Seq (Set_a 2, Modify_a (fun x -> x + 1))))
              );
            Prog
              ( "sync-script",
                `Overwriteable,
                Program.[ Set_a 3; Get_b; Set_b 10; Get_a ] );
          ];
        plan = None;
      };
    Entry
      {
        label = "demo/parity-sticky";
        description =
          "sticky parity: correct + hippocratic but not undoable (Lemma 5)";
        packed =
          Concrete.packed_of_algebraic ~undoable:false ~init:(0, 0)
            ~eq_state:eq_int_pair parity_sticky;
        values_a = int_values;
        values_b = int_values;
        eq_a = Int.equal;
        eq_b = Int.equal;
        show_a = string_of_int;
        show_b = string_of_int;
        subjects =
          [
            Cmd
              ( "plain-sync",
                `Set_bx,
                Command.(Seq (Set_a 4, If_a ((fun x -> x > 0), Set_b 2, Set_b 1)))
              );
          ];
        plan = None;
      };
    Entry
      {
        label = "quickstart/account-owner";
        description =
          "account/owner field lens (examples/quickstart.ml, Lemma 4; vwb)";
        packed =
          Concrete.packed_of_lens ~vwb:true
            ~init:{ owner = "ada"; balance = 100 }
            ~eq_state:equal_account owner_lens;
        values_a =
          [
            { owner = "ada"; balance = 100 };
            { owner = "grace"; balance = 5 };
            { owner = "alan"; balance = 7 };
          ];
        values_b = [ "ada"; "grace"; "barbara" ];
        eq_a = equal_account;
        eq_b = String.equal;
        show_a = show_account;
        show_b = Fun.id;
        subjects =
          [
            Cmd
              ( "rename-twice",
                `Overwriteable,
                Command.(Seq (Set_b "grace", Set_b "barbara")) );
          ];
        plan = None;
      };
    Entry
      {
        label = "config-sync/bindings";
        description =
          "config text <-> parsed bindings (examples/config_sync.ml, Lemma \
           4; wb only — (PutPut) is unclaimed)";
        packed =
          Concrete.packed_of_lens ~vwb:false ~init:"host = localhost\n"
            ~eq_state:String.equal Esm_lens.Config_lens.bindings;
        values_a = [ "host = localhost\n"; "# cfg\nport=5432\n"; "" ];
        values_b =
          [ [ ("host", "db.prod.internal") ]; [ ("port", "5432"); ("debug", "false") ]; [] ];
        eq_a = String.equal;
        eq_b = eq_bindings;
        show_a = String.escaped;
        show_b = show_bindings;
        subjects =
          [
            Prog
              ( "deploy-edit",
                `Set_bx,
                Program.
                  [
                    Get_b;
                    Set_b [ ("host", "db.prod.internal"); ("debug", "false") ];
                    Get_a;
                  ] );
          ];
        plan = None;
      };
    Entry
      {
        label = "demo/shift-symlens";
        description = "symmetric-lens iso b = a + 100 (esm-demo, Lemma 6)";
        packed =
          Concrete.packed_of_symlens ~seed_a:0 ~eq_a:Int.equal
            ~eq_b:Int.equal shift_symlens;
        values_a = int_values;
        values_b = int_values;
        eq_a = Int.equal;
        eq_b = Int.equal;
        show_a = string_of_int;
        show_b = string_of_int;
        subjects =
          [
            Prog
              ("mirror-write", `Set_bx, Program.[ Set_a 1; Get_b; Set_b 7 ]);
          ];
        plan = None;
      };
    Entry
      {
        label = "demo/journalled-parity";
        description =
          "journalled parity bx: lawful but history makes (SS) fail \
           (esm-demo `journal`)";
        packed =
          Concrete.pack_pedigreed
            ~pedigree:
              (Pedigree.Journalled
                 (Pedigree.Of_algebraic { name = "parity"; undoable = true }))
            ~bx:
              (Journal.journalled ~eq_a:Int.equal ~eq_b:Int.equal
                 (Concrete.of_algebraic parity))
            ~init:(Journal.initial (0, 0))
            ~eq_state:
              (Journal.equal_state ~eq_a:Int.equal ~eq_b:Int.equal
                 ~eq_s:eq_int_pair);
        values_a = int_values;
        values_b = int_values;
        eq_a = Int.equal;
        eq_b = Int.equal;
        show_a = string_of_int;
        show_b = string_of_int;
        subjects =
          [
            (* only the always-sound rewrites may be requested here *)
            Prog
              ( "audited-sync",
                `Set_bx,
                Program.[ Set_a 3; Set_a 3; Get_b; Set_b 10 ] );
          ];
        plan = None;
      };
    Entry
      {
        label = "compose/pair-pair";
        description =
          "two independent pair bx composed through the shared middle view";
        packed =
          Compose.compose_packed
            (Concrete.packed_pair ~init:(0, 0) ~eq_state:eq_int_pair ())
            (Concrete.packed_pair ~init:(0, 0) ~eq_state:eq_int_pair ());
        values_a = int_values;
        values_b = int_values;
        eq_a = Int.equal;
        eq_b = Int.equal;
        show_a = string_of_int;
        show_b = string_of_int;
        subjects =
          [
            Cmd
              ( "cross-update",
                `Commuting,
                Command.(Seq (Set_a 5, Seq (Set_b 6, Modify_a (fun x -> x))))
              );
          ];
        plan = None;
      };
    Entry
      {
        label = "compose/parity-shift";
        description =
          "undoable parity composed with the shift symlens: the meet drops \
           to set-bx";
        packed =
          Compose.compose_packed
            (Concrete.packed_of_algebraic ~undoable:true ~init:(0, 0)
               ~eq_state:eq_int_pair parity)
            (Concrete.packed_of_symlens ~seed_a:0 ~eq_a:Int.equal
               ~eq_b:Int.equal shift_symlens);
        values_a = int_values;
        values_b = int_values;
        eq_a = Int.equal;
        eq_b = Int.equal;
        show_a = string_of_int;
        show_b = string_of_int;
        subjects =
          [
            Prog
              ("chained-sync", `Set_bx, Program.[ Set_a 2; Get_b; Set_b 103 ]);
          ];
        plan = None;
      };
    Entry
      {
        label = "tree-sync/bookmarks";
        description =
          "bookmarks document vs meta-free renamed view (examples/tree_sync.ml, Lemma 4; vwb)";
        packed =
          Concrete.packed_of_lens ~vwb:true
            ~init:(bookmarks_doc [ ("ocaml", "https://ocaml.org") ] "3")
            ~eq_state:Tree.equal bookmarks_lens;
        values_a =
          [
            bookmarks_doc [ ("ocaml", "https://ocaml.org") ] "3";
            bookmarks_doc
              [ ("bx", "http://bx-community.wikidot.com"); ("edbt", "https://edbt.org") ]
              "4";
            bookmarks_doc [] "1";
          ];
        values_b =
          [
            links_view [ ("ocaml", "https://ocaml.org") ];
            links_view [ ("icfp", "https://icfpconference.org") ];
            links_view [];
          ];
        eq_a = Tree.equal;
        eq_b = Tree.equal;
        show_a = Tree.to_string;
        show_b = Tree.to_string;
        subjects =
          [
            (* vwb justifies (SS): republishing the view twice keeps only
               the last edit *)
            Cmd
              ( "republish-twice",
                `Overwriteable,
                Command.(
                  Seq
                    ( Set_b (links_view [ ("ocaml", "https://ocaml.org") ]),
                      Set_b (links_view [ ("edbt", "https://edbt.org") ]) ))
              );
          ];
        plan = None;
      };
    Entry
      {
        label = "mde-sync/class-table";
        description =
          "QVT-R-lite class<->table correspondence (examples/mde_sync.ml, \
           Lemma 5; restorers not undoable)";
        packed =
          (let classes0 = class_model [ "Order"; "Item" ] in
           Concrete.packed_of_algebraic ~undoable:false
             ~init:(classes0, Mbx.fwd class_table_spec classes0 Model.empty)
             ~eq_state:(fun (a1, b1) (a2, b2) ->
               Model.equal a1 a2 && Model.equal b1 b2)
             (Mbx.to_algbx class_table_spec));
        values_a =
          [
            class_model [ "Order"; "Item" ];
            class_model [ "Order"; "Invoice"; "Customer" ];
            class_model [];
          ];
        values_b =
          [
            table_model [ "Order"; "Item" ];
            table_model [ "Ledger" ];
            table_model [];
          ];
        eq_a = Model.equal;
        eq_b = Model.equal;
        show_a = Model.to_string;
        show_b = Model.to_string;
        subjects =
          [
            Prog
              ( "refactor-then-migrate",
                `Set_bx,
                Program.
                  [
                    Set_a (class_model [ "Order"; "Invoice"; "Customer" ]);
                    Get_b;
                    Set_b (table_model [ "Order"; "Item" ]);
                    Get_a;
                  ] );
          ];
        plan = None;
      };
    Entry
      {
        label = "relational/engineering-roster";
        description =
          "compiled where|select pipeline over employees \
           (examples/view_update.ml; per-combinator plan pedigree, meet \
           is set-bx)";
        packed =
          Concrete.with_pedigree eng_pedigree
            (Concrete.packed_of_lens ~vwb:false
               ~init:(Rel.Workload.employees ~seed:3 ~size:8)
               ~eq_state:Rel.Table.equal eng_view_lens);
        values_a =
          [
            Rel.Workload.employees ~seed:1 ~size:6;
            Rel.Workload.employees ~seed:7 ~size:10;
            Rel.Workload.employees ~seed:2 ~size:0;
          ];
        values_b =
          [
            Rel.Workload.engineering_view ~seed:4 ~size:12;
            Rel.Workload.engineering_view ~seed:9 ~size:20;
            Rel.Workload.engineering_view ~seed:1 ~size:0;
          ];
        eq_a = Rel.Table.equal;
        eq_b = Rel.Table.equal;
        show_a = Rel.Table.to_string;
        show_b = Rel.Table.to_string;
        subjects =
          [
            (* wb only: request nothing beyond the always-sound rewrites *)
            Cmd
              ( "roster-refresh",
                `Set_bx,
                Command.(
                  Seq
                    ( Set_b (Rel.Workload.engineering_view ~seed:4 ~size:12),
                      Seq
                        ( Set_a (Rel.Workload.employees ~seed:7 ~size:10),
                          Set_b (Rel.Workload.engineering_view ~seed:9 ~size:20)
                        ) )) );
          ];
        plan =
          Some
            {
              plan_schema = Rel.Workload.employees_schema;
              plan_key = [ "id" ];
              plan_query = eng_query;
              plan_requested = None;
            };
      };
    Entry
      {
        label = "relational/engineering-roster-atomic";
        description =
          "the same where|select pipeline hardened with Atomic: failing \
           sets roll back to the snapshot instead of raising";
        packed =
          Atomic.harden_packed
            (Concrete.packed_of_lens ~vwb:false
               ~init:(Rel.Workload.employees ~seed:3 ~size:8)
               ~eq_state:Rel.Table.equal eng_view_lens);
        values_a =
          [
            Rel.Workload.employees ~seed:1 ~size:6;
            Rel.Workload.employees ~seed:7 ~size:10;
            Rel.Workload.employees ~seed:2 ~size:0;
          ];
        values_b =
          [
            Rel.Workload.engineering_view ~seed:4 ~size:12;
            Rel.Workload.engineering_view ~seed:9 ~size:20;
            Rel.Workload.engineering_view ~seed:1 ~size:0;
          ];
        eq_a = Rel.Table.equal;
        eq_b = Rel.Table.equal;
        show_a = Rel.Table.to_string;
        show_b = Rel.Table.to_string;
        subjects =
          [
            (* same pipeline as roster-refresh; the atomic wrapper keeps
               the level and silences unprotected-fallible *)
            Cmd
              ( "roster-refresh-atomic",
                `Set_bx,
                Command.(
                  Seq
                    ( Set_b (Rel.Workload.engineering_view ~seed:4 ~size:12),
                      Seq
                        ( Set_a (Rel.Workload.employees ~seed:7 ~size:10),
                          Set_b (Rel.Workload.engineering_view ~seed:9 ~size:20)
                        ) )) );
          ];
        plan = None;
      };
    Entry
      {
        label = "sync/replicated-roster";
        description =
          "the where|select roster served by an Esm_sync store: commits \
           are transactional behind the oplog, so replication keeps the \
           lens level and silences unprotected-fallible";
        packed =
          Concrete.with_pedigree
            (Pedigree.Replicated
               (Pedigree.Of_lens { name = "employees|where|select"; vwb = false }))
            (Concrete.packed_of_lens ~vwb:false
               ~init:(Rel.Workload.employees ~seed:3 ~size:8)
               ~eq_state:Rel.Table.equal eng_view_lens);
        values_a =
          [
            Rel.Workload.employees ~seed:1 ~size:6;
            Rel.Workload.employees ~seed:7 ~size:10;
            Rel.Workload.employees ~seed:2 ~size:0;
          ];
        values_b =
          [
            Rel.Workload.engineering_view ~seed:4 ~size:12;
            Rel.Workload.engineering_view ~seed:9 ~size:20;
            Rel.Workload.engineering_view ~seed:1 ~size:0;
          ];
        eq_a = Rel.Table.equal;
        eq_b = Rel.Table.equal;
        show_a = Rel.Table.to_string;
        show_b = Rel.Table.to_string;
        subjects =
          [
            (* a B-side session: push the view, re-read the propagated
               source (foldable — the put returned it), push again *)
            Puts
              ( "roster-session",
                `Set_bx,
                Lint.
                  [
                    Put_ba (Rel.Workload.engineering_view ~seed:4 ~size:12);
                    Pget_a;
                    Put_ba (Rel.Workload.engineering_view ~seed:9 ~size:20);
                  ] );
          ];
        plan = None;
      };
    Entry
      {
        label = "sync/replicated-pair";
        description =
          "the independent pair bx behind a replicated store: sessions on \
           opposite views genuinely commute, so the put rewriter may run \
           at the top level";
        packed =
          Concrete.with_pedigree
            (Pedigree.Replicated Pedigree.Pair)
            (Concrete.packed_pair ~init:(0, 0) ~eq_state:eq_int_pair ());
        values_a = int_values;
        values_b = int_values;
        eq_a = Int.equal;
        eq_b = Int.equal;
        show_a = string_of_int;
        show_b = string_of_int;
        subjects =
          [
            (* two sessions' interleaved puts: the same-direction collapse
               across the opposite-direction put needs commutation, which
               the pair pedigree supplies *)
            Puts
              ( "interleaved-sessions",
                `Commuting,
                Lint.[ Put_ab 1; Put_ba 2; Put_ab 1; Pget_b ] );
          ];
        plan = None;
      };
    Entry
      {
        label = "relational/keyed-slice";
        description =
          "delta-compiled where-on-key slice: the predicate reads only \
           the key column, so the select lemma gives (PutPut) — \
           overwriteable";
        packed =
          Rel.Rlens.packed_of_dlens
            ~init:(Rel.Workload.employees ~seed:3 ~size:8)
            slice_dlens;
        values_a =
          [
            Rel.Workload.employees ~seed:1 ~size:6;
            Rel.Workload.employees ~seed:7 ~size:10;
            Rel.Workload.employees ~seed:2 ~size:0;
          ];
        values_b =
          [
            id_slice_view (Rel.Workload.employees ~seed:4 ~size:12);
            id_slice_view (Rel.Workload.employees ~seed:9 ~size:7);
            id_slice_view (Rel.Workload.employees ~seed:1 ~size:0);
          ];
        eq_a = Rel.Table.equal;
        eq_b = Rel.Table.equal;
        show_a = Rel.Table.to_string;
        show_b = Rel.Table.to_string;
        subjects =
          [
            (* key-preserving select justifies (SS): the republished
               slice collapses soundly *)
            Cmd
              ( "slice-republish",
                `Overwriteable,
                Command.(
                  Seq
                    ( Set_b (id_slice_view (Rel.Workload.employees ~seed:4 ~size:12)),
                      Set_b (id_slice_view (Rel.Workload.employees ~seed:9 ~size:7))
                    )) );
          ];
        plan =
          Some
            {
              plan_schema = Rel.Workload.employees_schema;
              plan_key = [ "id" ];
              plan_query = slice_query;
              plan_requested = None;
            };
      };
    Entry
      {
        label = "relational/eng-roster-delta";
        description =
          "the engineering roster compiled to a delta pipeline: view \
           edits propagate through put_delta, and Delta_of keeps the \
           plan's set-bx meet";
        packed =
          Rel.Rlens.packed_of_dlens
            ~init:(Rel.Workload.employees ~seed:3 ~size:8)
            eng_dlens;
        values_a =
          [
            Rel.Workload.employees ~seed:1 ~size:6;
            Rel.Workload.employees ~seed:7 ~size:10;
            Rel.Workload.employees ~seed:2 ~size:0;
          ];
        values_b =
          [
            Rel.Workload.engineering_view ~seed:4 ~size:12;
            Rel.Workload.engineering_view ~seed:9 ~size:20;
            Rel.Workload.engineering_view ~seed:1 ~size:0;
          ];
        eq_a = Rel.Table.equal;
        eq_b = Rel.Table.equal;
        show_a = Rel.Table.to_string;
        show_b = Rel.Table.to_string;
        subjects =
          [
            Prog
              ( "delta-sync",
                `Set_bx,
                Program.
                  [
                    Set_b (Rel.Workload.engineering_view ~seed:4 ~size:12);
                    Get_a;
                  ] );
          ];
        plan =
          Some
            {
              plan_schema = Rel.Workload.employees_schema;
              plan_key = [ "id" ];
              plan_query = eng_query;
              plan_requested = None;
            };
      };
    Entry
      {
        label = "relational/contact-rename";
        description =
          "delta-compiled column rename: a schema iso, overwriteable by \
           the rename lemma (never commuting)";
        packed =
          Rel.Rlens.packed_of_dlens
            ~init:(Rel.Workload.employees ~seed:3 ~size:8)
            contact_dlens;
        values_a =
          [
            Rel.Workload.employees ~seed:1 ~size:6;
            Rel.Workload.employees ~seed:7 ~size:10;
            Rel.Workload.employees ~seed:2 ~size:0;
          ];
        values_b =
          [
            contact_view (Rel.Workload.employees ~seed:4 ~size:5);
            contact_view (Rel.Workload.employees ~seed:9 ~size:9);
            contact_view (Rel.Workload.employees ~seed:1 ~size:0);
          ];
        eq_a = Rel.Table.equal;
        eq_b = Rel.Table.equal;
        show_a = Rel.Table.to_string;
        show_b = Rel.Table.to_string;
        subjects =
          [
            (* publish, overwrite, publish the original again: the
               trailing pair cancels under the undo law alone *)
            Cmd
              ( "edit-undo",
                `Undoable,
                Command.(
                  Seq
                    ( Set_b (contact_view (Rel.Workload.employees ~seed:4 ~size:5)),
                      Seq
                        ( Set_b (contact_view (Rel.Workload.employees ~seed:9 ~size:9)),
                          Set_b (contact_view (Rel.Workload.employees ~seed:4 ~size:5))
                        ) )) );
          ];
        plan =
          Some
            {
              plan_schema = Rel.Workload.employees_schema;
              plan_key = [ "id" ];
              plan_query = contact_query;
              plan_requested = None;
            };
      };
    Entry
      {
        label = "relational/staff-comp-join";
        description =
          "join lens over staff and compensation with the FD id -> \
           salary proven on the right: the join lemma restores the undo \
           law.  Samples keep a fixed key universe (ids 1-3, no dangling \
           rows) — the FD conditions the lemma assumes";
        packed =
          Concrete.with_pedigree
            (Rel.Rlens.join_pedigree
               ~right_fds:
                 [ { Rel.Fd.determinant = [ "id" ]; dependent = [ "salary" ] } ]
               ~left:staff_schema ~right:comp_schema ())
            (Concrete.packed_of_lens ~vwb:false
               ~init:(staff [ "ada"; "grace"; "alan" ], comp [ 100; 200; 300 ])
               ~eq_state:(fun (l1, r1) (l2, r2) ->
                 Rel.Table.equal l1 l2 && Rel.Table.equal r1 r2)
               (Rel.Rlens.join ~left:staff_schema ~right:comp_schema));
        values_a =
          [
            (staff [ "ada"; "grace"; "alan" ], comp [ 100; 200; 300 ]);
            (staff [ "barbara"; "carol"; "dan" ], comp [ 150; 250; 350 ]);
          ];
        values_b =
          [
            staff_comp_view
              [ (1, "ada", 120); (2, "grace", 220); (3, "alan", 320) ];
            staff_comp_view
              [ (1, "barbara", 100); (2, "carol", 200); (3, "dan", 300) ];
          ];
        eq_a =
          (fun (l1, r1) (l2, r2) ->
            Rel.Table.equal l1 l2 && Rel.Table.equal r1 r2);
        eq_b = Rel.Table.equal;
        show_a =
          (fun (l, r) ->
            Printf.sprintf "(%s, %s)" (Rel.Table.to_string l)
              (Rel.Table.to_string r));
        show_b = Rel.Table.to_string;
        subjects =
          [
            (* rebalance then revert: the trailing pair cancels at the
               undo level the FD-proven join supplies; the middle (SS)
               collapse stays out of reach *)
            Cmd
              ( "rebalance-undo",
                `Undoable,
                Command.(
                  Seq
                    ( Set_b
                        (staff_comp_view
                           [ (1, "ada", 120); (2, "grace", 220); (3, "alan", 320) ]),
                      Seq
                        ( Set_b
                            (staff_comp_view
                               [
                                 (1, "barbara", 100);
                                 (2, "carol", 200);
                                 (3, "dan", 300);
                               ]),
                          Set_b
                            (staff_comp_view
                               [ (1, "ada", 120); (2, "grace", 220); (3, "alan", 320) ])
                        ) )) );
          ];
        plan =
          Some
            {
              plan_schema = staff_schema;
              plan_key = [ "id" ];
              plan_query = Rel.Query.Join (Rel.Query.Base "staff", Rel.Query.Base "comp");
              plan_requested = None;
            };
      };
    Entry
      {
        label = "relational/memoized-plan";
        description =
          "the engineering roster compiled through the plan cache (a \
           memo hit): the cached dlens carries the same Plan pedigree \
           as its cold-compile twin, so a cache hit reports the same \
           inferred law level — memoization never launders law levels";
        packed =
          Rel.Rlens.packed_of_dlens
            ~init:(Rel.Workload.employees ~seed:3 ~size:8)
            eng_dlens_memo_hit;
        values_a =
          [
            Rel.Workload.employees ~seed:1 ~size:6;
            Rel.Workload.employees ~seed:7 ~size:10;
            Rel.Workload.employees ~seed:2 ~size:0;
          ];
        values_b =
          [
            Rel.Workload.engineering_view ~seed:4 ~size:12;
            Rel.Workload.engineering_view ~seed:9 ~size:20;
            Rel.Workload.engineering_view ~seed:1 ~size:0;
          ];
        eq_a = Rel.Table.equal;
        eq_b = Rel.Table.equal;
        show_a = Rel.Table.to_string;
        show_b = Rel.Table.to_string;
        subjects =
          [
            Prog
              ( "memoized-delta-sync",
                `Set_bx,
                Program.
                  [
                    Set_b (Rel.Workload.engineering_view ~seed:4 ~size:12);
                    Get_a;
                  ] );
          ];
        plan =
          Some
            {
              plan_schema = Rel.Workload.employees_schema;
              plan_key = [ "id" ];
              plan_query = eng_query;
              plan_requested = None;
            };
      };
  ]

(* Upper layers (the ESMQL front-end lives above esm_analysis) register
   their query-derived scenarios here so the same audit/gate machinery
   covers them.  Registration is by label: re-registering a label
   replaces the previous entry, so callers can be idempotent without
   coordinating. *)
let registered : entry list ref = ref []

let register (e : entry) =
  registered :=
    e :: List.filter (fun e' -> entry_label e' <> entry_label e) !registered

let all () : entry list = builtin () @ List.rev !registered

(* ------------------------------------------------------------------ *)
(* Auditing                                                            *)
(* ------------------------------------------------------------------ *)

type pipeline_result = {
  subject : string;
  requested : Law_infer.level;
  diagnostics : Lint.diagnostic list;
}

type audit = {
  label : string;
  description : string;
  pedigree : Pedigree.t;
  inferred : Law_infer.level;
  rationale : string;
  observed : Law_infer.level option;
      (** what the sampling {!Certify} report supports *)
  cross_check_ok : bool;
      (** static ≤ observed; [false] means the analyzer (or a pedigree
          claim) is wrong — surfaced loudly by `bxlint` *)
  certify : Certify.report;
  pipelines : pipeline_result list;
  plan_query : string option;
      (** surface syntax of the compiled plan, when the scenario has one *)
  plan_requested : Law_infer.level option;
      (** the law level the plan's author asked for, when the plan came
          from a surface request ([expect level=…]) *)
  plan_inferred : Law_infer.level option;
      (** {!Law_infer.level} of the plan's own {!Rel.Query.pedigree} —
          what the compile-time gate compares [plan_requested] against *)
  plan_diagnostics : Lint.diagnostic list;
      (** {!Lint.lint_plan} over that plan; empty when [plan_query] is
          [None] *)
}

let audit_entry (Entry s : entry) : audit =
  let pedigree = Concrete.pedigree s.packed in
  let inferred = Law_infer.level pedigree in
  let certify =
    Certify.certify ~values_a:s.values_a ~values_b:s.values_b ~eq_a:s.eq_a
      ~eq_b:s.eq_b ~show_a:s.show_a ~show_b:s.show_b s.packed
  in
  let observed = Certify.observed_level certify in
  let cross_check_ok =
    Law_infer.consistent_with_observation ~static:inferred ~observed
  in
  let lint_subject subj =
    let pipeline subject requested ~has_sets lint x =
      {
        subject;
        requested;
        diagnostics =
          Option.to_list (Lint.check_level ~requested ~inferred ~subject)
          @ Option.to_list (Lint.check_atomicity ~pedigree ~has_sets ~subject)
          @ lint ~requested ~inferred ~eq_a:s.eq_a ~eq_b:s.eq_b x;
      }
    in
    match subj with
    | Cmd (subject, requested, cmd) ->
        pipeline subject requested ~has_sets:(Lint.command_has_sets cmd)
          Lint.lint_command cmd
    | Prog (subject, requested, ops) ->
        pipeline subject requested ~has_sets:(Lint.program_has_sets ops)
          Lint.lint_program ops
    | Puts (subject, requested, ops) ->
        pipeline subject requested ~has_sets:(Lint.puts_have_sets ops)
          Lint.lint_puts ops
  in
  {
    label = s.label;
    description = s.description;
    pedigree;
    inferred;
    rationale = Law_infer.explain pedigree;
    observed;
    cross_check_ok;
    certify;
    pipelines = List.map lint_subject s.subjects;
    plan_query =
      Option.map
        (fun (p : query_plan) -> Rel.Query.to_string p.plan_query)
        s.plan;
    plan_requested = Option.bind s.plan (fun p -> p.plan_requested);
    plan_inferred =
      Option.map
        (fun (p : query_plan) ->
          Law_infer.level
            (Rel.Query.pedigree ~schema:p.plan_schema ~key:p.plan_key
               p.plan_query))
        s.plan;
    plan_diagnostics =
      (match s.plan with
      | None -> []
      | Some p ->
          Lint.lint_plan ~schema:p.plan_schema ~key:p.plan_key p.plan_query);
  }

let audit_all () : audit list = List.map audit_entry (all ())

let audit_has_errors (a : audit) : bool =
  (not a.cross_check_ok)
  || List.exists (fun p -> Lint.has_errors p.diagnostics) a.pipelines
  || Lint.has_errors a.plan_diagnostics

(* ------------------------------------------------------------------ *)
(* The known miscompilation (the dynamic counterexample of
   test/test_command.ml, rejected statically)                          *)
(* ------------------------------------------------------------------ *)

(** The exact program [test/test_command.ml] shows
    [optimize_unsafe_commuting] miscompiling on the entangled parity bx:
    [set_a 3; set_b 4; set_a 3].  Linting it at the [`Commuting] level
    against the parity pedigree must produce an error — the static
    rejection of the dynamic counterexample. *)
let known_miscompilation () : Lint.diagnostic list =
  let pedigree = Pedigree.Of_algebraic { name = "parity"; undoable = true } in
  let inferred = Law_infer.level pedigree in
  let requested = `Commuting in
  let cmd = Command.(Seq (Set_a 3, Seq (Set_b 4, Set_a 3))) in
  (Lint.check_level ~requested ~inferred ~subject:"parity/commuting"
  |> Option.to_list)
  @ Lint.lint_command ~requested ~inferred ~eq_a:Int.equal ~eq_b:Int.equal cmd

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_audit fmt (a : audit) =
  Format.fprintf fmt "%s — %s@." a.label a.description;
  Format.fprintf fmt "  pedigree:  %s@." (Pedigree.to_string a.pedigree);
  Format.fprintf fmt "  inferred:  %s@." (Law_infer.to_string a.inferred);
  Format.fprintf fmt "  rationale: %s@." a.rationale;
  Format.fprintf fmt "  sampled:   %s%s@."
    (match a.observed with
    | Some l -> Law_infer.to_string l
    | None -> "UNLAWFUL (required set-bx law violated)")
    (if a.cross_check_ok then "" else "  ** STATIC CLAIM REFUTED **");
  List.iter
    (fun p ->
      Format.fprintf fmt "  pipeline %s (optimize at %s):@." p.subject
        (Law_infer.to_string p.requested);
      if p.diagnostics = [] then Format.fprintf fmt "    (clean)@."
      else
        List.iter
          (fun d -> Format.fprintf fmt "    %a@." Lint.pp_diagnostic d)
          p.diagnostics)
    a.pipelines;
  match a.plan_query with
  | None -> ()
  | Some q ->
      Format.fprintf fmt "  plan %s:@." q;
      if a.plan_diagnostics = [] then Format.fprintf fmt "    (clean)@."
      else
        List.iter
          (fun d -> Format.fprintf fmt "    %a@." Lint.pp_diagnostic d)
          a.plan_diagnostics

let audit_to_json (a : audit) : string =
  let pipelines =
    List.map
      (fun p ->
        Printf.sprintf {|{"subject":"%s","requested":"%s","diagnostics":%s}|}
          (Lint.json_escape p.subject)
          (Law_infer.to_string p.requested)
          (Lint.diagnostics_to_json p.diagnostics))
      a.pipelines
  in
  let opt_level = function
    | Some l -> Printf.sprintf "\"%s\"" (Law_infer.to_string l)
    | None -> "null"
  in
  Printf.sprintf
    {|{"label":"%s","pedigree":"%s","inferred":"%s","sampled":%s,"cross_check_ok":%b,"pipelines":[%s],"plan":%s,"plan_requested":%s,"plan_inferred":%s,"plan_diagnostics":%s}|}
    (Lint.json_escape a.label)
    (Lint.json_escape (Pedigree.to_string a.pedigree))
    (Law_infer.to_string a.inferred)
    (opt_level a.observed) a.cross_check_ok
    (String.concat "," pipelines)
    (match a.plan_query with
    | Some q -> Printf.sprintf "\"%s\"" (Lint.json_escape q)
    | None -> "null")
    (opt_level a.plan_requested)
    (opt_level a.plan_inferred)
    (Lint.diagnostics_to_json a.plan_diagnostics)

let audits_to_json (audits : audit list) : string =
  "[" ^ String.concat "," (List.map audit_to_json audits) ^ "]"
