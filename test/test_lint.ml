(** The law-level lint (Esm_analysis.Lint): every rule fires on a
    minimal program and stays silent on the law-repaired version, the
    known optimize_unsafe_commuting miscompilation from test_command.ml
    is rejected statically exactly when it miscompiles dynamically, and
    — property-tested — a lint pass with no errors means the commuting
    optimizer is semantics-preserving on the entangled parity bx. *)

open Esm_core
open Esm_analysis

let check = Alcotest.check
let test = Alcotest.test_case

let level : Law_infer.level Alcotest.testable =
  Alcotest.testable Law_infer.pp (fun l1 l2 -> Law_infer.compare l1 l2 = 0)

let lint_cmd ?(requested = `Commuting) ?(inferred = `Commuting) cmd =
  Lint.lint_command ~requested ~inferred ~eq_a:Int.equal ~eq_b:Int.equal cmd

let lint_ops ?(requested = `Commuting) ?(inferred = `Commuting) ops =
  Lint.lint_program ~requested ~inferred ~eq_a:Int.equal ~eq_b:Int.equal ops

let lint_puts ?(requested = `Commuting) ?(inferred = `Commuting) ops =
  Lint.lint_puts ~requested ~inferred ~eq_a:Int.equal ~eq_b:Int.equal ops

let has rule ds = List.exists (fun d -> d.Lint.rule = rule) ds

let requires_of rule ds =
  List.filter_map
    (fun d -> if d.Lint.rule = rule then Some d.Lint.requires else None)
    ds

let suite =
  [
    (* ---------------------- (GS) dead sets ----------------------- *)
    test "dead-set fires on a re-set of the known value" `Quick (fun () ->
        let ds = lint_cmd Command.(Seq (Set_a 3, Set_a 3)) in
        check Alcotest.bool "fires" true (has (Lint.Dead_set Lint.A) ds);
        check (Alcotest.list level) "requires only set-bx" [ `Set_bx ]
          (requires_of (Lint.Dead_set Lint.A) ds);
        let ds = lint_cmd Command.(Seq (Set_b 2, Set_b 2)) in
        check Alcotest.bool "b side too" true (has (Lint.Dead_set Lint.B) ds));
    test "dead-set is silent once the value changes" `Quick (fun () ->
        let ds = lint_cmd Command.(Seq (Set_a 3, Set_a 4)) in
        check Alcotest.bool "silent" false (has (Lint.Dead_set Lint.A) ds));
    test "dead-set across an opposite-side write requires commutation" `Quick
      (fun () ->
        let ds = lint_cmd Command.(Seq (Set_a 3, Seq (Set_b 4, Set_a 3))) in
        check (Alcotest.list level) "requires commuting" [ `Commuting ]
          (requires_of (Lint.Dead_set Lint.A) ds);
        let ds = lint_cmd Command.(Seq (Set_a 3, Seq (Set_b 4, Set_a 5))) in
        check Alcotest.bool "silent once the value changes" false
          (has (Lint.Dead_set Lint.A) ds));
    (* --------------------- (SG) foldable reads ------------------- *)
    test "foldable-read fires on reads of a known value" `Quick (fun () ->
        let ds =
          lint_cmd Command.(Seq (Set_a 4, Modify_a (fun x -> x + 1)))
        in
        check (Alcotest.list level) "modify folds at set-bx" [ `Set_bx ]
          (requires_of (Lint.Foldable_read Lint.A) ds);
        let ds =
          lint_cmd
            Command.(Seq (Set_a 4, If_a ((fun x -> x > 0), Skip, Skip)))
        in
        check Alcotest.bool "guard folds" true
          (has (Lint.Foldable_read Lint.A) ds);
        let ds = lint_ops Program.[ Set_b 3; Get_b ] in
        check Alcotest.bool "get folds" true
          (has (Lint.Foldable_read Lint.B) ds));
    test "foldable-read is silent on an unknown value" `Quick (fun () ->
        let ds = lint_cmd Command.(Modify_a (fun x -> x + 1)) in
        check Alcotest.bool "modify of unknown" false
          (has (Lint.Foldable_read Lint.A) ds);
        let ds = lint_ops Program.[ Get_a ] in
        check Alcotest.bool "get of unknown" false
          (has (Lint.Foldable_read Lint.A) ds));
    test "foldable-read across an opposite-side write requires commutation"
      `Quick (fun () ->
        let ds =
          lint_cmd
            Command.(Seq (Set_a 4, Seq (Set_b 9, Modify_a (fun x -> x + 1))))
        in
        check (Alcotest.list level) "requires commuting" [ `Commuting ]
          (requires_of (Lint.Foldable_read Lint.A) ds);
        let ds =
          lint_cmd Command.(Seq (Set_a 4, Modify_a (fun x -> x + 1)))
        in
        check (Alcotest.list level) "repaired: no opposite write in between"
          [ `Set_bx ]
          (requires_of (Lint.Foldable_read Lint.A) ds));
    (* ---------------------- (SS) collapses ----------------------- *)
    test "collapsible-set fires on an unread overwritten set" `Quick
      (fun () ->
        let ds = lint_cmd Command.(Seq (Set_a 1, Set_a 2)) in
        check (Alcotest.list level) "requires overwriteability"
          [ `Overwriteable ]
          (requires_of (Lint.Collapsible_set Lint.A) ds);
        (match ds with
        | d :: _ -> check Alcotest.int "flags the first set" 0 d.Lint.at
        | [] -> Alcotest.fail "no diagnostics");
        let ds = lint_ops Program.[ Set_a 1; Set_a 2 ] in
        check Alcotest.bool "op language too" true
          (has (Lint.Collapsible_set Lint.A) ds));
    test "collapsible-set is silent when the first set is read" `Quick
      (fun () ->
        let ds = lint_ops Program.[ Set_a 1; Get_a; Set_a 2 ] in
        check Alcotest.bool "read makes the set live" false
          (has (Lint.Collapsible_set Lint.A) ds));
    test "collapsible-set is silent across an unfolded branch" `Quick
      (fun () ->
        (* the optimizer never collapses across a branch it cannot fold,
           so neither does the lint *)
        let p x = x > 0 in
        let ds =
          lint_cmd Command.(Seq (If_a (p, Set_a 1, Set_a 1), Set_a 2)) in
        check Alcotest.bool "no collapse claimed" false
          (has (Lint.Collapsible_set Lint.A) ds));
    test "reorder-collapse fires across opposite-side writes" `Quick
      (fun () ->
        let ds = lint_ops Program.[ Set_a 1; Set_b 5; Set_a 2 ] in
        check (Alcotest.list level) "requires commutation" [ `Commuting ]
          (requires_of (Lint.Reorder_collapse Lint.A) ds);
        let ds = lint_ops Program.[ Set_a 1; Get_a; Set_b 5; Set_a 2 ] in
        check Alcotest.bool "silent when the first set is read" false
          (has (Lint.Reorder_collapse Lint.A) ds));
    (* ---------------------- severity policy ---------------------- *)
    test "severity: fires+unsound=error, fires+sound=info, else warn/info"
      `Quick (fun () ->
        let sev = Lint.decide_severity in
        check Alcotest.string "miscompile" "error"
          (Lint.severity_name
             (sev ~requested:`Commuting ~inferred:`Overwriteable
                ~requires:`Commuting));
        check Alcotest.string "applied soundly" "info"
          (Lint.severity_name
             (sev ~requested:`Commuting ~inferred:`Commuting
                ~requires:`Commuting));
        check Alcotest.string "left on the table" "warning"
          (Lint.severity_name
             (sev ~requested:`Set_bx ~inferred:`Overwriteable
                ~requires:`Overwriteable));
        check Alcotest.string "not justifiable, not firing" "info"
          (Lint.severity_name
             (sev ~requested:`Overwriteable ~inferred:`Overwriteable
                ~requires:`Commuting)));
    test "level-mismatch is the global precondition" `Quick (fun () ->
        (match
           Lint.check_level ~requested:`Commuting ~inferred:`Set_bx
             ~subject:"s"
         with
        | Some d ->
            check Alcotest.bool "is an error" true (Lint.is_error d);
            check Alcotest.bool "is the mismatch rule" true
              (d.Lint.rule = Lint.Level_mismatch)
        | None -> Alcotest.fail "mismatch not reported");
        check Alcotest.bool "requested <= inferred is fine" true
          (Lint.check_level ~requested:`Overwriteable ~inferred:`Commuting
             ~subject:"s"
          = None));
    (* --------------- the known miscompilation, statically --------- *)
    test "the optimize_commuting miscompilation is rejected statically"
      `Quick (fun () ->
        let ds = Catalog.known_miscompilation () in
        check Alcotest.bool "has errors" true (Lint.has_errors ds);
        check Alcotest.bool "points at a commutation-requiring rewrite" true
          (List.exists
             (fun d ->
               Lint.is_error d
               && Law_infer.compare d.Lint.requires `Commuting = 0
               && d.Lint.rule <> Lint.Level_mismatch)
             ds);
        (* ...and it really is the dynamic counterexample: the commuting
           optimizer changes the meaning of this exact program on
           parity, while the inferred (overwriteable) level preserves
           it. *)
        let cmd = Command.(Seq (Set_a 3, Seq (Set_b 4, Set_a 3))) in
        let bx = Concrete.of_algebraic Fixtures.parity_undoable in
        let s0 = (0, 0) in
        let opt_comm =
          Command.optimize_unsafe_commuting ~eq_a:Int.equal ~eq_b:Int.equal
        in
        let opt_ss =
          Command.optimize_overwriteable ~eq_a:Int.equal ~eq_b:Int.equal
        in
        check Alcotest.bool "commuting level miscompiles dynamically" false
          (Command.exec bx (opt_comm cmd) s0 = Command.exec bx cmd s0);
        check Alcotest.bool "inferred level is dynamically sound" true
          (Command.exec bx (opt_ss cmd) s0 = Command.exec bx cmd s0);
        let at_inferred =
          lint_cmd ~requested:`Overwriteable ~inferred:`Overwriteable cmd
        in
        check Alcotest.bool "no errors at the inferred level" false
          (Lint.has_errors at_inferred));
    test "the same program on the commuting pair bx is accepted" `Quick
      (fun () ->
        let cmd = Command.(Seq (Set_a 3, Seq (Set_b 4, Set_a 3))) in
        let ds = lint_cmd ~requested:`Commuting ~inferred:`Commuting cmd in
        check Alcotest.bool "no errors" false (Lint.has_errors ds);
        check Alcotest.bool "still reports the (sound) rewrites" true
          (has (Lint.Dead_set Lint.A) ds));
    (* ------------------- put-presentation lint -------------------- *)
    test "dead-put fires on re-putting the current view" `Quick (fun () ->
        let ds = lint_puts [ Lint.Put_ab 3; Lint.Put_ab 3 ] in
        check Alcotest.bool "fires" true (has (Lint.Dead_put Lint.A) ds);
        check (Alcotest.list level) "requires only set-bx" [ `Set_bx ]
          (requires_of (Lint.Dead_put Lint.A) ds);
        let ds = lint_puts [ Lint.Put_ba 2; Lint.Put_ba 2 ] in
        check Alcotest.bool "b direction too" true
          (has (Lint.Dead_put Lint.B) ds));
    test "dead-put across an opposite put requires commutation" `Quick
      (fun () ->
        let ds = lint_puts [ Lint.Put_ab 3; Lint.Put_ba 2; Lint.Put_ab 3 ] in
        check (Alcotest.list level) "commuting-level dead put" [ `Commuting ]
          (requires_of (Lint.Dead_put Lint.A) ds));
    test "a get after a put re-reads the returned view ((PG))" `Quick
      (fun () ->
        let ds = lint_puts [ Lint.Put_ab 3; Lint.Pget_b ] in
        check (Alcotest.list level) "foldable at set-bx" [ `Set_bx ]
          (requires_of (Lint.Foldable_read Lint.B) ds);
        let ds = lint_puts [ Lint.Put_ba 2; Lint.Pget_a ] in
        check (Alcotest.list level) "other direction" [ `Set_bx ]
          (requires_of (Lint.Foldable_read Lint.A) ds));
    test "unobserved same-direction puts collapse ((PP))" `Quick (fun () ->
        let ds = lint_puts [ Lint.Put_ab 3; Lint.Put_ab 4 ] in
        check (Alcotest.list level) "overwriteable collapse"
          [ `Overwriteable ]
          (requires_of (Lint.Collapsible_put Lint.A) ds));
    test "an intervening read saves the first put" `Quick (fun () ->
        let ds = lint_puts [ Lint.Put_ab 3; Lint.Pget_b; Lint.Put_ab 4 ] in
        check Alcotest.bool "no collapse" false
          (has (Lint.Collapsible_put Lint.A) ds));
    test "a collapse across opposite puts requires commutation" `Quick
      (fun () ->
        let ds = lint_puts [ Lint.Put_ab 3; Lint.Put_ba 2; Lint.Put_ab 4 ] in
        check Alcotest.bool "reorder-collapse, not (PP)" true
          (has (Lint.Reorder_collapse Lint.A) ds
          && not (has (Lint.Collapsible_put Lint.A) ds));
        check (Alcotest.list level) "commuting required" [ `Commuting ]
          (requires_of (Lint.Reorder_collapse Lint.A) ds));
    test "put-lint severity follows the level lattice" `Quick (fun () ->
        (* (PP) on a set-bx-only pedigree: requested high = error,
           requested low = the rewrite is off, info only *)
        let prog = [ Lint.Put_ab 3; Lint.Put_ab 4 ] in
        check Alcotest.bool "fires unsound: error" true
          (Lint.has_errors
             (lint_puts ~requested:`Overwriteable ~inferred:`Set_bx prog));
        check Alcotest.bool "off at set-bx: no error" false
          (Lint.has_errors
             (lint_puts ~requested:`Set_bx ~inferred:`Set_bx prog)));
    test "puts_have_sets distinguishes readers from writers" `Quick
      (fun () ->
        check Alcotest.bool "gets only" false
          (Lint.puts_have_sets [ Lint.Pget_a; Lint.Pget_b ]);
        check Alcotest.bool "a put writes" true
          (Lint.puts_have_sets [ Lint.Pget_a; Lint.Put_ba 2 ]));
    (* -------------------- undo-law cancellations ------------------ *)
    test "undo-cancel fires when a set restores the pre-value" `Quick
      (fun () ->
        let ds = lint_cmd Command.(Seq (Set_a 1, Seq (Set_a 2, Set_a 1))) in
        check (Alcotest.list level) "requires only the undo law"
          [ `Undoable ]
          (requires_of (Lint.Undo_cancel Lint.A) ds);
        (match
           List.find_opt (fun d -> d.Lint.rule = Lint.Undo_cancel Lint.A) ds
         with
        | Some d -> check Alcotest.int "flags the undone set" 1 d.Lint.at
        | None -> Alcotest.fail "undo-cancel missing");
        let ds = lint_ops Program.[ Set_b 1; Set_b 2; Set_b 1 ] in
        check Alcotest.bool "b side, op language" true
          (has (Lint.Undo_cancel Lint.B) ds));
    test "undo-cancel is silent when the restore misses" `Quick (fun () ->
        let ds = lint_cmd Command.(Seq (Set_a 1, Seq (Set_a 2, Set_a 3))) in
        check Alcotest.bool "different value: plain (SS) only" false
          (has (Lint.Undo_cancel Lint.A) ds);
        check Alcotest.bool "(SS) still reported" true
          (has (Lint.Collapsible_set Lint.A) ds);
        (* no knowledge of the pre-value: nothing to cancel against *)
        let ds = lint_cmd Command.(Seq (Set_a 2, Set_a 1)) in
        check Alcotest.bool "unknown pre-value" false
          (has (Lint.Undo_cancel Lint.A) ds));
    test "undo-cancel is silent when the overwritten set was read" `Quick
      (fun () ->
        let ds = lint_ops Program.[ Set_a 1; Set_a 2; Get_a; Set_a 1 ] in
        check Alcotest.bool "read makes the set live" false
          (has (Lint.Undo_cancel Lint.A) ds));
    test "an undo across an opposite-side write needs commutation" `Quick
      (fun () ->
        let ds = lint_ops Program.[ Set_a 1; Set_a 2; Set_b 5; Set_a 1 ] in
        check Alcotest.bool "reorder-collapse, not undo-cancel" true
          (has (Lint.Reorder_collapse Lint.A) ds
          && not (has (Lint.Undo_cancel Lint.A) ds)));
    test "undo-cancel matches the optimizer's undo peephole dynamically"
      `Quick (fun () ->
        let cmd = Command.(Seq (Set_a 1, Seq (Set_a 2, Set_a 1))) in
        let opt =
          Command.optimize_undoable ~eq_a:Int.equal ~eq_b:Int.equal cmd
        in
        let bx = Concrete.of_algebraic Fixtures.parity_undoable in
        List.iter
          (fun s0 ->
            check Alcotest.bool "undoable bx: peephole is sound" true
              (Command.exec bx opt s0 = Command.exec bx cmd s0))
          [ (0, 0); (1, 1); (4, 2) ];
        (* ...and at the requested `Undoable level against a set-bx-only
           pedigree the same cancellation is an error: the sticky parity
           restorer genuinely violates the undo law *)
        let ds = lint_cmd ~requested:`Undoable ~inferred:`Set_bx cmd in
        check Alcotest.bool "firing above the inferred level is an error"
          true
          (List.exists
             (fun d ->
               Lint.is_error d && d.Lint.rule = Lint.Undo_cancel Lint.A)
             ds);
        let sticky = Concrete.of_algebraic Fixtures.parity_sticky in
        check Alcotest.bool "and it is a real dynamic miscompilation" true
          (List.exists
             (fun s0 ->
               Command.exec sticky
                 (Command.optimize_undoable ~eq_a:Int.equal ~eq_b:Int.equal
                    cmd)
                 s0
               <> Command.exec sticky cmd s0)
             [ (0, 0); (1, 1); (4, 2) ]));
    (* ------------------------- plan lint -------------------------- *)
    test "plan: an implied where folds, a contradicted one is dead" `Quick
      (fun () ->
        let module Rq = Esm_relational.Query in
        let module Rp = Esm_relational.Pred in
        let schema = Esm_relational.Workload.employees_schema in
        let lint_plan = Lint.lint_plan ~schema ~key:[ "id" ] in
        let le c n = Rp.(col c <= int n) in
        (* id <= 4 then id <= 6: the outer filter is implied *)
        let ds =
          lint_plan (Rq.Where (le "id" 6, Rq.Where (le "id" 4, Rq.Base "t")))
        in
        check Alcotest.bool "implied where folds" true
          (has Lint.Foldable_where ds);
        check Alcotest.bool "no dead where" false (has Lint.Dead_where ds);
        (* id <= 2 then id = 5: contradiction *)
        let ds =
          lint_plan
            (Rq.Where
               ( Rp.(col "id" = int 5),
                 Rq.Where (le "id" 2, Rq.Base "t") ))
        in
        check Alcotest.bool "contradicted where is dead" true
          (has Lint.Dead_where ds);
        (* contradictory conjuncts inside one clause *)
        let ds =
          lint_plan
            (Rq.Where
               ( Rp.(col "id" = int 1 && col "id" = int 2),
                 Rq.Base "t" ))
        in
        check Alcotest.bool "intra-clause contradiction" true
          (has Lint.Dead_where ds);
        (* a genuinely undecided filter is silent *)
        let ds = lint_plan (Rq.Where (le "id" 4, Rq.Base "t")) in
        check Alcotest.bool "undecided filter is silent" false
          (has Lint.Dead_where ds || has Lint.Foldable_where ds));
    test "plan: trivial stages fold, schema violations are errors" `Quick
      (fun () ->
        let module Rq = Esm_relational.Query in
        let schema = Esm_relational.Workload.employees_schema in
        let lint_plan = Lint.lint_plan ~schema ~key:[ "id" ] in
        let all_cols = Esm_relational.Schema.column_names schema in
        let ds = lint_plan (Rq.Project (all_cols, Rq.Base "t")) in
        check Alcotest.bool "select of every column folds" true
          (has Lint.Foldable_stage ds);
        let ds = lint_plan (Rq.Rename ([ ("id", "id") ], Rq.Base "t")) in
        check Alcotest.bool "identity rename folds" true
          (has Lint.Foldable_stage ds);
        let ds =
          lint_plan
            (Rq.Where (Esm_relational.Pred.(col "wages" = int 1), Rq.Base "t"))
        in
        check Alcotest.bool "unknown column is an error" true
          (has Lint.Unknown_column ds && Lint.has_errors ds);
        let ds = lint_plan (Rq.Project ([ "name"; "dept" ], Rq.Base "t")) in
        check Alcotest.bool "dropping the key is an error" true
          (has Lint.Dropped_key ds && Lint.has_errors ds);
        (* a key-keeping projection of a strict subset is clean *)
        let ds = lint_plan (Rq.Project ([ "id"; "name" ], Rq.Base "t")) in
        check Alcotest.bool "key-keeping projection is clean" true (ds = []));
    test "plan: renames carry facts and keys; joins are flagged" `Quick
      (fun () ->
        let module Rq = Esm_relational.Query in
        let module Rp = Esm_relational.Pred in
        let schema = Esm_relational.Workload.employees_schema in
        let lint_plan = Lint.lint_plan ~schema ~key:[ "id" ] in
        (* the fact about id survives the rename to eid *)
        let ds =
          lint_plan
            (Rq.Where
               ( Rp.(col "eid" <= int 6),
                 Rq.Rename
                   ( [ ("id", "eid") ],
                     Rq.Where (Rp.(col "id" <= int 4), Rq.Base "t") ) ))
        in
        check Alcotest.bool "fact follows the rename" true
          (has Lint.Foldable_where ds);
        (* dropping the renamed key is still caught *)
        let ds =
          lint_plan
            (Rq.Project
               ([ "name" ], Rq.Rename ([ ("id", "eid") ], Rq.Base "t")))
        in
        check Alcotest.bool "renamed key still tracked" true
          (has Lint.Dropped_key ds);
        let ds = lint_plan (Rq.Join (Rq.Base "l", Rq.Base "r")) in
        check (Alcotest.list level) "join flagged at the undo level"
          [ `Undoable ]
          (requires_of Lint.Unproven_join ds);
        check Alcotest.bool "but only as info" false (Lint.has_errors ds));
    test "plan: every compiled catalog plan lints without errors" `Quick
      (fun () ->
        List.iter
          (fun a ->
            check Alcotest.bool
              (a.Catalog.label ^ ": plan diagnostics are error-free")
              false
              (Lint.has_errors a.Catalog.plan_diagnostics))
          (Catalog.audit_all ()));
  ]
  @ Helpers.q
      [
        (* The teeth of the analysis: if the lint reports NO errors for a
           command at the `Commuting level against an `Overwriteable
           pedigree, then running the commuting optimizer on that
           command is in fact semantics-preserving on the entangled
           parity bx.  (The converse need not hold — the lint is
           conservative.) *)
        QCheck.Test.make ~count:800
          ~name:"lint-clean at `Commuting implies opt_commuting is safe"
          (QCheck.pair Test_command.gen_cmd Fixtures.gen_parity_consistent)
          (fun (c, s) ->
            let ds =
              lint_cmd ~requested:`Commuting ~inferred:`Overwriteable c
            in
            Lint.has_errors ds
            ||
            let bx = Concrete.of_algebraic Fixtures.parity_undoable in
            Command.exec bx
              (Command.optimize_unsafe_commuting ~eq_a:Int.equal
                 ~eq_b:Int.equal c)
              s
            = Command.exec bx c s);
        (* The same teeth at the new intermediate lattice point: if the
           lint reports NO errors for a command at `Undoable against a
           set-bx-only pedigree, then the undo-cancelling optimizer is
           semantics-preserving even on the sticky parity bx — whose
           restorer genuinely violates the undo law. *)
        QCheck.Test.make ~count:800
          ~name:"lint-clean at `Undoable implies optimize_undoable is safe"
          (QCheck.pair Test_command.gen_cmd Fixtures.gen_parity_consistent)
          (fun (c, s) ->
            let ds = lint_cmd ~requested:`Undoable ~inferred:`Set_bx c in
            Lint.has_errors ds
            ||
            let bx = Concrete.of_algebraic Fixtures.parity_sticky in
            Command.exec bx
              (Command.optimize_at `Undoable ~eq_a:Int.equal ~eq_b:Int.equal
                 c)
              s
            = Command.exec bx c s);
        (* The set front-ends agree: a set-only op list lints exactly as
           the command sequencing the same sets — same rules, levels,
           positions and wording. *)
        QCheck.Test.make ~count:500
          ~name:"set-only scripts: lint_program = lint_command of the Seq"
          QCheck.(
            pair
              (list_of_size Gen.(0 -- 8) (pair bool (int_bound 3)))
              (pair (int_bound 3) (int_bound 3)))
          (fun (sets, (r, i)) ->
            let levels = [| `Set_bx; `Undoable; `Overwriteable; `Commuting |] in
            let requested = levels.(r) and inferred = levels.(i) in
            let ops =
              List.map
                (fun (on_a, v) ->
                  if on_a then Program.Set_a v else Program.Set_b v)
                sets
            in
            let cmd =
              List.fold_right
                (fun (on_a, v) rest ->
                  Command.Seq
                    ((if on_a then Command.Set_a v else Command.Set_b v), rest))
                sets Command.Skip
            in
            lint_ops ~requested ~inferred ops
            = lint_cmd ~requested ~inferred cmd);
        (* Running the optimizer at (or below) the inferred level never
           produces an error diagnostic. *)
        QCheck.Test.make ~count:400
          ~name:"requested <= inferred yields no errors"
          Test_command.gen_cmd
          (fun c ->
            (not
               (Lint.has_errors
                  (lint_cmd ~requested:`Overwriteable
                     ~inferred:`Overwriteable c)))
            && not
                 (Lint.has_errors
                    (lint_cmd ~requested:`Set_bx ~inferred:`Set_bx c)));
      ]
