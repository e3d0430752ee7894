(** Law-level lint over the command, op and put-script languages.

    Reports every law-driven rewrite opportunity with the minimum law
    level that justifies it, and grades each against the level the
    optimizer is [requested] to run at and the level [inferred] from the
    target bx's pedigree.  A rewrite that fires at the requested level
    but is above the inferred level is an {e error}: the optimizer will
    miscompile that exact operation. *)

open Esm_core

type side = A | B

type rule =
  | Dead_set of side  (** (GS): setting a statically-known current value *)
  | Foldable_read of side  (** (SG): a read whose value is known *)
  | Collapsible_set of side
      (** (SS): an unread set overwritten by a later same-side set *)
  | Undo_cancel of side
      (** undo law: an unread set overwritten by a same-side set
          restoring the value current before it — the pair cancels at
          [`Undoable], one lattice point below the (SS) collapse *)
  | Reorder_collapse of side
      (** same-side collapse across opposite-side writes — needs
          commutation *)
  | Dead_put of side
      (** put presentation, (GP) analogue of (GS): putting the current
          view is a state no-op *)
  | Collapsible_put of side
      (** put presentation, (PP) analogue of (SS): an unobserved put
          overwritten by a later same-direction put *)
  | Level_mismatch
      (** requested optimizer level exceeds the inferred law level *)
  | Unprotected_fallible
      (** sets through a fallible construction with no [atomic] wrapper *)
  | Dead_where
      (** plan: a [where] stage statically false under accumulated facts *)
  | Foldable_where
      (** plan: a [where] stage implied by accumulated facts *)
  | Foldable_stage
      (** plan: a structurally trivial stage (project of every column,
          identity rename) *)
  | Unknown_column  (** plan: a stage references an absent column *)
  | Dropped_key
      (** plan: a project drops a key column — not updatable *)
  | Unproven_join
      (** plan: a join with no functional-dependency evidence *)

val rule_name : rule -> string

type severity = Info | Warning | Error

val severity_name : severity -> string

type diagnostic = {
  rule : rule;
  severity : severity;
  requires : Law_infer.level;
  at : int;  (** pre-order index of the flagged operation; -1 = global *)
  message : string;
}

val is_error : diagnostic -> bool
val has_errors : diagnostic list -> bool
val pp_diagnostic : Format.formatter -> diagnostic -> unit

val decide_severity :
  requested:Law_infer.level ->
  inferred:Law_infer.level ->
  requires:Law_infer.level ->
  severity
(** Error iff the rewrite fires (requires ≤ requested) but is unsound
    (requires > inferred); Info if it fires soundly; Warning if sound but
    not enabled at the requested level. *)

val check_level :
  requested:Law_infer.level ->
  inferred:Law_infer.level ->
  subject:string ->
  diagnostic option
(** The global precondition: [Some] error diagnostic iff the requested
    optimizer level strictly exceeds the inferred law level. *)

val check_atomicity :
  pedigree:Pedigree.t ->
  has_sets:bool ->
  subject:string ->
  diagnostic option
(** The robustness precondition: [Some] warning iff the pipeline writes
    state ([has_sets]) through a fallible construction
    ({!Law_infer.fallible}) that is not rollback-protected
    ({!Law_infer.rollback_protected}). *)

val command_has_sets : ('a, 'b) Command.t -> bool
(** Does the command write state ([Set_]/[Modify_]) in any branch? *)

val program_has_sets : ('a, 'b) Program.op list -> bool

val lint_command :
  requested:Law_infer.level ->
  inferred:Law_infer.level ->
  eq_a:('a -> 'a -> bool) ->
  eq_b:('b -> 'b -> bool) ->
  ('a, 'b) Command.t ->
  diagnostic list
(** Abstract interpretation of a command with the optimizer's knowledge
    domain run twice (entanglement-sound and commutation-assuming),
    reporting (GS)/(SG)/(SS)/reorder opportunities in pre-order. *)

val lint_program :
  requested:Law_infer.level ->
  inferred:Law_infer.level ->
  eq_a:('a -> 'a -> bool) ->
  eq_b:('b -> 'b -> bool) ->
  ('a, 'b) Program.op list ->
  diagnostic list
(** The same analysis over the first-order get/set op language. *)

(** {1 Put-presentation lint}

    The first-order script language of the paper's {e put} presentation:
    a put pushes one view and returns the propagated opposite view, so
    sync sessions ([Esm_sync.Session]) speak exactly this language. *)

type ('a, 'b) put_op =
  | Pget_a
  | Pget_b
  | Put_ab of 'a  (** push the A view; the updated B view is returned *)
  | Put_ba of 'b  (** push the B view; the updated A view is returned *)

val puts_have_sets : ('a, 'b) put_op list -> bool
(** Does the script write state (either put direction)? *)

val lint_puts :
  requested:Law_infer.level ->
  inferred:Law_infer.level ->
  eq_a:('a -> 'a -> bool) ->
  eq_b:('b -> 'b -> bool) ->
  ('a, 'b) put_op list ->
  diagnostic list
(** The abstract interpretation over put scripts: dead puts ((GP)),
    foldable gets after puts — including [get_a] after [put_ba], whose
    value the put {e returned} to the caller — ((PG)), (PP) collapses of
    unobserved same-direction puts, and commutation-requiring collapses
    across opposite-direction puts. *)

(** {1 Plan lint}

    Abstract interpretation over relational query plans
    ({!Esm_relational.Query.t}) with two domains: {e value intervals}
    (inclusive integer ranges per column, plus pinned literals) and
    {e predicate implication} (three-valued evaluation of each [where]
    against the facts the earlier stages accumulated).  A [where] is a
    plan-level [If_] guard: statically decided guards fold
    ([Foldable_where]) or kill the view ([Dead_where]); trivial stages
    fold ([Foldable_stage]); schema violations ([Unknown_column],
    [Dropped_key]) are errors; FD-less joins are flagged
    ([Unproven_join]).  Severities here are intrinsic to the rule — a
    plan has no requested/inferred optimizer levels. *)

val lint_plan :
  schema:Esm_relational.Schema.t ->
  key:string list ->
  Esm_relational.Query.t ->
  diagnostic list
(** [lint_plan ~schema ~key q] walks [q] in pipeline order ([at] indexes
    stages in evaluation order, base tables included) with [schema] and
    [key] describing the base table. *)

val json_escape : string -> string
val diagnostic_to_json : diagnostic -> string
val diagnostics_to_json : diagnostic list -> string
