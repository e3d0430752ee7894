(** Law-level lint: an abstract interpretation over the command language
    ({!Esm_core.Command.t}), the first-order op language
    ({!Esm_core.Program.op}) and put scripts that reports every
    law-driven rewrite opportunity together with the {e minimum law
    level that justifies it}, and checks those requirements against the
    level statically inferred from the target bx's pedigree
    ({!Law_infer}).

    The paper states each law once and instantiates it per side, and so
    does the interpreter: its state is a pair of per-side [half]s, and
    one write step, one read step and the (GS)/(GP) set and put steps
    are each written for "side [s], own half, opposite half".  Each half
    runs the optimizer's knowledge domain (the statically-known current
    value, as in {!Esm_core.Command.optimize_at}) twice in lockstep:

    - [plain] propagates knowledge soundly for {e every} lawful set-bx —
      a set invalidates the opposite view (entanglement);
    - [comm] retains the opposite view across sets, which is valid only
      under §3.4 commutation.

    A rewrite enabled by [plain] requires only [`Set_bx]; one enabled
    only by [comm] requires [`Commuting].  Same-side set collapses are
    tracked syntactically: an unread set overwritten by a later
    same-side set requires (SS) ([`Overwriteable]) if nothing wrote the
    opposite side in between, and full commutation ([`Commuting]) if
    something did — collapsing then reorders the writes.

    Severity is decided against the two levels in play: [requested], the
    level the optimizer will be run at, and [inferred], the level the
    pedigree supports.  A rewrite that {e fires} (requires ≤ requested)
    but is {e unsound} (requires > inferred) is an [Error] — the
    optimizer at that level will miscompile this exact spot.  A sound
    rewrite that fires is [Info]; a sound one the requested level leaves
    on the table is a [Warning] (raise the level); an unjustifiable
    opportunity that does not fire is [Info]. *)

open Esm_core

type side = A | B

let side_name = function A -> "a" | B -> "b"

type rule =
  | Dead_set of side  (** (GS): setting a statically-known current value *)
  | Foldable_read of side
      (** (SG): a read (modify input, branch guard, get) whose value is
          statically known *)
  | Collapsible_set of side
      (** (SS): an unread set overwritten by a later same-side set *)
  | Undo_cancel of side
      (** undo law: an unread set overwritten by a same-side set
          restoring the value current {e before} it — the pair cancels
          to a no-op at [`Undoable], one point below the (SS) collapse *)
  | Reorder_collapse of side
      (** a same-side collapse across opposite-side writes — requires
          commutation to reorder first *)
  | Dead_put of side
      (** put presentation, (GP) analogue of (GS): putting the
          statically-known current view is a state no-op *)
  | Collapsible_put of side
      (** put presentation, (PP) analogue of (SS): an unobserved put
          overwritten by a later same-direction put *)
  | Level_mismatch
      (** the requested optimizer level exceeds the inferred law level *)
  | Unprotected_fallible
      (** a pipeline performing sets through a fallible construction with
          no [atomic] wrapper: a mid-set failure can tear the entangled
          state *)
  | Dead_where
      (** plan: a [where] stage statically false under the facts
          accumulated from earlier stages — the view is provably empty *)
  | Foldable_where
      (** plan: a [where] stage implied by the facts accumulated from
          earlier stages — the filter is the identity and folds away *)
  | Foldable_stage
      (** plan: a structurally trivial stage (project of every column,
          identity rename) that folds away *)
  | Unknown_column
      (** plan: a stage references a column absent from the schema at
          that point — compilation will fail *)
  | Dropped_key
      (** plan: a project drops a key column, so the pipeline is not
          updatable *)
  | Unproven_join
      (** plan: a join with no functional-dependency evidence — compiles
          to set-bx only (see the join lemma in {!Law_infer}) *)

let rule_name = function
  | Dead_set s -> "dead-set-" ^ side_name s
  | Foldable_read s -> "foldable-read-" ^ side_name s
  | Collapsible_set s -> "collapsible-set-" ^ side_name s
  | Undo_cancel s -> "undo-cancel-" ^ side_name s
  | Reorder_collapse s -> "reorder-collapse-" ^ side_name s
  | Dead_put s -> "dead-put-" ^ side_name s
  | Collapsible_put s -> "collapsible-put-" ^ side_name s
  | Level_mismatch -> "level-mismatch"
  | Unprotected_fallible -> "unprotected-fallible"
  | Dead_where -> "dead-where"
  | Foldable_where -> "foldable-where"
  | Foldable_stage -> "foldable-stage"
  | Unknown_column -> "unknown-column"
  | Dropped_key -> "dropped-key"
  | Unproven_join -> "unproven-join"

type severity = Info | Warning | Error

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

type diagnostic = {
  rule : rule;
  severity : severity;
  requires : Law_infer.level;  (** minimum law level justifying the rewrite *)
  at : int;  (** pre-order index of the flagged operation *)
  message : string;
}

let is_error (d : diagnostic) = d.severity = Error
let has_errors (ds : diagnostic list) = List.exists is_error ds

let pp_diagnostic fmt (d : diagnostic) =
  Format.fprintf fmt "%s: [%s] op %d: %s (requires %s)"
    (severity_name d.severity) (rule_name d.rule) d.at d.message
    (Law_infer.to_string d.requires)

(* ------------------------------------------------------------------ *)
(* Severity policy                                                     *)
(* ------------------------------------------------------------------ *)

let decide_severity ~(requested : Law_infer.level)
    ~(inferred : Law_infer.level) ~(requires : Law_infer.level) : severity =
  let fires = Law_infer.leq requires requested in
  let sound = Law_infer.leq requires inferred in
  match (fires, sound) with
  | true, false -> Error (* the optimizer WILL apply an unsound rewrite *)
  | true, true -> Info (* will be applied, soundly *)
  | false, true -> Warning (* sound but left on the table *)
  | false, false -> Info (* would need laws the bx lacks; nothing fires *)

(** The top-level precondition: asking for an optimizer level above what
    the pedigree supports is an error even before any specific rewrite is
    found. *)
let check_level ~(requested : Law_infer.level)
    ~(inferred : Law_infer.level) ~(subject : string) : diagnostic option =
  if Law_infer.leq requested inferred then None
  else
    Some
      {
        rule = Level_mismatch;
        severity = Error;
        requires = requested;
        at = -1;
        message =
          Printf.sprintf
            "%s: optimizer level %s exceeds the level %s inferred from the \
             pedigree"
            subject
            (Law_infer.to_string requested)
            (Law_infer.to_string inferred);
      }

(** The robustness precondition: a pipeline that performs sets through a
    fallible construction ({!Law_infer.fallible}) without rollback
    protection ({!Law_infer.rollback_protected}) risks a torn entangled
    state on a mid-set failure.  Warning, not error — the pipeline is
    law-correct on its fault-free domain; it is the partial domain that
    is unprotected. *)
let check_atomicity ~(pedigree : Pedigree.t) ~(has_sets : bool)
    ~(subject : string) : diagnostic option =
  if
    has_sets
    && Law_infer.fallible pedigree
    && not (Law_infer.rollback_protected pedigree)
  then
    Some
      {
        rule = Unprotected_fallible;
        severity = Warning;
        requires = `Set_bx;
        at = -1;
        message =
          Printf.sprintf
            "%s: pipeline performs sets through fallible construction %s \
             with no atomic wrapper; a mid-set failure can tear the \
             entangled state (wrap with Atomic.harden_packed)"
            subject
            (Pedigree.to_string pedigree);
      }
  else None

(** Does a command perform any state write ([Set_]/[Modify_], in any
    branch)?  Atomicity only matters for pipelines that write. *)
let rec command_has_sets : type a b. (a, b) Command.t -> bool = function
  | Command.Skip -> false
  | Command.Seq (c1, c2) -> command_has_sets c1 || command_has_sets c2
  | Command.Set_a _ | Command.Set_b _ -> true
  | Command.Modify_a _ | Command.Modify_b _ -> true
  | Command.If_a (_, c1, c2) | Command.If_b (_, c1, c2) ->
      command_has_sets c1 || command_has_sets c2

let program_has_sets (ops : ('a, 'b) Program.op list) : bool =
  List.exists
    (function Program.Set_a _ | Program.Set_b _ -> true | _ -> false)
    ops

(* ------------------------------------------------------------------ *)
(* The abstract domain                                                 *)
(* ------------------------------------------------------------------ *)

(** A pending (not yet read) write: its op index, whether the opposite
    side has been written since, and the value that was statically known
    {e before} it (when a later same-side set restores exactly that
    value, the pair cancels under the undo law — one lattice point below
    the (SS) collapse; a put records [None] and never cancels). *)
type 'v pending = { at : int; crossed : bool; prev : 'v option }

(** What the interpreter knows about one side's view; the state is a
    pair of halves, one per side. *)
type 'v half = {
  plain : 'v option;  (** the current value, sound for any lawful set-bx *)
  comm : 'v option;  (** the current value, valid only under commutation *)
  pend : 'v pending option;  (** this side's unread write *)
  ret : bool;
      (** the current value was handed back to the caller by the most
          recent put, so a get re-reads a value the caller holds *)
}

let top = { plain = None; comm = None; pend = None; ret = false }
let forget x = { x with pend = None }
let swap (x, y) = (y, x)
let other = function A -> B | B -> A
let put_name s = "put_" ^ side_name s ^ side_name (other s)
let view_name s = String.uppercase_ascii (side_name s)

(* Every step below is written once, for side [s] with its own half [x]
   and the opposite half [y], and returns the pair in that order;
   callers pass [(a, b)] or [(b, a)].  [emit] records one finding. *)
type emit = rule -> Law_infer.level -> int -> string -> unit

(** How a script language words a write and its collapse: [sets] for
    commands and op lists, [puts] for put scripts. *)
type lang = {
  name : side -> string;
  collapse : side -> rule;
  unread : string;  (** why an overwritten write collapses *)
  across : string;  (** why collapsing it first needs commutation *)
}

let sets =
  {
    name = (fun s -> "set_" ^ side_name s);
    collapse = (fun s -> Collapsible_set s);
    unread = " before being read; (SS) collapses them";
    across = ", but the opposite side was written in between";
  }

let puts =
  {
    name = put_name;
    collapse = (fun s -> Collapsible_put s);
    unread = " before either view is read; (PP) collapses them";
    across = " across opposite-direction puts";
  }

(** Entanglement: a write to one side leaves the other side's value
    known only under commutation, and crosses its pending write. *)
let entangle y =
  {
    y with
    plain = None;
    pend = Option.map (fun p -> { p with crossed = true }) y.pend;
    ret = false;
  }

(** The write step: [v] overwrites side [s] at op [i].  Reports the
    pending write it overwrites — cancelled by the undo law, collapsed by
    (SS)/(PP), or collapsible only after reordering across opposite-side
    writes — then applies entanglement.  [prev] is what a later write
    may undo this one to. *)
let write (emit : emit) l s eq i v ~prev x y =
  let op = l.name s in
  (match x.pend with
  | Some { at; crossed = false; prev = Some v0 } when eq v v0 ->
      emit (Undo_cancel s) `Undoable at
        (Printf.sprintf
           "%s at op %d is undone by the %s at op %d restoring the value \
            current before it; the undo law cancels the pair"
           op at op i)
  | Some { at; crossed = false; _ } ->
      emit (l.collapse s) `Overwriteable at
        (Printf.sprintf "%s at op %d is overwritten by the %s at op %d%s" op
           at op i l.unread)
  | Some { at; crossed = true; _ } ->
      emit (Reorder_collapse s) `Commuting at
        (Printf.sprintf
           "%s at op %d is overwritten by the %s at op %d%s; collapsing \
            requires commutation"
           op at op i l.across)
  | None -> ());
  ( {
      plain = Some v;
      comm = Some v;
      pend = Some { at = i; crossed = false; prev };
      ret = false;
    },
    entangle y )

(** The read step, (SG)/(PG): a read of [s] at op [i] folds at [`Set_bx]
    when its value is statically known or was just returned by a put,
    and needs commutation when known only across opposite-side writes. *)
let read (emit : emit) s i x ~known ~across =
  match (x.plain, x.comm) with
  | Some _, _ -> emit (Foldable_read s) `Set_bx i known
  | None, _ when x.ret ->
      emit (Foldable_read s) `Set_bx i
        (Printf.sprintf
           "get_%s re-reads the %s view the preceding %s returned; (PG) \
            folds it to the returned value"
           (side_name s) (view_name s)
           (put_name (other s)))
  | None, Some _ -> emit (Foldable_read s) `Commuting i across
  | None, None -> ()

(** (GS)/(GP): is [v] already the current value of [s]?  Reports the
    deletion at [`Set_bx] when it is, and at [`Commuting] when it only
    was before opposite-side writes. *)
let dead (emit : emit) rule eq i v x ~current ~before =
  match (x.plain, x.comm) with
  | Some v0, _ when eq v v0 ->
      emit rule `Set_bx i current;
      true
  | _, Some v0 when eq v v0 ->
      emit rule `Commuting i before;
      false
  | _ -> false

(** A set of [v] to [s]: deleted by (GS), else a write that a later set
    may undo to the value known before it. *)
let set emit s eq i v x y =
  let op = "set_" ^ side_name s in
  if
    dead emit (Dead_set s) eq i v x
      ~current:(op ^ " of the already-current value; (GS) deletes it")
      ~before:
        (op
       ^ " of a value current before the opposite-side set(s); deleting it \
          requires commutation")
  then (x, y)
  else write emit sets s eq i v ~prev:x.plain x y

(** A put of view [v] from [s]: (GP) replaces it by a get of the
    opposite view.  Either way the caller now holds the opposite view. *)
let put emit s eq i v x y =
  let op = put_name s in
  let x, y =
    if
      dead emit (Dead_put s) eq i v x
        ~current:
          (Printf.sprintf
             "%s of the already-current %s view is a state no-op; (GP) \
              replaces it with get_%s"
             op (view_name s)
             (side_name (other s)))
        ~before:
          (op
         ^ " of a view current before the opposite-direction put(s); \
            deleting it requires commutation")
    then (x, y)
    else write emit puts s eq i v ~prev:None x y
  in
  (x, { y with ret = true })

(** Run a front-end's walk with an [emit] that grades each finding
    against the two levels; findings come back in emission order. *)
let collect ~requested ~inferred (walk : emit -> unit) : diagnostic list =
  let diags = ref [] in
  walk (fun rule requires at message ->
      let severity = decide_severity ~requested ~inferred ~requires in
      diags := { rule; severity; requires; at; message } :: !diags);
  List.rev !diags

(** Thread the state through an op list; [step] gets each op's index. *)
let walk_ops step ops =
  ignore
    (List.fold_left
       (fun (i, st) op -> (i + 1, step i st op))
       (0, (top, top))
       ops)

(* ------------------------------------------------------------------ *)
(* Command lint                                                        *)
(* ------------------------------------------------------------------ *)

(** [Modify_s f] reads [s] and writes [f] of it: (SG) folds it to a
    constant set when the value is known, mirroring the optimizer. *)
let modify emit s eq i f x y =
  let op = "modify_" ^ side_name s in
  read emit s i x
    ~known:
      (op ^ " reads a statically-known value; (SG) folds it to a constant set")
    ~across:
      (op
     ^ " reads a value known only across opposite-side sets; folding it \
        requires commutation");
  match x.plain with
  | Some v0 -> write emit sets s eq i (f v0) ~prev:x.plain x y
  | None ->
      (* the modify both reads (clearing the pending set) and writes; a
         modify is not collapsible by the optimizer, so it leaves no
         pending set of its own *)
      ({ top with comm = Option.map f x.comm }, entangle y)

(** An [If_s] guard [p]: (SG) selects the branch when [s] is known. *)
let guard emit s i p x =
  let op = "if_" ^ side_name s in
  read emit s i x
    ~known:
      (op ^ " guard reads a statically-known value; (SG) selects the branch")
    ~across:
      (op
     ^ " guard is known only across opposite-side sets; folding the branch \
        requires commutation");
  Option.map p x.plain

let lint_command (type a b) ~(requested : Law_infer.level)
    ~(inferred : Law_infer.level) ~(eq_a : a -> a -> bool)
    ~(eq_b : b -> b -> bool) (cmd : (a, b) Command.t) : diagnostic list =
  collect ~requested ~inferred @@ fun emit ->
  let join eq x1 x2 =
    let merge k1 k2 =
      match (k1, k2) with Some x, Some y when eq x y -> Some x | _ -> None
    in
    { top with plain = merge x1.plain x2.plain; comm = merge x1.comm x2.comm }
  in
  (* Pre-order walk; [i] is the index of the next operation. *)
  let rec go i ((a, b) as st : a half * b half) = function
    | Command.Skip -> (i, st)
    | Command.Seq (c1, c2) ->
        let i, st = go i st c1 in
        go i st c2
    | Command.Set_a v -> (i + 1, set emit A eq_a i v a b)
    | Command.Set_b v -> (i + 1, swap (set emit B eq_b i v b a))
    | Command.Modify_a f -> (i + 1, modify emit A eq_a i f a b)
    | Command.Modify_b f -> (i + 1, swap (modify emit B eq_b i f b a))
    | Command.If_a (p, c1, c2) -> branch i st (guard emit A i p a) c1 c2
    | Command.If_b (p, c1, c2) -> branch i st (guard emit B i p b) c1 c2
  and branch i ((a, b) as st) taken c1 c2 =
    match taken with
    | Some taken -> go (i + 1) st (if taken then c1 else c2)
    | None ->
        (* Lint both arms from the guard's post-state; join knowledge
           pointwise and drop pending writes — a collapse across an
           unfolded branch boundary is not a rewrite the optimizer
           performs. *)
        let st0 = (forget a, forget b) in
        let i, (a1, b1) = go (i + 1) st0 c1 in
        let i, (a2, b2) = go i st0 c2 in
        (i, (join eq_a a1 a2, join eq_b b1 b2))
  in
  ignore (go 0 (top, top) cmd)

(* ------------------------------------------------------------------ *)
(* Program (op-list) lint                                              *)
(* ------------------------------------------------------------------ *)

let lint_program (type a b) ~(requested : Law_infer.level)
    ~(inferred : Law_infer.level) ~(eq_a : a -> a -> bool)
    ~(eq_b : b -> b -> bool) (ops : (a, b) Program.op list) : diagnostic list
    =
  collect ~requested ~inferred @@ fun emit ->
  let get s i x =
    let op = "get_" ^ side_name s in
    read emit s i x
      ~known:(op ^ " returns a statically-known value; (SG) folds it")
      ~across:
        (op
       ^ " returns a value known only across opposite-side sets; folding \
          it requires commutation");
    forget x
  in
  let step i ((a, b) : a half * b half) = function
    | Program.Get_a -> (get A i a, b)
    | Program.Get_b -> (a, get B i b)
    | Program.Set_a v -> set emit A eq_a i v a b
    | Program.Set_b v -> swap (set emit B eq_b i v b a)
  in
  walk_ops step ops

(* ------------------------------------------------------------------ *)
(* Put-presentation lint                                               *)
(* ------------------------------------------------------------------ *)

type ('a, 'b) put_op =
  | Pget_a
  | Pget_b
  | Put_ab of 'a  (** push the A view; the updated B view is returned *)
  | Put_ba of 'b  (** push the B view; the updated A view is returned *)

let puts_have_sets (ops : ('a, 'b) put_op list) : bool =
  List.exists (function Put_ab _ | Put_ba _ -> true | _ -> false) ops

let lint_puts (type a b) ~(requested : Law_infer.level)
    ~(inferred : Law_infer.level) ~(eq_a : a -> a -> bool)
    ~(eq_b : b -> b -> bool) (ops : (a, b) put_op list) : diagnostic list =
  collect ~requested ~inferred @@ fun emit ->
  (* any put writes both views, so reading either view observes the most
     recent put in each direction *)
  let get s i x (a, b) =
    let op = "get_" ^ side_name s in
    read emit s i x
      ~known:(op ^ " returns a statically-known view; (PG) folds it")
      ~across:
        (op
       ^ " returns a view known only across opposite-direction puts; \
          folding it requires commutation");
    (forget a, forget b)
  in
  let step i ((a, b) as st : a half * b half) = function
    | Pget_a -> get A i a st
    | Pget_b -> get B i b st
    | Put_ab v -> put emit A eq_a i v a b
    | Put_ba v -> swap (put emit B eq_b i v b a)
  in
  walk_ops step ops

(* ------------------------------------------------------------------ *)
(* Plan lint: abstract domains over relational query pipelines         *)
(* ------------------------------------------------------------------ *)

module Rq = Esm_relational.Query
module Rp = Esm_relational.Pred
module Rs = Esm_relational.Schema
module Rv = Esm_relational.Value

(** The value-interval domain: an inclusive integer range with optional
    bounds.  [Known] literals embed as singletons. *)
type interval = { lo : int option; hi : int option }

let ival_meet (i1 : interval) (i2 : interval) : interval =
  let omax a b =
    match (a, b) with
    | Some x, Some y -> Some (max x y)
    | (Some _ as s), None | None, (Some _ as s) -> s
    | None, None -> None
  in
  let omin a b =
    match (a, b) with
    | Some x, Some y -> Some (min x y)
    | (Some _ as s), None | None, (Some _ as s) -> s
    | None, None -> None
  in
  { lo = omax i1.lo i2.lo; hi = omin i1.hi i2.hi }

let ival_empty { lo; hi } =
  match (lo, hi) with Some l, Some h -> l > h | _ -> false

let ival_singleton { lo; hi } =
  match (lo, hi) with Some l, Some h when l = h -> Some l | _ -> None

(** What the accumulated [where] stages prove about a column: pinned to a
    literal, or confined to an integer interval. *)
type fact = Feq of Rv.t | Fint of interval

type facts = (string * fact) list

(** The abstract value of a predicate expression under [facts]. *)
type abs = Known of Rv.t | Ranged of interval | Anything

let abs_of_expr (facts : facts) : Rp.expr -> abs = function
  | Rp.Lit v -> Known v
  | Rp.Col c -> (
      match List.assoc_opt c facts with
      | Some (Feq v) -> Known v
      | Some (Fint iv) -> Ranged iv
      | None -> Anything)

let as_interval = function
  | Known (Rv.Int n) -> Some { lo = Some n; hi = Some n }
  | Ranged iv -> Some iv
  | _ -> None

(** Three-valued equality: [Some b] when the facts decide it. *)
let abs_eq (a : abs) (b : abs) : bool option =
  match (a, b) with
  | Known x, Known y -> Some (Rv.equal x y)
  | _ -> (
      match (as_interval a, as_interval b) with
      | Some i1, Some i2 ->
          if ival_empty (ival_meet i1 i2) then Some false
          else (
            match (ival_singleton i1, ival_singleton i2) with
            | Some x, Some y -> Some (x = y)
            | _ -> None)
      | _ -> None)

(** Three-valued comparison ([strict] for [<], else [<=]). *)
let abs_cmp ~strict (a : abs) (b : abs) : bool option =
  match (a, b) with
  | Known x, Known y ->
      let c = Rv.compare x y in
      Some (if strict then c < 0 else c <= 0)
  | _ -> (
      match (as_interval a, as_interval b) with
      | Some i1, Some i2 -> (
          match (i1.hi, i2.lo) with
          | Some h1, Some l2 when if strict then h1 < l2 else h1 <= l2 ->
              Some true
          | _ -> (
              match (i1.lo, i2.hi) with
              | Some l1, Some h2 when if strict then l1 >= h2 else l1 > h2 ->
                  Some false
              | _ -> None))
      | _ -> None)

(** Three-valued predicate evaluation under the accumulated facts: the
    predicate-implication half of the domain.  [Some true] means the
    facts imply the predicate (it filters nothing); [Some false] means
    they contradict it (it filters everything). *)
let rec abs_pred (facts : facts) : Rp.t -> bool option = function
  | Rp.Const b -> Some b
  | Rp.Eq (e1, e2) -> abs_eq (abs_of_expr facts e1) (abs_of_expr facts e2)
  | Rp.Lt (e1, e2) ->
      abs_cmp ~strict:true (abs_of_expr facts e1) (abs_of_expr facts e2)
  | Rp.Le (e1, e2) ->
      abs_cmp ~strict:false (abs_of_expr facts e1) (abs_of_expr facts e2)
  | Rp.And (p1, p2) -> (
      match (abs_pred facts p1, abs_pred facts p2) with
      | Some false, _ | _, Some false -> Some false
      | Some true, Some true -> Some true
      | _ -> None)
  | Rp.Or (p1, p2) -> (
      match (abs_pred facts p1, abs_pred facts p2) with
      | Some true, _ | _, Some true -> Some true
      | Some false, Some false -> Some false
      | _ -> None)
  | Rp.Not p -> Option.map not (abs_pred facts p)

let rec conjuncts : Rp.t -> Rp.t list = function
  | Rp.And (p1, p2) -> conjuncts p1 @ conjuncts p2
  | p -> [ p ]

let add_fact (facts : facts) (c : string) (f : fact) : facts =
  let f' =
    match (List.assoc_opt c facts, f) with
    | None, f | Some (Fint _), (Feq _ as f) -> f
    | Some (Feq v), _ -> Feq v (* an equality is already the strongest *)
    | Some (Fint i1), Fint i2 -> Fint (ival_meet i1 i2)
  in
  (c, f') :: List.remove_assoc c facts

(** Absorb one conjunct of a surviving [where] into the fact base.
    Disjunctions and negations are skipped (sound: facts only shrink the
    concretisation). *)
let assimilate_atom (facts : facts) : Rp.t -> facts = function
  | Rp.Eq (Rp.Col c, Rp.Lit v) | Rp.Eq (Rp.Lit v, Rp.Col c) ->
      add_fact facts c (Feq v)
  | Rp.Le (Rp.Col c, Rp.Lit (Rv.Int n)) ->
      add_fact facts c (Fint { lo = None; hi = Some n })
  | Rp.Lt (Rp.Col c, Rp.Lit (Rv.Int n)) ->
      add_fact facts c (Fint { lo = None; hi = Some (n - 1) })
  | Rp.Le (Rp.Lit (Rv.Int n), Rp.Col c) ->
      add_fact facts c (Fint { lo = Some n; hi = None })
  | Rp.Lt (Rp.Lit (Rv.Int n), Rp.Col c) ->
      add_fact facts c (Fint { lo = Some (n + 1); hi = None })
  | _ -> facts

(** The abstract state threaded through a plan walk: the schema at this
    point ([None] once a set operation or join makes it unknown), the key
    columns under their current names, and the accumulated facts. *)
type plan_state = {
  pschema : Rs.t option;
  pkey : string list;
  pfacts : facts;
}

let lint_plan ~(schema : Rs.t) ~(key : string list) (q : Rq.t) :
    diagnostic list =
  let diags = ref [] in
  let emit rule severity requires at message =
    diags := { rule; severity; requires; at; message } :: !diags
  in
  let check_columns (st : plan_state) (i : int) (stage : string)
      (cols : string list) =
    match st.pschema with
    | None -> ()
    | Some sch ->
        List.iter
          (fun c ->
            if not (Rs.mem sch c) then
              emit Unknown_column Error `Set_bx i
                (Printf.sprintf
                   "%s references column %S absent from the schema at this \
                    stage (%s)"
                   stage c (Rs.to_string sch)))
          (List.sort_uniq String.compare cols)
  in
  (* [i] is the pipeline-order index of the next stage (base tables
     included), matching evaluation order. *)
  let rec go (i : int) (q : Rq.t) : int * plan_state =
    match q with
    | Rq.Base _ -> (i + 1, { pschema = Some schema; pkey = key; pfacts = [] })
    | Rq.Where (p, q') -> (
        let i, st = go i q' in
        check_columns st i "where" (Rp.columns_used p);
        match abs_pred st.pfacts p with
        | Some true ->
            emit Foldable_where Info `Set_bx i
              (Format.asprintf
                 "where %a is implied by earlier stages; the filter is the \
                  identity and folds away"
                 Rp.pp p);
            (i + 1, st)
        | Some false ->
            emit Dead_where Warning `Set_bx i
              (Format.asprintf
                 "where %a is statically false under the facts accumulated \
                  from earlier stages; the view is provably empty"
                 Rp.pp p);
            (i + 1, st)
        | None ->
            (* assimilate conjunct by conjunct, checking each against the
               facts gathered so far — catches contradictions between
               conjuncts of a single clause (a = 1 and a = 2) *)
            let dead = ref false in
            let pfacts =
              List.fold_left
                (fun facts cj ->
                  if !dead then facts
                  else
                    match abs_pred facts cj with
                    | Some false ->
                        dead := true;
                        facts
                    | _ -> assimilate_atom facts cj)
                st.pfacts (conjuncts p)
            in
            if !dead then
              emit Dead_where Warning `Set_bx i
                (Format.asprintf
                   "where %a contains contradictory conjuncts; the view is \
                    provably empty"
                   Rp.pp p);
            (i + 1, { st with pfacts }))
    | Rq.Project (cols, q') -> (
        let i, st = go i q' in
        check_columns st i "select" cols;
        match st.pschema with
        | None -> (i + 1, st)
        | Some sch ->
            if List.exists (fun c -> not (Rs.mem sch c)) cols then
              (* unknown columns already reported; the downstream schema
                 is unknowable *)
              (i + 1, { st with pschema = None; pfacts = [] })
            else begin
              let dropped =
                List.filter (fun k -> not (List.mem k cols)) st.pkey
              in
              if dropped <> [] then
                emit Dropped_key Error `Set_bx i
                  (Printf.sprintf
                     "select drops key column(s) %s; the projection is not \
                      updatable"
                     (String.concat ", " dropped));
              if
                List.for_all (fun c -> List.mem c cols) (Rs.column_names sch)
              then
                emit Foldable_stage Info `Set_bx i
                  "select keeps every column; the stage folds away";
              let pschema = try Some (Rs.project sch cols) with _ -> None in
              ( i + 1,
                {
                  st with
                  pschema;
                  pfacts =
                    List.filter (fun (c, _) -> List.mem c cols) st.pfacts;
                } )
            end)
    | Rq.Rename (mapping, q') -> (
        let i, st = go i q' in
        check_columns st i "rename" (List.map fst mapping);
        if List.for_all (fun (o, n) -> String.equal o n) mapping then
          emit Foldable_stage Info `Set_bx i
            "rename maps every column to itself; the stage folds away";
        match st.pschema with
        | Some sch when List.for_all (fun (o, _) -> Rs.mem sch o) mapping ->
            let ren c =
              match List.assoc_opt c mapping with Some n -> n | None -> c
            in
            let pschema = try Some (Rs.rename sch mapping) with _ -> None in
            ( i + 1,
              {
                pschema;
                pkey = List.map ren st.pkey;
                pfacts = List.map (fun (c, f) -> (ren c, f)) st.pfacts;
              } )
        | _ -> (i + 1, { st with pschema = None; pfacts = [] }))
    | Rq.Join (q1, q2) ->
        let i, _ = go i q1 in
        let i, _ = go i q2 in
        emit Unproven_join Info `Undoable i
          "join carries no functional-dependency evidence; it compiles to \
           set-bx unless FDs prove the view keys determine the right-hand \
           rows (the join lemma)";
        (i + 1, { pschema = None; pkey = key; pfacts = [] })
    | Rq.Union (q1, q2) | Rq.Diff (q1, q2) | Rq.Product (q1, q2) ->
        let i, _ = go i q1 in
        let i, _ = go i q2 in
        (i + 1, { pschema = None; pkey = key; pfacts = [] })
  in
  let _ = go 0 q in
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)
(* ------------------------------------------------------------------ *)

let json_escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let diagnostic_to_json (d : diagnostic) : string =
  Printf.sprintf
    {|{"rule":"%s","severity":"%s","requires":"%s","at":%d,"message":"%s"}|}
    (rule_name d.rule) (severity_name d.severity)
    (Law_infer.to_string d.requires)
    d.at (json_escape d.message)

let diagnostics_to_json (ds : diagnostic list) : string =
  "[" ^ String.concat "," (List.map diagnostic_to_json ds) ^ "]"
