(** A command language over entangled state monads, with a law-driven
    optimizer: (GS) deletes sets of the already-current value, (SG)
    constant-folds reads after sets, entanglement forces invalidation of
    the opposite view's known value at every set, and (SS) — available
    only at the overwriteable level — collapses adjacent same-side sets.
    Each optimization level is property-tested sound exactly on the
    instances with the matching laws. *)

type ('a, 'b) t =
  | Skip
  | Seq of ('a, 'b) t * ('a, 'b) t
  | Set_a of 'a
  | Set_b of 'b
  | Modify_a of ('a -> 'a)  (** [get_a >>= fun v -> set_a (f v)] *)
  | Modify_b of ('b -> 'b)
  | If_a of ('a -> bool) * ('a, 'b) t * ('a, 'b) t
  | If_b of ('b -> bool) * ('a, 'b) t * ('a, 'b) t

val exec : ('a, 'b, 's) Concrete.set_bx -> ('a, 'b) t -> 's -> 's

val cost : ('a, 'b) t -> int
(** Worst-case number of bx operations performed. *)

(** Optimizer knowledge: the statically-known current value per view. *)
type ('a, 'b) knowledge = { known_a : 'a option; known_b : 'b option }

val nothing : ('a, 'b) knowledge
(** The empty knowledge (both views unknown) — the abstract domain's top
    element. *)

type level = [ `Any | `Undoable | `Overwriteable | `Commuting ]

val level_rank : level -> int
(** Position in the total order
    [`Any < `Undoable < `Overwriteable < `Commuting] (0–3). *)

val optimize_at :
  level ->
  eq_a:('a -> 'a -> bool) ->
  eq_b:('b -> 'b -> bool) ->
  ('a, 'b) t ->
  ('a, 'b) t

val optimize :
  eq_a:('a -> 'a -> bool) -> eq_b:('b -> 'b -> bool) -> ('a, 'b) t -> ('a, 'b) t
(** Sound for every set-bx. *)

val optimize_undoable :
  eq_a:('a -> 'a -> bool) -> eq_b:('b -> 'b -> bool) -> ('a, 'b) t -> ('a, 'b) t
(** Additionally cancels [set_a v; set_a a0] pairs where [a0] is the
    statically-known pre-value (the undo law
    [set_a (get_a s) (set_a v s) = s]); sound for undoable instances. *)

val optimize_overwriteable :
  eq_a:('a -> 'a -> bool) -> eq_b:('b -> 'b -> bool) -> ('a, 'b) t -> ('a, 'b) t
(** Additionally collapses adjacent same-side sets ((SS)); sound exactly
    for overwriteable instances. *)

val optimize_unsafe_commuting :
  eq_a:('a -> 'a -> bool) -> eq_b:('b -> 'b -> bool) -> ('a, 'b) t -> ('a, 'b) t
(** Additionally assumes [set_a]/[set_b] commute; UNSOUND on entangled
    instances (tests exhibit a concrete miscompilation).  Static
    precondition: the target bx's inferred law level must be
    [`Commuting] — i.e. [Esm_analysis.Law_infer.level (Concrete.pedigree
    p) = `Commuting].  `bxlint` checks this precondition over the example
    catalog and rejects programs optimized at a level above what their
    bx's pedigree justifies. *)
