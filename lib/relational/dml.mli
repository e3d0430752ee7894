(** Data-manipulation statements over tables, and their translation
    through updatable views ([through]: run on the view, push back with
    the lens's [put]). *)

type assignment = string * Pred.expr
(** column := expression (evaluated against the pre-update row) *)

type t =
  | Insert of Row.t
  | Delete of Pred.t
  | Update of Pred.t * assignment list

val pp : Format.formatter -> t -> unit

val apply : Table.t -> t -> Table.t
val apply_all : Table.t -> t list -> Table.t

val through :
  (Table.t, Table.t) Esm_lens.Lens.t -> t -> Table.t -> Table.t
(** Run the statement on the lens's view of the source, then put the
    updated view back. *)

val delta : Table.t -> t -> Row_delta.t list
(** The row deltas the statement induces on the table:
    [apply table stmt] equals [Row_delta.apply_all table (delta table
    stmt)].  Removals precede additions. *)

val through_delta : Rlens.dlens -> t -> Table.t -> Table.t
(** Delta-propagating {!through}: the statement's view deltas are pushed
    through {!Rlens.put_delta} instead of replacing the whole view. *)
