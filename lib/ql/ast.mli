(** The typed ESMQL statement AST (see [docs/QUERY.md] for the surface
    grammar).  A script is a statement list; query expressions inside
    [view] statements are {!Esm_relational.Query.t} — the one pipeline
    grammar, shared with [Query.parse] through
    {!Esm_relational.Qlex}/[Query.parse_prefix].

    {!to_string} and {!Parser.parse} round-trip:
    [parse (to_string s) = Ok s] for every printable script (string
    literals are printed with OCaml escapes the lexer reads literally,
    so scripts whose strings avoid ["\""], ["\\"] and control characters
    — everything the printer would escape — round-trip exactly; the
    QCheck property in [test/test_ql.ml] drives this). *)

open Esm_analysis
open Esm_relational

type mode = Strict | Fallback
(** How a view whose requested law level exceeds the inferred one is
    handled: [Strict] rejects the script at compile time, [Fallback]
    downgrades the view to runtime-validated execution. *)

val mode_name : mode -> string
val mode_of_string : string -> mode option

val level_name : Law_infer.level -> string
(** Surface keyword of a law level: [setbx], [undoable],
    [overwriteable], [commuting] (identifiers, unlike
    {!Law_infer.to_string}'s hyphenated forms). *)

val level_of_string : string -> Law_infer.level option

type stmt =
  | Mode of mode  (** [mode strict;] / [mode fallback;] *)
  | Expect of Law_infer.level
      (** [expect level = commuting;] — applies to the {e next} [view] *)
  | View of string * Query.t  (** [view v = employees | where …;] *)
  | Get of string  (** [get v;] — read the view *)
  | Put of string * Row.t list
      (** [put v = (1, "a"), (2, "b");] — replace the view wholesale *)
  | Delta of string * Row_delta.t list
      (** [delta v + (1, "a") - (2, "b");] — edit the view incrementally *)

type script = stmt list

val pp_stmt : Format.formatter -> stmt -> unit
val pp : Format.formatter -> script -> unit
val to_string : script -> string

val equal : script -> script -> bool
(** Structural equality (the round-trip property's comparison). *)
