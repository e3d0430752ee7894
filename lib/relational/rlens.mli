(** Relational lenses: asymmetric lenses between tables, in the spirit of
    Bohannon, Pierce & Vaughan's "Relational lenses" (PODS 2006).
    Composing them with {!Esm_core.Of_lens} gives an entangled state
    monad whose A side is the stored table and whose B side is the view.

    Well-behavedness caveats (as in the relational-lenses literature) are
    documented per lens; the property suites in [test/test_rlens.ml]
    generate sources and views inside those domains. *)

(** {1 Combinator pedigrees}

    Construction provenance for the relational layer, feeding
    {!Esm_analysis.Law_infer}'s per-combinator lemmas.  Each lens
    constructor has a companion pedigree so both the whole-view and the
    delta pipelines carry lemma-backed provenance instead of
    [Opaque]. *)

val select_pedigree : ?key:string list -> Pred.t -> Esm_core.Pedigree.t
(** [Select { pred; key_preserving }]; [key_preserving] holds when [key]
    is supplied and the predicate reads only key columns (view
    membership decided by the key ⇒ (PutPut) is kept). *)

val project_pedigree :
  keep:string list -> key:string list -> Schema.t -> Esm_core.Pedigree.t
(** [Project { keep; key; lossless }]; lossless iff every source column
    is kept. *)

val rename_pedigree : (string * string) list -> Esm_core.Pedigree.t

val join_pedigree :
  ?right_fds:Fd.t list ->
  left:Schema.t ->
  right:Schema.t ->
  unit ->
  Esm_core.Pedigree.t
(** [Join { on; fd_proven }]; the undo law is claimed only when a
    declared right-table FD proves the shared columns determine the rest
    of the right row. *)

val select : Pred.t -> (Table.t, Table.t) Esm_lens.Lens.t
(** The view is the subtable satisfying the predicate.  [put] keeps the
    non-matching source rows and replaces the matching ones by the view;
    it raises {!Esm_lens.Lens.Shape_error} if a view row violates the
    predicate.  Very well-behaved on predicate-respecting views. *)

val project :
  keep:string list -> key:string list -> Schema.t ->
  (Table.t, Table.t) Esm_lens.Lens.t
(** The view keeps columns [keep] (in order); [key ⊆ keep] identifies
    rows.  [put] recovers each dropped column from the old source row
    with the same key (hashtable-indexed), defaulting for fresh keys.
    Well-behaved on sources satisfying the FD [key -> dropped]. *)

val rename : (string * string) list -> (Table.t, Table.t) Esm_lens.Lens.t
(** Bijective column renaming; an iso, hence very well-behaved. *)

val drop :
  string -> key:string list -> Schema.t -> (Table.t, Table.t) Esm_lens.Lens.t
(** Drop a single column (projection keeping the rest). *)

val join :
  left:Schema.t -> right:Schema.t ->
  (Table.t * Table.t, Table.t) Esm_lens.Lens.t
(** The view is the natural join of the two stored tables.  [put]
    replaces the left table by the view's left projection and updates
    the right table by key, keeping unjoined right rows.  Well-behaved
    when the shared columns key the right table and every left row
    joins. *)

(** {1 Delta propagation}

    The incremental [put] path: a view edit described as a {!Row_delta}
    list is translated into source deltas instead of rebuilding the
    source table.  [translate source view_deltas] assumes the deltas
    describe an edit of [get lens source]; under that precondition
    [put_delta l s ds] is relationally equal to
    [put l.lens s (Row_delta.apply_all (get l.lens s) ds)] — the oracle
    property checked in [test/test_row_delta.ml]. *)

type dlens = {
  lens : (Table.t, Table.t) Esm_lens.Lens.t;
  translate : Table.t -> Row_delta.t list -> Row_delta.t list;
  pedigree : Esm_core.Pedigree.t;
      (** Combinator-by-combinator provenance of the pipeline. *)
  mutable view_cache : (Table.t * Table.t) option;
      (** {!get_memo}'s single-entry (source, view) cache — benign
          mutation, owned by the dlens. *)
}

val get_memo : dlens -> Table.t -> Table.t
(** Memoized [Lens.get]: returns the cached view when the source is
    unchanged — O(1) on a physical witness match, structural hash
    rejection plus {!Table.equal} verification otherwise (a hash match
    is never trusted unverified).  An injected fault at the
    ["incr.hash"] chaos site bypasses the cache and rematerializes in
    full, so a corrupted cache costs work, never staleness.  Reports to
    the ["rlens.view"] {!Esm_incr.Stats} counter. *)

val put_delta : dlens -> Table.t -> Row_delta.t list -> Table.t
(** Apply view deltas through the translated source deltas.  On a
    {e degradable} failure ({!Esm_core.Error.is_degradable}: an injected
    fault or an index self-check failure) the source's memoized indexes
    are revalidated and the answer is recomputed with the full
    [get]/[put] oracle — graceful degradation rather than error.
    Genuine shape errors still raise. *)

val did : dlens
(** The identity dlens (a pipeline's base table). *)

val dselect : ?key:string list -> Pred.t -> dlens
(** Additions must satisfy the predicate ({!Esm_lens.Lens.Shape_error}
    otherwise, as in the full [put]); removals of rows outside the view
    are dropped as no-ops.  [key] feeds {!select_pedigree}'s
    key-preservation analysis. *)

val dproject : keep:string list -> key:string list -> Schema.t -> dlens
(** View deltas restore to source deltas through the source's memoized
    key index (dropped columns recovered by key, defaults for fresh
    keys). *)

val drename : (string * string) list -> dlens
(** Rows are untouched by renaming; deltas pass through unchanged. *)

val dcompose : dlens -> dlens -> dlens
(** [dcompose outer inner] with [outer] closer to the source (same
    orientation as {!Esm_lens.Lens.compose}).  Pedigrees compose with
    {!Esm_core.Pedigree.Dcompose} (identity bases are flattened away). *)

val packed_of_dlens :
  init:Table.t -> dlens -> (Table.t, Table.t) Esm_core.Concrete.packed
(** Pack the pipeline as a pedigreed entangled state monad (A = source
    table, B = view): [set_b] diffs the new view against the current one
    and runs {!put_delta}, and the packed pedigree is [Delta_of] the
    pipeline's. *)

(** {1 Delta join}

    The incremental path for joined views: the source is a table pair,
    so the join does not fit the single-table {!dlens} shape. *)

type djoin = {
  jlens : (Table.t * Table.t, Table.t) Esm_lens.Lens.t;
  jtranslate :
    Table.t * Table.t ->
    Row_delta.t list ->
    Row_delta.t list * Row_delta.t list;
  jpedigree : Esm_core.Pedigree.t;
      (** [Delta_of] over {!join_pedigree} of the two schemas and any
          declared right-side FDs. *)
}

val djoin : ?right_fds:Fd.t list -> left:Schema.t -> right:Schema.t -> unit -> djoin
(** Translate view deltas over the natural join into (left, right)
    source delta pairs.  A removed view row drops its left projection
    (the right row is kept — either still dictated by surviving view
    rows with the same key, or merely unjoined); an added view row adds
    its left projection and updates the key's right row to the view's
    right projection.  [jtranslate (l, r) ds] assumes the deltas
    describe an edit of [get (join ...) (l, r)]; under that precondition
    {!put_delta_join} agrees with the full [put] on the edited view —
    the oracle property checked in [test/test_row_delta.ml]. *)

val put_delta_join :
  djoin -> Table.t * Table.t -> Row_delta.t list -> Table.t * Table.t
(** Apply view deltas through the translated source delta pairs, with
    the same graceful degradation as {!put_delta}: on a degradable
    failure both tables' memoized indexes are revalidated and the answer
    is recomputed with the full join [get]/[put] oracle. *)
