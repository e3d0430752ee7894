(** Tables with set semantics: rows are kept in a sorted, deduplicated
    array, so structural equality of tables is relational equality,
    membership is a binary search, and the set operations are linear
    merges.  A lazily-built, memoized key index gives O(1) key-directed
    row lookup — the substrate for the relational-lens [put] directions
    and the delta-propagation path. *)

exception Table_error of string

val errorf : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Table_error} with a formatted message. *)

type t

val of_rows : Schema.t -> Row.t list -> t
(** Build a table; every row must conform to the schema (otherwise
    {!Table_error}); rows are deduplicated and sorted. *)

val of_sorted_array_unchecked : Schema.t -> Row.t array -> t
(** Trusted constructor: the rows must conform to the schema, be sorted
    by {!Row.compare} and contain no duplicates; the array is owned by
    the table afterwards.  For hot paths that preserve those invariants
    by construction — misuse silently breaks relational equality. *)

val of_lists : Schema.t -> Value.t list list -> t
(** Convenience wrapper over {!of_rows}. *)

val empty : Schema.t -> t
val schema : t -> Schema.t

val rows : t -> Row.t list
(** Rows in canonical (sorted) order. *)

val row_array : t -> Row.t array
(** The backing sorted array — treat as read-only; mutating it breaks
    the table's invariants. *)

val cardinality : t -> int
val iter : (Row.t -> unit) -> t -> unit
val fold : ('acc -> Row.t -> 'acc) -> 'acc -> t -> 'acc
val for_all : (Row.t -> bool) -> t -> bool
val exists : (Row.t -> bool) -> t -> bool

val mem : t -> Row.t -> bool
(** Binary search over the sorted rows: O(log n). *)

val insert : t -> Row.t -> t
(** Set insertion (idempotent); the row must conform to the schema.
    Binary search + array splice — no re-sort.  Inserting a present row
    returns the table physically unchanged. *)

val delete : t -> Row.t -> t
(** Binary search + array splice; absent rows return the table
    physically unchanged. *)

val filter : (Row.t -> bool) -> t -> t

val map : Schema.t -> (Row.t -> Row.t) -> t -> t
(** Per-row transformation; the result is renormalised under the new
    schema. *)

(** {1 Merge-based set operations}

    All three require equal schemas ({!Table_error} otherwise) and run
    in O(n + m) single merge passes over the sorted arrays. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

(** {1 Key indexes} *)

val key_of_row : int list -> Row.t -> Value.t list
(** The key tuple of a row at the given column positions. *)

val key_index : t -> int list -> (Value.t list, Row.t) Hashtbl.t
(** The memoized index from key tuple (values at the given column
    positions) to row: built on first use in O(n), O(1) afterwards for
    the same table and key.  Callers must treat the table as the owner
    of the hashtable (read-only).  If the key does not functionally
    determine rows, later rows win. *)

val key_index_checked : t -> int list -> (Value.t list, Row.t) Hashtbl.t
(** {!key_index} plus an O(1) self-check of the memo — the gate the
    delta fast paths use before trusting a cached index.
    @raise Esm_core.Error.Bx_error
      (kind [Index]) when the memo fails its check; fast paths treat
      this as "fall back to the full oracle". *)

val drop_indexes : t -> unit
(** Forget every memoized index (they rebuild lazily on next use). *)

val validate_indexes : t -> bool
(** Full O(n)-per-index consistency check of the memo against the
    rows. *)

val revalidate_indexes : t -> bool
(** Validate-and-rebuild policy after a failed transaction: [true] iff
    the memo was healthy; otherwise the indexes are dropped (rebuilt
    lazily) and [false] is returned. *)

val find_by_key : t -> key:int list -> Value.t list -> Row.t option
(** Indexed key lookup (amortised O(1)). *)

(** {1 Structural hash}

    The substrate of the incremental recomputation layer (see
    [docs/PERFORMANCE.md], "Incremental recomputation"): an O(1)
    memoized hash whose {e inequality} certifies table inequality, used
    by the view/plan caches for fast rejection.  The accumulator is the
    xor of per-row structural hashes — history-independent, so
    {!insert}/{!delete} maintain it in O(1) from the parent's; other
    constructors leave it to be rebuilt lazily.  Cached reads pass
    through the ["incr.hash"] chaos gate ({!Esm_core.Shash.site}): an
    injected fault rebuilds from the rows, mirroring the key-index
    validate-and-rebuild policy. *)

val hash : t -> int
(** O(1) once memoized (first call is O(n)).  Equal tables hash equal;
    distinct hashes certify distinct tables; matching hashes must be
    verified with {!equal}. *)

val equal : t -> t -> bool
(** Relational equality; short-circuits on physically shared row
    storage, then on memoized structural hashes that certify
    inequality, before falling back to the row-wise comparison. *)

val pp : Format.formatter -> t -> unit
(** ASCII-art rendering with padded columns. *)

val to_string : t -> string
