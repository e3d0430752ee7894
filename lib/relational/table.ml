(** Tables with set semantics: rows are kept in a sorted, deduplicated
    array, so structural equality of tables is relational equality and
    membership is a binary search.

    Two performance structures live behind the pure interface:

    - the sorted array itself gives O(log n) {!mem}/{!delete} and
      O(n + m) merge-based set operations ({!union}/{!inter}/{!diff})
      with no re-sort;
    - a lazily-built, memoized {e key index} ({!key_index}) maps a key
      tuple (values at a fixed list of column positions) to its row, so
      key-directed lookups — the heart of the relational-lens [put]
      directions and the delta-propagation path — are O(1) after the
      first use.

    Tables are immutable values; the index cache is invisible mutation
    (build-once memoization), safe to share across readers. *)

exception Table_error of string

let errorf fmt =
  Esm_core.Error.raisef Esm_core.Error.Table
    ~wrap:(fun m -> Table_error m)
    fmt

let () =
  Esm_core.Error.register_classifier (function
    | Table_error m -> Some (Esm_core.Error.of_message Esm_core.Error.Table m)
    | _ -> None)

type t = {
  schema : Schema.t;
  rows : Row.t array; (* sorted by Row.compare, distinct *)
  mutable key_indexes : (int list * (Value.t list, Row.t) Hashtbl.t) list;
      (* memoized key-tuple indexes, keyed by the column positions *)
  mutable hash_acc : int option;
      (* memoized xor of per-row structural hashes — [None] until first
         use, maintained incrementally across insert/delete (xor is
         history-independent, so order does not matter), rebuilt from
         the rows through the incr.hash chaos gate like the key-index
         memo is rebuilt by the validate-and-rebuild policy *)
}

let make_sorted schema rows = { schema; rows; key_indexes = []; hash_acc = None }

let normalise rows = Array.of_list (List.sort_uniq Row.compare rows)

let check_conforms what (schema : Schema.t) (r : Row.t) =
  if not (Row.conforms schema r) then
    errorf "%s: row %s does not conform to schema %s" what (Row.to_string r)
      (Schema.to_string schema)

let of_rows (schema : Schema.t) (rows : Row.t list) : t =
  List.iter (check_conforms "of_rows" schema) rows;
  make_sorted schema (normalise rows)

(** Trusted constructor: [rows] must conform to [schema], be sorted by
    {!Row.compare} and contain no duplicates; the array is owned by the
    table afterwards.  Used by the algebra and the lens/delta hot paths
    to skip re-validation and re-sorting. *)
let of_sorted_array_unchecked (schema : Schema.t) (rows : Row.t array) : t =
  make_sorted schema rows

(** Build from value lists (convenience for examples and tests). *)
let of_lists (schema : Schema.t) (rows : Value.t list list) : t =
  of_rows schema (List.map Row.of_list rows)

let empty (schema : Schema.t) : t = make_sorted schema [||]
let schema t = t.schema
let rows t = Array.to_list t.rows

let row_array t = t.rows
(* Callers must treat the returned array as read-only. *)

let cardinality t = Array.length t.rows
let iter f t = Array.iter f t.rows
let fold f init t = Array.fold_left f init t.rows
let for_all p t = Array.for_all p t.rows
let exists p t = Array.exists p t.rows

(* Binary search over the sorted row array: [Ok i] = found at [i],
   [Error i] = absent, belongs at position [i]. *)
let search (rows : Row.t array) (r : Row.t) : (int, int) result =
  let rec go lo hi =
    if lo >= hi then Error lo
    else
      let mid = (lo + hi) / 2 in
      let c = Row.compare r rows.(mid) in
      if c = 0 then Ok mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length rows)

let mem t r = match search t.rows r with Ok _ -> true | Error _ -> false

(* The per-row structural hash feeding the table hash: must be the one
   function everywhere — the incremental xor maintenance and the
   ground-truth rebuild have to agree bit for bit. *)
let row_hash (r : Row.t) : int = Esm_core.Shash.of_value r

(* Carry a parent's memoized hash accumulator across a one-row edit:
   xor'ing the touched row's hash in (insert) or out (delete) is exact
   because the accumulator is order-independent.  A parent without a
   memoized hash passes nothing on (lazy, like the key indexes). *)
let inherit_hash (parent : t) (child : t) (r : Row.t) : t =
  (match parent.hash_acc with
  | Some acc -> child.hash_acc <- Some (acc lxor row_hash r)
  | None -> ());
  child

let insert t r =
  check_conforms "insert" t.schema r;
  match search t.rows r with
  | Ok _ -> t (* set semantics: already present *)
  | Error i ->
      let n = Array.length t.rows in
      let rows = Array.make (n + 1) r in
      Array.blit t.rows 0 rows 0 i;
      Array.blit t.rows i rows (i + 1) (n - i);
      inherit_hash t (make_sorted t.schema rows) r

let delete t r =
  match search t.rows r with
  | Error _ -> t
  | Ok i ->
      let n = Array.length t.rows in
      let rows = Array.make (n - 1) t.rows.(0) in
      Array.blit t.rows 0 rows 0 i;
      Array.blit t.rows (i + 1) rows i (n - i - 1);
      inherit_hash t (make_sorted t.schema rows) r

let filter (keep : Row.t -> bool) t =
  (* filtering preserves sortedness and distinctness *)
  make_sorted t.schema
    (Array.of_seq (Seq.filter keep (Array.to_seq t.rows)))

(** Map a per-row transformation; the result is renormalised under the new
    schema. *)
let map (schema' : Schema.t) (f : Row.t -> Row.t) t : t =
  of_rows schema' (List.map f (rows t))

(* ------------------------------------------------------------------ *)
(* Merge-based set operations (both sides already sorted + distinct)   *)
(* ------------------------------------------------------------------ *)

let check_same_schema op t1 t2 =
  if not (Schema.equal t1.schema t2.schema) then
    errorf "%s: schema mismatch: %s vs %s" op
      (Schema.to_string t1.schema)
      (Schema.to_string t2.schema)

let merge_walk ~(keep_left_only : bool) ~(keep_both : bool)
    ~(keep_right_only : bool) (r1 : Row.t array) (r2 : Row.t array) :
    Row.t array =
  let n1 = Array.length r1 and n2 = Array.length r2 in
  let out = ref [] and k = ref 0 in
  let push r =
    out := r :: !out;
    incr k
  in
  let i = ref 0 and j = ref 0 in
  while !i < n1 && !j < n2 do
    let c = Row.compare r1.(!i) r2.(!j) in
    if c < 0 then (
      if keep_left_only then push r1.(!i);
      incr i)
    else if c > 0 then (
      if keep_right_only then push r2.(!j);
      incr j)
    else (
      if keep_both then push r1.(!i);
      incr i;
      incr j)
  done;
  if keep_left_only then
    while !i < n1 do
      push r1.(!i);
      incr i
    done;
  if keep_right_only then
    while !j < n2 do
      push r2.(!j);
      incr j
    done;
  let arr = Array.make !k (Row.of_list []) in
  (* !out is in reverse order *)
  List.iteri (fun idx r -> arr.(!k - 1 - idx) <- r) !out;
  arr

let union (t1 : t) (t2 : t) : t =
  check_same_schema "union" t1 t2;
  if Array.length t2.rows = 0 then t1
  else if Array.length t1.rows = 0 then t2
  else
    make_sorted t1.schema
      (merge_walk ~keep_left_only:true ~keep_both:true ~keep_right_only:true
         t1.rows t2.rows)

let inter (t1 : t) (t2 : t) : t =
  check_same_schema "inter" t1 t2;
  make_sorted t1.schema
    (merge_walk ~keep_left_only:false ~keep_both:true ~keep_right_only:false
       t1.rows t2.rows)

let diff (t1 : t) (t2 : t) : t =
  check_same_schema "diff" t1 t2;
  if Array.length t2.rows = 0 then t1
  else
    make_sorted t1.schema
      (merge_walk ~keep_left_only:true ~keep_both:false ~keep_right_only:false
         t1.rows t2.rows)

(* ------------------------------------------------------------------ *)
(* Key indexes                                                         *)
(* ------------------------------------------------------------------ *)

let key_of_row (key : int list) (r : Row.t) : Value.t list =
  List.map (fun i -> r.(i)) key

(** The memoized index from key tuple (values at positions [key]) to
    row.  Built on first use, O(n); later calls on the same table and
    key are O(1).  If the key does not functionally determine the row,
    later rows win (callers enforce their own FD preconditions). *)
let key_index (t : t) (key : int list) : (Value.t list, Row.t) Hashtbl.t =
  match List.assoc_opt key t.key_indexes with
  | Some idx -> idx
  | None ->
      Esm_core.Chaos.point "table.key_index";
      let idx = Hashtbl.create (max 16 (Array.length t.rows)) in
      Array.iter (fun r -> Hashtbl.replace idx (key_of_row key r) r) t.rows;
      t.key_indexes <- (key, idx) :: t.key_indexes;
      idx

(** Forget every memoized index (they rebuild on next use).  The table
    value itself is untouched. *)
let drop_indexes (t : t) : unit = t.key_indexes <- []

(** Full consistency check of every memoized index against the rows:
    every row's key tuple must be present, and every binding must map a
    key [k] to a member row whose key is [k].  (When the key does not
    functionally determine rows, several rows share a key and the index
    legitimately holds just one of them — membership, not identity, is
    the invariant.)  O(n) per index. *)
let validate_indexes (t : t) : bool =
  let row_mem r =
    let rec bsearch lo hi =
      if lo >= hi then false
      else
        let mid = (lo + hi) / 2 in
        let c = Row.compare r t.rows.(mid) in
        if c = 0 then true
        else if c < 0 then bsearch lo mid
        else bsearch (mid + 1) hi
    in
    bsearch 0 (Array.length t.rows)
  in
  let index_ok (key, idx) =
    Array.for_all (fun r -> Hashtbl.mem idx (key_of_row key r)) t.rows
    && Hashtbl.fold
         (fun k r ok -> ok && row_mem r && key_of_row key r = k)
         idx true
  in
  List.for_all index_ok t.key_indexes

(** Distrust-and-check the memo after a failed transaction: if any
    memoized index fails {!validate_indexes}, drop them all (to be
    rebuilt lazily from the rows).  Returns [true] iff the memo was
    healthy. *)
let revalidate_indexes (t : t) : bool =
  if validate_indexes t then true
  else begin
    drop_indexes t;
    false
  end

(** {!key_index} plus an O(1) self-check on the memo — the cheap sanity
    gate the delta fast paths use before trusting a cached index.  A
    corrupt memo raises an {!Esm_core.Error.Index} error, which the fast
    paths treat as "fall back to the full oracle". *)
let key_index_checked (t : t) (key : int list) :
    (Value.t list, Row.t) Hashtbl.t =
  let idx = key_index t key in
  let n = Array.length t.rows in
  let plausible =
    Hashtbl.length idx <= n
    && (n = 0 || Hashtbl.length idx > 0)
    && (n = 0
       ||
       let r0 = t.rows.(0) in
       match Hashtbl.find_opt idx (key_of_row key r0) with
       | Some r -> key_of_row key r = key_of_row key r0
       | None -> false)
  in
  if plausible then idx
  else
    Esm_core.Error.raise_error Esm_core.Error.Index ~op:"table.key_index"
      "memoized index failed its self-check (%d bindings over %d rows)"
      (Hashtbl.length idx) n

let find_by_key (t : t) ~(key : int list) (k : Value.t list) : Row.t option =
  Hashtbl.find_opt (key_index t key) k

(* ------------------------------------------------------------------ *)
(* Structural hash, equality and printing                              *)
(* ------------------------------------------------------------------ *)

(* The memoized accumulator, read through the incr.hash chaos gate: an
   injected fault distrusts the cache and rebuilds from the rows (under
   [protected]), re-caching the ground truth — the same
   invalidate-and-rebuild policy as {!revalidate_indexes}. *)
let hash_acc (t : t) : int =
  Esm_core.Shash.trusted ~cached:t.hash_acc ~recompute:(fun () ->
      let acc = Array.fold_left (fun h r -> h lxor row_hash r) 0 t.rows in
      t.hash_acc <- Some acc;
      acc)

(** The structural hash: O(1) once memoized (and maintained across
    {!insert}/{!delete}), O(n) to build.  Equal tables hash equal;
    unequal hashes certify unequal tables — the rejection direction the
    caches rely on.  Hash equality proves nothing and must be verified
    with {!equal}. *)
let hash (t : t) : int =
  Esm_core.Shash.combine
    (Esm_core.Shash.of_value (Schema.columns t.schema))
    (Esm_core.Shash.combine (Array.length t.rows) (hash_acc t))

(* O(1) certain-inequality: when both sides already memoized their
   accumulator and the accumulators differ, the row sets differ.  The
   rejection trusts cached hashes, so it too passes through the
   incr.hash gate — a fault there just declines to reject (degrading to
   the row-wise comparison), never answers wrongly. *)
let hashes_reject (t1 : t) (t2 : t) : bool =
  match (t1.hash_acc, t2.hash_acc) with
  | Some h1, Some h2 when h1 <> h2 -> (
      match Esm_core.Chaos.point Esm_core.Shash.site with
      | () -> true
      | exception exn when Esm_core.Error.degradable_exn exn ->
          Esm_core.Chaos.note_fallback Esm_core.Shash.site;
          false)
  | _ -> false

let equal t1 t2 =
  t1 == t2
  || Schema.equal t1.schema t2.schema
     && (t1.rows == t2.rows
        || Array.length t1.rows = Array.length t2.rows
           && (not (hashes_reject t1 t2))
           && (let n = Array.length t1.rows in
               let rec go i =
                 i >= n || (Row.equal t1.rows.(i) t2.rows.(i) && go (i + 1))
               in
               go 0))

let pp fmt t =
  let widths =
    List.mapi
      (fun i (n, _) ->
        Array.fold_left
          (fun w r -> max w (String.length (Value.to_string r.(i))))
          (String.length n) t.rows)
      (Schema.columns t.schema)
  in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let hline =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "+"
  in
  Format.fprintf fmt "%s@\n" hline;
  Format.fprintf fmt "|%s|@\n"
    (String.concat "|"
       (List.map2
          (fun (n, _) w -> " " ^ pad n w ^ " ")
          (Schema.columns t.schema) widths));
  Format.fprintf fmt "%s@\n" hline;
  Array.iter
    (fun r ->
      Format.fprintf fmt "|%s|@\n"
        (String.concat "|"
           (List.mapi
              (fun i w -> " " ^ pad (Value.to_string r.(i)) w ^ " ")
              widths)))
    t.rows;
  Format.fprintf fmt "%s" hline

let to_string t = Format.asprintf "%a" pp t
