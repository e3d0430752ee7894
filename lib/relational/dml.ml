(** Data-manipulation statements over tables, and their translation
    through updatable views.

    [apply] executes insert/delete/update statements against a table;
    [through] is the view-update pattern the paper's database motivation
    is about: run the statement {e on the view} of a lens, then push the
    modified view back through [put] — the stored table absorbs the
    change while everything outside the view is preserved.

    Property tests in [test/test_dml.ml] include the classic view-update
    correctness statement: for a select-lens view, running a
    view-compatible statement through the view equals running it directly
    on the store. *)

type assignment = string * Pred.expr
(** column := expression (evaluated against the pre-update row) *)

type t =
  | Insert of Row.t
  | Delete of Pred.t
  | Update of Pred.t * assignment list

let pp fmt = function
  | Insert r -> Format.fprintf fmt "insert %s" (Row.to_string r)
  | Delete p -> Format.fprintf fmt "delete where %a" Pred.pp p
  | Update (p, assigns) ->
      Format.fprintf fmt "update set %s where %a"
        (String.concat ", "
           (List.map
              (fun (c, e) -> Format.asprintf "%s = %a" c Pred.pp_expr e)
              assigns))
        Pred.pp p

let apply (table : Table.t) (stmt : t) : Table.t =
  let schema = Table.schema table in
  match stmt with
  | Insert r -> Table.insert table r
  | Delete p ->
      let matches = Pred.compile schema p in
      Table.filter (fun r -> not (matches r)) table
  | Update (p, assigns) ->
      let matches = Pred.compile schema p in
      let compiled =
        List.map
          (fun (c, e) -> (Schema.index schema c, Pred.compile_expr schema e))
          assigns
      in
      Table.map schema
        (fun r ->
          if matches r then (
            (* assignments read the pre-update row [r] *)
            let r' = Array.copy r in
            List.iter (fun (i, f) -> r'.(i) <- f r) compiled;
            r')
          else r)
        table

let apply_all (table : Table.t) (stmts : t list) : Table.t =
  List.fold_left apply table stmts

(** Run a statement on the lens's view, then push the updated view back
    into the source: the updatable-view reading of DML. *)
let through (lens : (Table.t, Table.t) Esm_lens.Lens.t) (stmt : t)
    (source : Table.t) : Table.t =
  let view = Esm_lens.Lens.get lens source in
  Esm_lens.Lens.put lens source (apply view stmt)

(** The row deltas a statement induces on a table:
    [apply table stmt = Row_delta.apply_all table (delta table stmt)].
    Removals precede additions, so an update that permutes rows (e.g. a
    swap) still lands on the right set. *)
let delta (table : Table.t) (stmt : t) : Row_delta.t list =
  let schema = Table.schema table in
  match stmt with
  | Insert r -> if Table.mem table r then [] else [ Row_delta.Add r ]
  | Delete p ->
      let matches = Pred.compile schema p in
      Table.fold
        (fun acc r -> if matches r then Row_delta.Remove r :: acc else acc)
        [] table
  | Update (p, assigns) ->
      let matches = Pred.compile schema p in
      let compiled =
        List.map
          (fun (c, e) -> (Schema.index schema c, Pred.compile_expr schema e))
          assigns
      in
      let removes = ref [] and adds = ref [] in
      Table.iter
        (fun r ->
          if matches r then begin
            let r' = Array.copy r in
            List.iter (fun (i, f) -> r'.(i) <- f r) compiled;
            if not (Row.equal r r') then begin
              removes := Row_delta.Remove r :: !removes;
              adds := Row_delta.Add r' :: !adds
            end
          end)
        table;
      List.rev_append !removes (List.rev !adds)

(** Delta-propagating [through]: compute the statement's deltas on the
    view and push them through {!Rlens.put_delta} instead of replacing
    the whole view. *)
let through_delta (dl : Rlens.dlens) (stmt : t) (source : Table.t) : Table.t =
  let view = Esm_lens.Lens.get dl.Rlens.lens source in
  Rlens.put_delta dl source (delta view stmt)
