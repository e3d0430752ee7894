(* The store configuration [esm_syncd --listen] serves: the employees
   table (seed 11, 48 rows) behind the Engineering where|select lens,
   snapshots every 8 commits, [Row_delta.apply_all] appliers and, with
   [--dir], a durable log under [Fsync_every 8].  The in-process
   replays build their instances from here; the correctness gate's
   view-hash comparison against the real server catches any drift. *)

open Esm_core
open Esm_relational
open Esm_sync

let eng_lens =
  Query.lens_of_string ~schema:Workload.employees_schema ~key:[ "id" ]
    {|employees | where dept = "Engineering" | select id, name, dept|}

let schema_b =
  Table.schema (Esm_lens.Lens.get eng_lens (Workload.employees ~seed:1 ~size:1))

let codec = Wire.durable_op_codec ~schema_a:Workload.employees_schema ~schema_b
let snapshot_every = 8
let fsync = Durable_log.Fsync_every 8

let packed () =
  Concrete.packed_of_lens ~vwb:false
    ~init:(Workload.employees ~seed:11 ~size:48)
    ~eq_state:Table.equal eng_lens

let store ?dir () : Wire.rstore =
  let persist = Option.map (fun dir -> Store.persist ~fsync ~dir codec) dir in
  Store.of_packed ~name:"employees" ~snapshot_every
    ~apply_da:Row_delta.apply_all ~apply_db:Row_delta.apply_all ?persist
    (packed ())

(* The digest the gate compares: the A view's rows in the wire's row
   grammar, in table order. *)
let rows_hash (rows : Row.t list) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string b (Wire.render_row r);
      Buffer.add_char b '\n')
    rows;
  Digest.to_hex (Digest.string (Buffer.contents b))
