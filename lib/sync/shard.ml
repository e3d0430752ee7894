(** Sharded stores with gossip replication.

    One entangled cell ({!Store}) scales by splitting its state across
    [N] shards with a deterministic key→shard router: every operation
    is routed to the shards owning the rows it touches and committed
    there through the ordinary transactional path, so each shard keeps
    the single-store guarantees (atomic commits, optimistic checks,
    crash recovery) over its partition.

    Replication is anti-entropy gossip over {!Oplog.entries_since}:
    shard [i] holds a {!Store.follower} replica of every peer [j], and
    each gossip round pulls the peer's oplog suffix above the
    follower's high-water mark (its version) and replays it.  When the
    peer has compacted below that mark, {!Store.read_since} answers
    [`Resync] with its latest snapshot and the follower restarts from
    it — the typed "below retained horizon" protocol instead of a
    silently empty suffix.  Once gossip quiesces every follower sits at
    its peer's head, and the cross-shard convergence invariant — all
    shards reconstruct the same entangled whole from their own
    partition plus their replicas — is checkable ({!Relational.converged}).

    Chaos site: ["shard.gossip"] fires per directed edge per round; an
    injected fault drops that edge for the round (a lost gossip
    exchange), which anti-entropy absorbs by retrying next round. *)

open Esm_core
module Stats = Esm_incr.Stats

let gossip_site = "shard.gossip"
let rounds = Stats.counter "gossip.rounds"
let shipped = Stats.counter "gossip.shipped"
let resyncs = Stats.counter "gossip.resyncs"
let skipped_edges = Stats.counter "gossip.skipped_edges"

type ('a, 'b, 'da, 'db) t = {
  stores : ('a, 'b, 'da, 'db) Store.t array;
  route :
    ('a, 'b, 'da, 'db) Store.op -> (int * ('a, 'b, 'da, 'db) Store.op) list;
  followers : ('a, 'b, 'da, 'db) Store.follower option array array;
      (** [followers.(i).(j)]: shard [i]'s replica of peer [j]; [None]
          on the diagonal *)
}

let make ~(stores : ('a, 'b, 'da, 'db) Store.t array)
    ~(route :
       ('a, 'b, 'da, 'db) Store.op -> (int * ('a, 'b, 'da, 'db) Store.op) list)
    () : ('a, 'b, 'da, 'db) t =
  let n = Array.length stores in
  if n = 0 then invalid_arg "Shard.make: no stores";
  let followers =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then None else Some (Store.follower stores.(j))))
  in
  { stores; route; followers }

let shards (t : ('a, 'b, 'da, 'db) t) : int = Array.length t.stores
let store (t : ('a, 'b, 'da, 'db) t) (i : int) : ('a, 'b, 'da, 'db) Store.t =
  t.stores.(i)

let heads (t : ('a, 'b, 'da, 'db) t) : int array =
  Array.map Store.head_version t.stores

(** Route one logical operation and commit each part at its owning
    shard, returning the per-shard outcomes in routing order.  Parts
    commit independently — sharding trades the single cell's atomicity
    for scale, which is why the router must split along key boundaries
    (each row has exactly one owner, so a partial failure leaves no
    row half-updated).  A router that throws a typed error yields one
    [(-1, Error _)] outcome. *)
let submit (t : ('a, 'b, 'da, 'db) t) ~(session : string)
    (op : ('a, 'b, 'da, 'db) Store.op) :
    (int * (int, Error.t) result) list =
  match Atomic.attempt t.route op with
  | Error e -> [ (-1, Error e) ]
  | Ok parts ->
      List.map
        (fun (i, sub) ->
          if i < 0 || i >= Array.length t.stores then
            ( i,
              Error
                (Error.v Error.Other ~op:"submit"
                   (Printf.sprintf "router returned shard %d of %d" i
                      (Array.length t.stores))) )
          else (i, Store.commit ~session t.stores.(i) sub))
        parts

(* One directed edge of a gossip round: shard [i] pulls peer [j]'s
   suffix above its replica's high-water mark.  A [`Resync] answer
   (the mark fell below [j]'s compaction horizon) restarts the replica
   from the snapshot, then drains the remaining suffix in the same
   exchange. *)
let gossip_edge (t : ('a, 'b, 'da, 'db) t) (i : int) (j : int) : unit =
  match t.followers.(i).(j) with
  | None -> ()
  | Some f -> (
      let drain () =
        match Store.read_since t.stores.(j) (Store.follower_version f) with
        | `Entries es ->
            List.iter (Store.follower_apply f) es;
            Stats.add shipped (List.length es)
        | `Resync (v, a) ->
            Store.follower_resync f ~version:v a;
            Stats.bump resyncs;
            let es = Store.entries_since t.stores.(j) v in
            List.iter (Store.follower_apply f) es;
            Stats.add shipped (List.length es)
      in
      try
        Chaos.point gossip_site;
        drain ()
      with exn when Error.degradable_exn exn ->
        (* a dropped exchange: the edge stays behind this round and
           anti-entropy retries it next round *)
        Chaos.note_fallback gossip_site;
        Stats.bump skipped_edges)

let gossip_round (t : ('a, 'b, 'da, 'db) t) : unit =
  let n = Array.length t.stores in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then gossip_edge t i j
    done
  done;
  Stats.bump rounds

(** Every follower at its peer's head?  (The version check suffices:
    follower replay is deterministic, so equal versions mean equal
    states — the view-level check is {!Relational.converged}.) *)
let in_sync (t : ('a, 'b, 'da, 'db) t) : bool =
  let n = Array.length t.stores in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      match t.followers.(i).(j) with
      | None -> ()
      | Some f ->
          if Store.follower_version f <> Store.version t.stores.(j) then
            ok := false
    done
  done;
  !ok

let gossip_until_quiescent ?(max_rounds = 64) (t : ('a, 'b, 'da, 'db) t) :
    bool =
  let rec go n =
    if in_sync t then true
    else if n = 0 then false
    else begin
      gossip_round t;
      go (n - 1)
    end
  in
  go max_rounds

(* ------------------------------------------------------------------ *)
(* Relational instantiation: row routers and view-level convergence    *)
(* ------------------------------------------------------------------ *)

module Relational = struct
  open Esm_relational

  type rop = (Table.t, Table.t, Row_delta.t, Row_delta.t) Store.op
  type rt = (Table.t, Table.t, Row_delta.t, Row_delta.t) t

  let hash_router ~(shards : int) ~(key : string list) (schema : Schema.t) :
      Row.t -> int =
    if shards <= 0 then invalid_arg "Shard.Relational.hash_router: shards";
    let idx = List.map (Schema.index schema) key in
    fun row ->
      let vals = List.map (List.nth (Row.to_list row)) idx in
      Hashtbl.hash vals mod shards

  let range_router ~(bounds : Value.t list) ~(key : string)
      (schema : Schema.t) : Row.t -> int =
    let i = Schema.index schema key in
    fun row ->
      let v = List.nth (Row.to_list row) i in
      (* shard = how many range bounds sit at or below the key *)
      List.length (List.filter (fun b -> Value.compare b v <= 0) bounds)

  let row_of_delta = function Row_delta.Add r -> r | Row_delta.Remove r -> r

  (* Split one logical op along row ownership.  Whole-view sets reach
     *every* shard (a shard whose partition came out empty must still be
     overwritten — its previous rows were deleted); delta bursts reach
     only the shards owning touched rows. *)
  let route_op ~(shards : int) ~(shard_of_row : Row.t -> int) (op : rop) :
      (int * rop) list =
    let partition (tbl : Table.t) : Table.t array =
      let schema = Table.schema tbl in
      let buckets = Array.make shards [] in
      List.iter
        (fun r ->
          let i = shard_of_row r in
          buckets.(i) <- r :: buckets.(i))
        (Table.rows tbl);
      Array.map (fun rows -> Table.of_rows schema (List.rev rows)) buckets
    in
    let grouped (ds : Row_delta.t list) : (int * Row_delta.t list) list =
      let buckets = Array.make shards [] in
      List.iter
        (fun d ->
          let i = shard_of_row (row_of_delta d) in
          buckets.(i) <- d :: buckets.(i))
        ds;
      Array.to_list buckets
      |> List.mapi (fun i ds -> (i, List.rev ds))
      |> List.filter (fun (_, ds) -> ds <> [])
    in
    match op with
    | Store.Set_a tbl ->
        Array.to_list (partition tbl)
        |> List.mapi (fun i p -> (i, Store.Set_a p))
    | Store.Set_b tbl ->
        Array.to_list (partition tbl)
        |> List.mapi (fun i p -> (i, Store.Set_b p))
    | Store.Batch_a ds ->
        List.map (fun (i, ds) -> (i, Store.Batch_a ds)) (grouped ds)
    | Store.Batch_b ds ->
        List.map (fun (i, ds) -> (i, Store.Batch_b ds)) (grouped ds)

  (* Shard [i]'s reconstruction of the whole view: its own partition
     union every replica's.  Sound for row-wise views (select/where and
     per-row projections distribute over union). *)
  let full_view_a (t : rt) (i : int) : Table.t =
    Array.fold_left
      (fun acc f ->
        match f with
        | None -> acc
        | Some f -> Table.union acc (Store.follower_view_a f))
      (Store.view_a t.stores.(i))
      t.followers.(i)

  let full_view_b (t : rt) (i : int) : Table.t =
    Array.fold_left
      (fun acc f ->
        match f with
        | None -> acc
        | Some f -> Table.union acc (Store.follower_view_b f))
      (Store.view_b t.stores.(i))
      t.followers.(i)

  (* The authoritative whole: the union of every shard's own partition
     — what a single unsharded store would hold. *)
  let authoritative_a (t : rt) : Table.t =
    match Array.to_list (Array.map Store.view_a t.stores) with
    | [] -> assert false
    | v :: vs -> List.fold_left Table.union v vs

  let authoritative_b (t : rt) : Table.t =
    match Array.to_list (Array.map Store.view_b t.stores) with
    | [] -> assert false
    | v :: vs -> List.fold_left Table.union v vs

  (* The cross-shard convergence invariant, view-level: once gossip
     quiesces, every shard reconstructs the same entangled whole on
     both sides, and it is the authoritative union. *)
  let converged (t : rt) : bool =
    in_sync t
    &&
    let a = authoritative_a t and b = authoritative_b t in
    let ok = ref true in
    for i = 0 to Array.length t.stores - 1 do
      if
        (not (Table.equal (full_view_a t i) a))
        || not (Table.equal (full_view_b t i) b)
      then ok := false
    done;
    !ok
end
