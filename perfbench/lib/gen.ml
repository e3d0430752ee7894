(* The seeded request streams.  A generator only decides what to send;
   it never talks to a server itself.  [step] hands each request to an
   executor and reads the reply back, because the growing-table mix
   removes rows it has read.  The same seed therefore gives the same
   stream against any server that answers the same way. *)

open Esm_relational
module W = Esm_sync.Wire

type workload = Grow | Edit | Read

let workloads = [ ("grow", Grow); ("edit", Edit); ("read", Read) ]

(* Session 0 is bound to the A side, session 1 to the B side. *)
let a_sess = 0
let b_sess = 1
let sides : Esm_sync.Session.side array = [| `A; `B |]
let names = [| "bench-a"; "bench-b" |]

type action = { sess : int; req : W.request }

(* Live row ids with O(1) random pick and removal. *)
module Pool = struct
  type t = {
    mutable ids : int array;
    mutable n : int;
    pos : (int, int) Hashtbl.t;
  }

  let create () = { ids = Array.make 1024 0; n = 0; pos = Hashtbl.create 1024 }
  let size p = p.n

  let add p id =
    if not (Hashtbl.mem p.pos id) then begin
      if p.n = Array.length p.ids then begin
        let a = Array.make (2 * p.n) 0 in
        Array.blit p.ids 0 a 0 p.n;
        p.ids <- a
      end;
      p.ids.(p.n) <- id;
      Hashtbl.replace p.pos id p.n;
      p.n <- p.n + 1
    end

  let remove p id =
    match Hashtbl.find_opt p.pos id with
    | None -> ()
    | Some i ->
        let last = p.ids.(p.n - 1) in
        p.ids.(i) <- last;
        Hashtbl.replace p.pos last i;
        Hashtbl.remove p.pos id;
        p.n <- p.n - 1

  let pick p r = p.ids.(Workload.int r p.n)
end

type t = {
  workload : workload;
  rng : Workload.rng;
  mutable step_no : int;
  mutable fresh : int;
  seen : Row.t array array;  (** grow: each session's last full view *)
  rows : (int, Row.t) Hashtbl.t;  (** edit/read: the client's A table *)
  all : Pool.t;  (** ids of every A row *)
  eng : Pool.t;  (** ids of the rows the B view shows *)
}

let create workload ~seed =
  {
    workload;
    rng = Workload.rng ~seed:((2 * seed) + 1) (* [Workload.rng] ignores the low bit *);
    step_no = 0;
    fresh = 1_000_000;
    seen = [| [||]; [||] |];
    rows = Hashtbl.create 4096;
    all = Pool.create ();
    eng = Pool.create ();
  }

let next_id g =
  g.fresh <- g.fresh + 1;
  g.fresh

let int_of (v : Value.t) = match v with Value.Int i -> i | _ -> 0
let str_of (v : Value.t) = match v with Value.Str s -> s | _ -> ""
let eng = "Engineering"
let depts = [ eng; "Sales"; "Support"; "Finance"; "Ops" ]

let a_row ~id ~name ~dept ~salary ~email =
  Row.of_list
    [ Value.Int id; Value.Str name; Value.Str dept; Value.Int salary; Value.Str email ]

(* The B view of an A row, as the where|select lens computes it. *)
let b_of_a (a : Row.t) : Row.t =
  match Row.to_list a with
  | id :: name :: dept :: _ -> Row.of_list [ id; name; dept ]
  | _ -> a

let id_of (r : Row.t) = int_of (List.hd (Row.to_list r))
let dept_of (r : Row.t) = str_of (List.nth (Row.to_list r) 2)

(* {1 The client's model of the A table (edit and read)} *)

let model_add g (a : Row.t) =
  let id = id_of a in
  Hashtbl.replace g.rows id a;
  Pool.add g.all id;
  if dept_of a = eng then Pool.add g.eng id

let model_remove g id =
  Hashtbl.remove g.rows id;
  Pool.remove g.all id;
  Pool.remove g.eng id

let model g = Hashtbl.fold (fun _ a acc -> a :: acc) g.rows []

(* Seed the model from the server's initial A view. *)
let observe_initial g (rows : Row.t list) = List.iter (model_add g) rows

let fresh_a_row g =
  let id = next_id g in
  let name = Workload.pick g.rng [ "nu"; "xi"; "pi"; "rho" ] ^ string_of_int id in
  a_row ~id ~name ~dept:(Workload.pick g.rng depts)
    ~salary:(40_000 + (500 * Workload.int g.rng 100))
    ~email:(name ^ "@example.com")

(* Rows added into the model are the rows the server will hold: a
   fresh B row gets the lens's per-type defaults for the hidden
   columns; a B-side rename keeps the hidden columns by key. *)
let point_edit g ~sess : Row_delta.t list =
  let r = g.rng in
  let op = Workload.int r 3 in
  if sess = a_sess then
    if op = 0 || Pool.size g.all = 0 then begin
      let a = fresh_a_row g in
      model_add g a;
      [ Row_delta.Add a ]
    end
    else
      let old = Hashtbl.find g.rows (Pool.pick g.all r) in
      if op = 1 then begin
        model_remove g (id_of old);
        [ Row_delta.Remove old ]
      end
      else
        match Row.to_list old with
        | [ id; name; dept; Value.Int salary; email ] ->
            let a =
              Row.of_list
                [ id; name; dept; Value.Int (salary + 500 + (500 * Workload.int r 4)); email ]
            in
            model_remove g (int_of id);
            model_add g a;
            [ Row_delta.Remove old; Row_delta.Add a ]
        | _ -> [ Row_delta.Remove old ]
  else if op = 0 || Pool.size g.eng = 0 then begin
    let id = next_id g in
    let name = Workload.pick r [ "nu"; "xi"; "pi"; "rho" ] ^ string_of_int id in
    let b = Row.of_list [ Value.Int id; Value.Str name; Value.Str eng ] in
    model_add g
      (a_row ~id ~name ~dept:eng
         ~salary:(int_of (Value.default_of_type Value.Tint))
         ~email:(str_of (Value.default_of_type Value.Tstr)));
    [ Row_delta.Add b ]
  end
  else
    let old = Hashtbl.find g.rows (Pool.pick g.eng r) in
    if op = 1 then begin
      model_remove g (id_of old);
      [ Row_delta.Remove (b_of_a old) ]
    end
    else
      match Row.to_list old with
      | id :: _ :: rest ->
          let name = Value.Str (Workload.pick r [ "tau"; "phi"; "chi"; "psi" ] ^ string_of_int (int_of id)) in
          let a = Row.of_list (id :: name :: rest) in
          model_remove g (int_of id);
          model_add g a;
          [ Row_delta.Remove (b_of_a old); Row_delta.Add (b_of_a a) ]
      | _ -> [ Row_delta.Remove (b_of_a old) ]

(* {1 Pre-growing (edit and read set-up)} *)

let pregrow_batch = 1024

(* A-side batches that grow the table to [rows] rows. *)
let pregrow g ~rows : action list =
  let missing = max 0 (rows - Pool.size g.all) in
  let rec batches left acc =
    if left <= 0 then List.rev acc
    else
      let k = min pregrow_batch left in
      let ds =
        List.init k (fun _ ->
            let a = fresh_a_row g in
            model_add g a;
            Row_delta.Add a)
      in
      batches (left - k) ({ sess = a_sess; req = W.Batch ds } :: acc)
  in
  batches missing []

(* {1 The measured streams} *)

type exec = action -> W.response option
(** Send one request and return its reply, [None] when it failed. *)

let new_grow_row g ~sess =
  let id = next_id g in
  let r = g.rng in
  let name = Workload.pick r [ "nu"; "xi"; "pi"; "rho" ] ^ string_of_int id in
  if sess = a_sess then
    a_row ~id ~name
      ~dept:(Workload.pick r [ eng; "Sales"; "Ops" ])
      ~salary:(40_000 + (500 * Workload.int r 100))
      ~email:(name ^ "@example.com")
  else Row.of_list [ Value.Int id; Value.Str name; Value.Str eng ]

(* The esm_syncd remote mix over a growing table: every step commits
   1-3 new rows, one time in three also removing a row its session
   last read; every 5th step reads the full view first, every 11th
   pings, one in four ends with a pull. *)
let grow_step g (exec : exec) =
  let r = g.rng and i = g.step_no in
  let sess = Workload.int r 2 in
  if i mod 5 = 0 then begin
    match exec { sess; req = W.Get } with
    | Some (W.Resp_view (_, rows)) -> g.seen.(sess) <- Array.of_list rows
    | _ -> ()
  end;
  if i mod 11 = 0 then ignore (exec { sess; req = W.Ping });
  let adds =
    List.init (1 + Workload.int r 3) (fun _ -> Row_delta.Add (new_grow_row g ~sess))
  in
  let seen = g.seen.(sess) in
  let ds =
    if Array.length seen > 0 && Workload.int r 3 = 0 then
      Row_delta.Remove seen.(Workload.int r (Array.length seen)) :: adds
    else adds
  in
  ignore (exec { sess; req = W.Batch ds });
  if Workload.int r 4 = 0 then ignore (exec { sess; req = W.Pull })

(* Balanced point edits on a large table, both sides, plus pulls; no
   full views. *)
let edit_step g (exec : exec) =
  let sess = Workload.int g.rng 2 in
  ignore (exec { sess; req = W.Batch (point_edit g ~sess) });
  if Workload.int g.rng 4 = 0 then
    ignore (exec { sess = Workload.int g.rng 2; req = W.Pull })

(* Full views, alternating sides.  Every [read_write_every]th step
   first commits a burst of [read_burst] one-row edits, so the next
   view on each side misses the version-keyed view cache and the other
   views of the cycle hit: 2 misses in 8 views. *)
let read_write_every = 8
let read_burst = 4

let read_step g (exec : exec) =
  let i = g.step_no in
  if i mod read_write_every = 0 then
    for k = 0 to read_burst - 1 do
      let sess = k mod 2 in
      ignore (exec { sess; req = W.Batch (point_edit g ~sess) })
    done;
  ignore (exec { sess = i mod 2; req = W.Get });
  if i mod 4 = 2 then ignore (exec { sess = (i + 1) mod 2; req = W.Pull })

let step g exec =
  g.step_no <- g.step_no + 1;
  match g.workload with
  | Grow -> grow_step g exec
  | Edit -> edit_step g exec
  | Read -> read_step g exec

(* Steps in one measured round: about 2 s of work here, so a run holds
   several rounds to take medians over. *)
let round_steps ~toy = function
  | Grow -> if toy then 100 else 1000
  | Edit -> if toy then 200 else 500
  | Read -> if toy then 40 else 120

(* Table size the set-up grows the server to before measuring. *)
let pregrow_rows ~toy = function
  | Grow -> 0
  | Edit -> if toy then 512 else 16_384
  | Read -> if toy then 256 else 4_096
