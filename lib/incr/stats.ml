(* The process-wide counter registry; see stats.mli. *)

type counter = int ref

let table : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter (name : string) : counter =
  match Hashtbl.find_opt table name with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.replace table name c;
      c

let bump (c : counter) = incr c
let add (c : counter) n = c := !c + n

let get name =
  match Hashtbl.find_opt table name with None -> 0 | Some c -> !c

let since () =
  let base = Hashtbl.create (Hashtbl.length table) in
  Hashtbl.iter (fun name c -> Hashtbl.replace base name !c) table;
  fun name -> get name - Option.value (Hashtbl.find_opt base name) ~default:0

type memo = { hits : counter; misses : counter }

let memo name = { hits = counter (name ^ ".hit"); misses = counter (name ^ ".miss") }
let hit m = bump m.hits
let miss m = bump m.misses
let counts name = (get (name ^ ".hit"), get (name ^ ".miss"))

(* zero in place: cells resolved at module initialisation stay live *)
let reset () = Hashtbl.iter (fun _ c -> c := 0) table
