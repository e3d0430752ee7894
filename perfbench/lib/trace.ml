(* Spans recorded from the benchmark's own calls into each layer.  A
   span has a name, a duration, the span that caused it (-1 for a
   request's top level) and whether it is a shadow: a call made on an
   identically built shadow instance, standing in for work that in
   production happens inside its parent's call.  Spans stay in memory
   and are aggregated once at the end. *)

type t = {
  on : bool;
  mutable names : string array;
  mutable parents : int array;
  mutable durs : float array;
  mutable n : int;
}

let create ~on =
  { on; names = Array.make 1024 ""; parents = Array.make 1024 0; durs = Array.make 1024 0.0; n = 0 }

let grow t =
  let m = 2 * Array.length t.names in
  let ext a d =
    let b = Array.make m d in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- ext t.names "";
  t.parents <- ext t.parents 0;
  t.durs <- ext t.durs 0.0

(* Run [f] as a span; returns its result and the span's id (-1 when
   tracing is off). *)
let span_id t ?(parent = -1) name f =
  if not t.on then (f (), -1)
  else begin
    if t.n = Array.length t.names then grow t;
    let id = t.n in
    t.n <- id + 1;
    t.names.(id) <- name;
    t.parents.(id) <- parent;
    let t0 = Stat.now () in
    let r = f () in
    t.durs.(id) <- Stat.now () -. t0;
    (r, id)
  end

let span t ?parent name f = fst (span_id t ?parent name f)

type layer = { calls : int; total : float; self : float }

(* Per-name calls, total seconds and self seconds (duration minus the
   children's durations).  Also the summed duration of the top-level
   spans. *)
let aggregate t : (string, layer) Hashtbl.t * float =
  let child = Array.make t.n 0.0 in
  let top = ref 0.0 in
  for i = 0 to t.n - 1 do
    let p = t.parents.(i) in
    if p >= 0 then child.(p) <- child.(p) +. t.durs.(i) else top := !top +. t.durs.(i)
  done;
  let h = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let name = t.names.(i) in
    let l = Option.value (Hashtbl.find_opt h name) ~default:{ calls = 0; total = 0.0; self = 0.0 } in
    Hashtbl.replace h name
      { calls = l.calls + 1; total = l.total +. t.durs.(i); self = l.self +. t.durs.(i) -. child.(i) }
  done;
  (h, !top)
