(* In-process replays of the black-box run's request log through the
   same store configuration the server builds.

   The primary pass calls each layer's public function in the order
   production composes them: the client's [Wire] and [Envelope] codecs
   and [Frame.encode], the server's [Frame] decoder,
   [Transport.Core.handle_payload], then the same back to the client.
   Run untraced, it is the black-box run without the socket.

   Traced, it records spans, and then times the work production does
   inside [handle_payload], which cannot be timed from outside: one
   shadow pass per layer, each on its own instance built the same way
   and fed the same requests — [Wire.handle] and the row codec (W),
   [Session] (S), [Store] (T), and the packed bx's get/set,
   [Row_delta.apply_all] and the durable log's
   [append_entry]/[write_snapshot] (X).  A shadow span's parent is the
   span of the layer above for the same request.  The passes run one
   after another so only one instance is alive at a time. *)

open Esm_core
open Esm_relational
open Esm_sync
module W = Wire
module Frame = Transport.Frame
module Envelope = Transport.Envelope
module Core = Transport.Core
module Stats = Esm_incr.Stats

let ok_exn = function Ok v -> v | Error e -> failwith (Error.message e)

let next_frame rd =
  match Frame.next rd with
  | Ok (Some p) -> p
  | Ok None -> failwith "replay: incomplete frame"
  | Error e -> failwith (Error.message e)

let sub dir name = Option.map (fun d -> Filename.concat d name) dir

(* Run every request of [log] through [f ~tr i], with tracing off for
   the set-up prefix; returns the measured seconds. *)
let passes ~tr ~measured_from (log : Gen.action array) f : float =
  let off = Trace.create ~on:false in
  for i = 0 to measured_from - 1 do
    f off i
  done;
  let t0 = Stat.now () in
  for i = measured_from to Array.length log - 1 do
    f tr i
  done;
  Stat.now () -. t0

(* {1 The primary pass} *)

type primary = {
  wall : float;  (** measured seconds *)
  head : int;
  hash : string;
  frame_bytes : int;
  received : string array;  (** each request's payload as the server got it *)
  hp : int array;  (** each request's [core.handle_payload] span *)
  gc_before : Gc.stat;
  gc_after : Gc.stat;
}

let primary ?dir ~tr (log : Gen.action array) ~measured_from : primary =
  let store = Served.store ?dir () in
  let core = Core.create (W.serve store) in
  let server_rd = Array.init 2 (fun _ -> Frame.reader ()) in
  let client_rd = Array.init 2 (fun _ -> Frame.reader ()) in
  let ids = [| 0; 0 |] in
  let n = Array.length log in
  let received = Array.make n "" and hp = Array.make n (-1) in
  let frame_bytes = ref 0 in
  let request tr i =
    let a = log.(i) in
    let sess = a.Gen.sess in
    let session = Gen.names.(sess) in
    let body = Trace.span tr "wire.render_request" (fun () -> W.render_request a.Gen.req) in
    ids.(sess) <- ids.(sess) + 1;
    let id = ids.(sess) in
    let payload = Trace.span tr "envelope.codec" (fun () -> Envelope.render_req { Envelope.id; session; body }) in
    let bytes = Trace.span tr "frame.encode" (fun () -> Frame.encode payload) in
    let srd = server_rd.(sess) in
    let got =
      Trace.span tr "frame.decode" (fun () ->
          Frame.push srd bytes;
          next_frame srd)
    in
    let now = Stat.now () in
    let out, span = Trace.span_id tr "core.handle_payload" (fun () -> Core.handle_payload core ~now ~pending:0 got) in
    let rbytes = Trace.span tr "frame.encode" (fun () -> Frame.encode out) in
    let crd = client_rd.(sess) in
    let back =
      Trace.span tr "frame.decode" (fun () ->
          Frame.push crd rbytes;
          next_frame crd)
    in
    let env = Trace.span tr "envelope.codec" (fun () -> ok_exn (Envelope.parse_resp back)) in
    ignore (Trace.span tr "wire.parse_response" (fun () -> W.parse_response env.Envelope.body));
    if i >= measured_from then frame_bytes := !frame_bytes + String.length bytes + String.length rbytes;
    received.(i) <- got;
    hp.(i) <- span
  in
  let off = Trace.create ~on:false in
  for i = 0 to measured_from - 1 do
    request off i
  done;
  Gc.full_major ();
  let gc_before = Gc.quick_stat () in
  let t0 = Stat.now () in
  for i = measured_from to n - 1 do
    request tr i
  done;
  let wall = Stat.now () -. t0 in
  let gc_after = Gc.quick_stat () in
  let hash = Served.rows_hash (Table.rows (Store.view_a_uncached store)) in
  let head = Store.version store in
  Store.close store;
  { wall; head; hash; frame_bytes = !frame_bytes; received; hp; gc_before; gc_after }

(* {1 Shadow passes} *)

let verb = function
  | W.Get -> "get"
  | W.Batch _ -> "batch"
  | W.Pull -> "pull"
  | W.Ping -> "ping"
  | W.Hello _ -> "hello"
  | _ -> "other"

(* W: the envelope and row codecs and [Wire.handle], under each
   request's [core.handle_payload] span. *)
let pass_wire ?dir ~tr log ~measured_from (p : primary) : int array =
  let w = W.serve (Served.store ?dir ()) in
  let spans = Array.make (Array.length log) (-1) in
  ignore
    (passes ~tr ~measured_from log (fun tr i ->
         let parent = p.hp.(i) and session = Gen.names.(log.(i).Gen.sess) in
         let env = Trace.span tr ~parent "envelope.codec" (fun () -> ok_exn (Envelope.parse_req p.received.(i))) in
         let req = Trace.span tr ~parent "wire.parse_request" (fun () -> W.parse_request env.Envelope.body) in
         let resp, span =
           Trace.span_id tr ~parent ("wire.handle." ^ verb req) (fun () -> W.handle w ~session req)
         in
         let body = Trace.span tr ~parent "wire.render_response" (fun () -> W.render_response resp) in
         ignore
           (Trace.span tr ~parent "envelope.codec" (fun () ->
                Envelope.render_resp { Envelope.rid = env.Envelope.id; body }));
         spans.(i) <- span));
  Store.close (W.store w);
  spans

(* Add the measured-phase change of a [Stats] counter to [acc]. *)
let counting ~on name acc f =
  let h0, m0 = Stats.counts name in
  let r = f () in
  let h1, m1 = Stats.counts name in
  if on then begin
    let h, m = !acc in
    acc := (h + h1 - h0, m + m1 - m0)
  end;
  (r, m1 > m0)

let op_of side ds = match side with `A -> Store.Batch_a ds | `B -> Store.Batch_b ds

(* S: [Session.submit_rebase] and [Session.pull] under [Wire.handle]'s
   span.  A view's session step is a dispatch to [Store.view_*], left in
   [Wire.handle]'s self time. *)
let pass_session ?dir ~tr log ~measured_from ~(parents : int array) ~poll : int array =
  let store = Served.store ?dir () in
  let sessions = Array.make 2 None in
  let spans = Array.make (Array.length log) (-1) in
  ignore
    (passes ~tr ~measured_from log (fun tr i ->
         let a = log.(i) and parent = parents.(i) in
         let s () = Option.get sessions.(a.Gen.sess) in
         let on = tr.Trace.on in
         spans.(i) <-
           (match a.Gen.req with
           | W.Hello (name, side) ->
               sessions.(a.Gen.sess) <- Some (Session.bind store ~name ~side);
               -1
           | W.Batch ds ->
               snd
                 (Trace.span_id tr ~parent "session.submit_rebase" (fun () ->
                      counting ~on "session.poll" poll (fun () ->
                          ok_exn (Session.submit_rebase (s ()) (op_of (Session.side (s ())) ds)))))
           | W.Pull ->
               snd
                 (Trace.span_id tr ~parent "session.pull" (fun () ->
                      counting ~on "session.poll" poll (fun () -> Session.pull (s ()))))
           | W.Get -> parent
           | _ -> -1)));
  Store.close store;
  spans

(* T: [Store.commit] under the session span and [Store.view_a]/[view_b]
   under [Wire.handle]'s; also which views missed the cache. *)
let pass_store ?dir ~tr log ~measured_from ~(parents : int array) ~view : int array * bool array =
  let store = Served.store ?dir () in
  let n = Array.length log in
  let spans = Array.make n (-1) and missed = Array.make n false in
  ignore
    (passes ~tr ~measured_from log (fun tr i ->
         let a = log.(i) and parent = parents.(i) in
         let side = Gen.sides.(a.Gen.sess) and session = Gen.names.(a.Gen.sess) in
         match a.Gen.req with
         | W.Batch ds ->
             spans.(i) <-
               snd
                 (Trace.span_id tr ~parent "store.commit" (fun () ->
                      ok_exn (Store.commit ~expect:(Store.version store) ~session store (op_of side ds))))
         | W.Get ->
             let (_, miss), span =
               Trace.span_id tr ~parent "store.view" (fun () ->
                   counting ~on:tr.Trace.on "store.view" view (fun () ->
                       match side with
                       | `A -> ignore (Store.view_a store)
                       | `B -> ignore (Store.view_b store)))
             in
             spans.(i) <- span;
             missed.(i) <- miss
         | _ -> ()));
  Store.close store;
  (spans, missed)

(* X: the packed bx, the delta applier and the durable log, driven the
   way [Store.commit] and a missed [Store.view_*] drive them.  Returns
   the measured durable write syscalls. *)
let pass_bx ?dir ~tr log ~measured_from ~(parents : int array) ~(missed : bool array) : int =
  match Served.packed () with
  | Concrete.Packed r ->
      let bx = r.Concrete.bx in
      let st = ref r.Concrete.init and version = ref 0 and writes = ref 0 in
      let w = Option.map (fun dir -> Durable_log.create ~dir ~fsync:Served.fsync ()) dir in
      ignore
        (passes ~tr ~measured_from log (fun tr i ->
             let a = log.(i) and parent = parents.(i) in
             let side = Gen.sides.(a.Gen.sess) and session = Gen.names.(a.Gen.sess) in
             match a.Gen.req with
             | W.Batch ds -> (
                 (match side with
                 | `A ->
                     let v = Trace.span tr ~parent "bx.get_a" (fun () -> bx.Concrete.get_a !st) in
                     let v' = Trace.span tr ~parent "row_delta.apply" (fun () -> Row_delta.apply_all v ds) in
                     st := Trace.span tr ~parent "bx.set_a" (fun () -> bx.Concrete.set_a v' !st)
                 | `B ->
                     let v = Trace.span tr ~parent "bx.get_b" (fun () -> bx.Concrete.get_b !st) in
                     let v' = Trace.span tr ~parent "row_delta.apply" (fun () -> Row_delta.apply_all v ds) in
                     st := Trace.span tr ~parent "bx.set_b" (fun () -> bx.Concrete.set_b v' !st));
                 incr version;
                 match w with
                 | None -> ()
                 | Some w ->
                     let version = !version in
                     let w0 = Durable_log.writes_performed () in
                     Trace.span tr ~parent "durable_log.append" (fun () ->
                         ok_exn
                           (Durable_log.append_entry w ~version ~session
                              ~payload:(Served.codec.Store.encode_op (op_of side ds))));
                     if version mod Served.snapshot_every = 0 then
                       Trace.span tr ~parent "durable_log.snapshot" (fun () ->
                           ok_exn
                             (Durable_log.write_snapshot w ~version
                                ~payload:(Served.codec.Store.encode_a (bx.Concrete.get_a !st))));
                     if tr.Trace.on then writes := !writes + Durable_log.writes_performed () - w0)
             | W.Get when missed.(i) -> (
                 match side with
                 | `A -> ignore (Trace.span tr ~parent "bx.get_a" (fun () -> bx.Concrete.get_a !st))
                 | `B -> ignore (Trace.span tr ~parent "bx.get_b" (fun () -> bx.Concrete.get_b !st)))
             | _ -> ()));
      Option.iter Durable_log.close w;
      !writes

(* {1 The traced run} *)

type traced = {
  p : primary;
  poll : int * int;  (** session.poll hits, misses *)
  view : int * int;  (** store.view hits, misses *)
  durable_writes : int;
  durable_bytes : int;  (** X's log directory at the end *)
}

let traced ?dir ~tr log ~measured_from : traced =
  let p = primary ?dir:(sub dir "p") ~tr log ~measured_from in
  let between () = Gc.compact () in
  between ();
  let wh = pass_wire ?dir:(sub dir "w") ~tr log ~measured_from p in
  between ();
  let poll = ref (0, 0) and view = ref (0, 0) in
  let ss = pass_session ?dir:(sub dir "s") ~tr log ~measured_from ~parents:wh ~poll in
  between ();
  let sc, missed = pass_store ?dir:(sub dir "t") ~tr log ~measured_from ~parents:ss ~view in
  between ();
  let xdir = sub dir "x" in
  let durable_writes = pass_bx ?dir:xdir ~tr log ~measured_from ~parents:sc ~missed in
  {
    p;
    poll = !poll;
    view = !view;
    durable_writes;
    durable_bytes = (match xdir with Some d -> Proc.dir_bytes d | None -> 0);
  }

let untraced ?dir log ~measured_from : primary =
  primary ?dir:(sub dir "p") ~tr:(Trace.create ~on:false) log ~measured_from
