(* One benchmark run: the black-box socket run, the untraced in-process
   replay the gate compares against and, with tracing on, the traced
   replay the per-layer metrics come from. *)

type metric = { name : string; unit : string; value : float }

(* The bounded end-to-end metrics: present and non-zero on every
   workload, and the steadiest from run to run (their bounds live in
   BENCHMARK.json).  Latencies are not among them: on shared hardware
   they swing with the neighbours' load more than throughput does, and
   commit latency is bimodal (cheap A-side, full-put B-side commits), so
   its median jumps between the two modes from seed to seed. *)
let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("server_rss_mb", "MB") ]

(* Timed layers: span name and the name of its mean-per-call metric.
   Each also reports [<span>.calls], [<span>.total_ms] and
   [<span>.self_share]. *)
let layers =
  [
    ("bx.set_b", "bx.set_b_ms");
    ("bx.get_b", "bx.get_b_ms");
    ("bx.set_a", "bx.set_a_ms");
    ("bx.get_a", "bx.get_a_ms");
    ("row_delta.apply", "row_delta.apply_ms");
    ("store.commit", "store.commit_ms");
    ("session.submit_rebase", "session.submit_rebase_ms");
    ("wire.render_response", "wire.render_response_ms");
    ("wire.parse_response", "wire.parse_response_ms");
    ("wire.render_request", "wire.render_request_ms");
    ("wire.parse_request", "wire.parse_request_ms");
    ("frame.encode", "frame.encode_ms");
    ("frame.decode", "frame.decode_ms");
    ("envelope.codec", "envelope.codec_ms");
    ("store.view", "store.view_ms");
    ("durable_log.append", "durable_log.append_ms");
    ("durable_log.snapshot", "durable_log.snapshot_ms");
    ("core.handle_payload", "core.handle_payload_ms");
    ("wire.handle.get", "wire.handle_ms.get");
    ("wire.handle.batch", "wire.handle_ms.batch");
    ("wire.handle.pull", "wire.handle_ms.pull");
    ("wire.handle.ping", "wire.handle_ms.ping");
    ("session.pull", "session.pull_ms");
  ]

let other_layer_metrics =
  [
    ("frame.bytes", "bytes");
    ("store.view_hit_ratio", "ratio");
    ("session.poll_hit_ratio", "ratio");
    ("durable_log.writes", "count");
    ("durable_log.bytes", "bytes");
    ("gc.top_heap_mb", "MB");
    ("gc.major_collections", "count");
    ("gc.minor_mb_per_op", "MB");
    ("core.requests", "count");
    ("core.dedup_hits", "count");
    ("core.overloads", "count");
    ("remote_session.requests", "count");
    ("remote_session.sends", "count");
    ("remote_session.wait_ms", "ms");
    ("remote_session.busy_ms", "ms");
    ("remote_session.bytes_in", "bytes");
    ("remote_session.bytes_out", "bytes");
    ("trace.unattributed_share", "share");
    ("trace.overhead_share", "share");
    ("ipc.share", "share");
    ("trace.row_codec_share", "share");
    ("trace.commit_share", "share");
    ("commit_p50_ms", "ms");
    ("commit_p99_ms", "ms");
    ("commit_late_early_ratio", "ratio");
    ("read_p50_ms", "ms");
    ("read_p99_ms", "ms");
    ("pull_p50_ms", "ms");
    ("log_bytes_per_user_byte", "ratio");
    ("error_rate", "ratio");
    ("commit.samples", "count");
    ("read.samples", "count");
    ("pull.samples", "count");
  ]

let per_layer =
  List.concat_map
    (fun (span, mean) ->
      [ (mean, "ms"); (span ^ ".calls", "count"); (span ^ ".total_ms", "ms"); (span ^ ".self_share", "share") ])
    layers
  @ other_layer_metrics

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  violations : string list;
  metrics : metric list;  (** in the order of the chosen list *)
  detail : metric list;  (** the end-to-end extras a trace-0 run does not print *)
}

let ms s = 1000.0 *. s
let ratio a b = if b > 0.0 then a /. b else 0.0
let fi = float_of_int

let pick names (values : (string * float) list) : metric list =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some v -> { name; unit; value = (if Float.is_finite v then v else 0.0) }
      | None -> invalid_arg ("Bench: no value for metric " ^ name))
    names

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let run ~exe ~run_dir ~workload ~seed ~seconds ~trace ~toy : outcome =
  (* Grow sets up a fresh server for every round; edit and read set up
     three times and measure on the last, so setup_s is a median too. *)
  let setups = if toy || workload = Gen.Grow then 1 else 3 in
  let bb = Blackbox.run ~exe ~run_dir ~workload ~seed ~seconds ~toy ~setups in
  let segs = bb.segments in
  (* Each server's log replays on fresh instances of its own. *)
  let replay_dir name i =
    if workload = Gen.Grow then Some (Filename.concat run_dir (Printf.sprintf "%s%d" name i)) else None
  in
  let head (s : Blackbox.segment) = match s.drained with Some d -> d.Proc.head | None -> -1 in
  let untraced =
    List.mapi (fun i (s : Blackbox.segment) -> Replay.untraced ?dir:(replay_dir "untraced" i) s.log ~measured_from:s.measured_from) segs
  in
  let violations =
    List.concat
      (List.map2
         (fun (s : Blackbox.segment) (u : Replay.primary) ->
           (if s.drained = None then [ "the server did not report its head" ] else [])
           @ Gate.violations
               {
                 Gate.head = head s;
                 acked = s.acked;
                 unresolved = s.unresolved;
                 pulled = s.pulled;
                 view_hash = s.view_hash;
                 model_hash = s.model_hash;
                 replay_head = u.Replay.head;
                 replay_hash = u.hash;
               })
         segs untraced)
  in
  let tr = Trace.create ~on:true in
  let traced, fidelity =
    if not trace then ([], [])
    else
      List.split
        (List.mapi
           (fun i (s : Blackbox.segment) ->
             let t = Replay.traced ?dir:(replay_dir "traced" i) ~tr s.log ~measured_from:s.measured_from in
             (t, Gate.fidelity ~head:(head s) ~view_hash:s.view_hash ~traced_head:t.Replay.p.head ~traced_hash:t.p.hash))
           segs)
  in
  let violations = violations @ List.concat fidelity in
  let failed = bb.failed + List.length violations in
  let violations = Gate.failed_requests bb.failed @ violations in
  let complete = List.filter (fun (r : Blackbox.round) -> r.complete) bb.rounds in
  let rounds = if complete = [] then bb.rounds else complete in
  let round_median f = Stat.median_list (List.map f rounds) in
  let seg_median f = Stat.median_list (List.map f segs) in
  let measured = sum (fun (r : Blackbox.round) -> r.dt) bb.rounds in
  let steps = fi (max 1 bb.steps) in
  let e2e =
    [
      ("setup_s", Stat.median_list bb.setup_s);
      ("ops_per_s", round_median (fun r -> ratio (fi r.Blackbox.steps) r.dt));
      ("server_rss_mb", seg_median (fun s -> s.Blackbox.rss_mb));
      ("commit_p50_ms", ms (Stat.median bb.commits));
      ("commit_p99_ms", ms (Stat.p99 bb.commits));
      ("commit_late_early_ratio", seg_median (fun s -> Stat.late_early_ratio s.Blackbox.seg_commits));
      ("read_p50_ms", ms (Stat.median bb.reads));
      ("read_p99_ms", ms (Stat.p99 bb.reads));
      ("pull_p50_ms", ms (Stat.median bb.pulls));
      ( "log_bytes_per_user_byte",
        ratio (fi (isum (fun s -> s.Blackbox.log_bytes) segs)) (fi (isum (fun (s : Blackbox.segment) -> s.user_bytes) segs)) );
      ("error_rate", ratio (fi failed) (fi bb.attempted));
      ("commit.samples", fi (Stat.count bb.commits));
      ("read.samples", fi (Stat.count bb.reads));
      ("pull.samples", fi (Stat.count bb.pulls));
    ]
  in
  let detail_names = List.filter (fun (n, _) -> List.mem_assoc n e2e) other_layer_metrics in
  let metrics =
    if not trace then pick end_to_end e2e
    else
      let agg, top = Trace.aggregate tr in
      let primary = sum (fun (t : Replay.traced) -> t.p.Replay.wall) traced in
      let layer name = Option.value (Hashtbl.find_opt agg name) ~default:{ Trace.calls = 0; total = 0.0; self = 0.0 } in
      let per_span =
        List.concat_map
          (fun (span, mean) ->
            let l = layer span in
            [
              (mean, ratio (ms l.Trace.total) (fi l.calls));
              (span ^ ".calls", fi l.calls);
              (span ^ ".total_ms", ms l.total);
              (span ^ ".self_share", ratio l.self primary);
            ])
          layers
      in
      let hits f = List.fold_left (fun (h, m) t -> let h', m' = f t in (h + h', m + m')) (0, 0) traced in
      let hit_ratio (h, m) = ratio (fi h) (fi (h + m)) in
      let total name = (layer name).Trace.total in
      let drained f = fi (isum (fun s -> match s.Blackbox.drained with Some d -> f d | None -> 0) segs) in
      let untraced_wall = sum (fun (u : Replay.primary) -> u.wall) untraced in
      let bb_step = measured /. steps and untraced_step = untraced_wall /. steps in
      let word_mb = fi (Sys.word_size / 8) /. 1048576.0 in
      let gc f = isum (fun (t : Replay.traced) -> f t.p.gc_after - f t.p.gc_before) traced in
      let values =
        per_span
        @ [
            ("frame.bytes", fi (isum (fun (t : Replay.traced) -> t.p.frame_bytes) traced));
            ("store.view_hit_ratio", hit_ratio (hits (fun t -> t.Replay.view)));
            ("session.poll_hit_ratio", hit_ratio (hits (fun t -> t.Replay.poll)));
            ("durable_log.writes", fi (isum (fun (t : Replay.traced) -> t.durable_writes) traced));
            ("durable_log.bytes", fi (isum (fun (t : Replay.traced) -> t.durable_bytes) traced));
            ("gc.top_heap_mb", fi (Gc.quick_stat ()).Gc.top_heap_words *. word_mb);
            ("gc.major_collections", fi (gc (fun g -> g.Gc.major_collections)));
            ( "gc.minor_mb_per_op",
              sum (fun (t : Replay.traced) -> t.p.gc_after.Gc.minor_words -. t.p.gc_before.minor_words) traced
              *. word_mb /. steps );
            ("core.requests", drained (fun d -> d.Proc.requests));
            ("core.dedup_hits", drained (fun d -> d.Proc.dedup_hits));
            ("core.overloads", drained (fun d -> d.Proc.overloads));
            ("remote_session.requests", fi bb.ep.Blackbox.requests);
            ("remote_session.sends", fi bb.ep.sends);
            ("remote_session.wait_ms", ms bb.ep.wait);
            ("remote_session.busy_ms", ms bb.busy);
            ("remote_session.bytes_in", fi bb.ep.bytes_in);
            ("remote_session.bytes_out", fi bb.ep.bytes_out);
            ("trace.unattributed_share", ratio (primary -. top) primary);
            ("trace.overhead_share", ratio primary untraced_wall -. 1.0);
            ("ipc.share", ratio (bb_step -. untraced_step) bb_step);
            ( "trace.row_codec_share",
              ratio
                (total "wire.render_request" +. total "wire.parse_request" +. total "wire.render_response"
               +. total "wire.parse_response")
                primary );
            ("trace.commit_share", ratio (total "wire.handle.batch") primary);
          ]
        @ e2e
      in
      pick per_layer values
  in
  {
    correct = violations = [];
    attempted = bb.attempted;
    failed;
    violations;
    metrics;
    detail = pick detail_names e2e;
  }

(* {1 Output} *)

let number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let metrics_json (ms : metric list) =
  "{"
  ^ String.concat ", "
      (List.map (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value) m.unit) ms)
  ^ "}"

let result_json (o : outcome) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" o.correct o.attempted
    o.failed (metrics_json o.metrics)
