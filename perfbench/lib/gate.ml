(* The per-run correctness gate.  Every violation counts as one failure
   in [error_rate] and fails the run. *)

type evidence = {
  head : int;  (** the server's head, from its own drain report *)
  acked : int;  (** commits the client holds an ack for, resolved ones included *)
  unresolved : int;  (** submits whose outcome stayed unknown *)
  pulled : int list;  (** each session's version after its final pull *)
  view_hash : string;  (** the final A view over the socket *)
  model_hash : string option;
      (** the A table the client's own edits predict, where it keeps one *)
  replay_head : int;  (** the untraced in-process replay's head *)
  replay_hash : string;  (** ... and its A view *)
}

let violations (e : evidence) : string list =
  List.concat
    [
      (if e.head <> e.acked then
         [ Printf.sprintf "server head %d <> acked commits %d" e.head e.acked ]
       else []);
      (if e.unresolved > 0 then
         [ Printf.sprintf "%d submit(s) unresolved" e.unresolved ]
       else []);
      List.filter_map
        (fun v ->
          if v <> e.head then
            Some (Printf.sprintf "a session pulled to %d, head is %d" v e.head)
          else None)
        e.pulled;
      (match e.model_hash with
      | Some h when h <> e.view_hash -> [ "the server's A view differs from the client's model" ]
      | _ -> []);
      (if e.replay_head <> e.head then
         [ Printf.sprintf "in-process replay head %d <> server head %d" e.replay_head e.head ]
       else []);
      (if e.replay_hash <> e.view_hash then
         [ "in-process replay A view differs from the server's" ]
       else []);
    ]

(* A request that failed or stayed unresolved fails the run too, even
   when the accounting above still adds up: a rejected batch is neither
   acked nor applied. *)
let failed_requests n =
  if n > 0 then [ Printf.sprintf "%d request(s) failed" n ] else []

(* Trace fidelity: the traced replay must end where the black-box run
   did. *)
let fidelity ~head ~view_hash ~traced_head ~traced_hash : string list =
  (if traced_head <> head then
     [ Printf.sprintf "traced replay head %d <> server head %d" traced_head head ]
   else [])
  @ if traced_hash <> view_hash then [ "traced replay A view differs from the server's" ] else []
