(** Transactional (all-or-nothing) execution of entangled updates (see
    [docs/ROBUSTNESS.md]).

    States are immutable values, so a snapshot is the input state and
    rollback is returning it unchanged: a failed
    [set_a]/[set_b]/[put_ab]/[put_ba] leaves the state observably equal
    to the pre-call snapshot.  Only bx exceptions ({!Error.of_exn}) roll
    back; programming errors propagate. *)

type ('s, 'a) state = 's -> 'a * 's
(** The (transparent) shape of every state-monad computation in this
    library, polymorphic in the state type. *)

val run : ('s, 'a) state -> 's -> ('a, Error.t) result * 's
(** [(Ok a, s')] on success; [(Error e, s)] — the original snapshot —
    when a bx exception aborts the computation. *)

val atomic : ('s, 'a) state -> ('s, ('a, Error.t) result) state
(** {!run} re-packaged as a state computation: the error-monad
    transformer applied to the entangled state monad. *)

(** {1 Transactional single operations} *)

val attempt : ('s -> 'x) -> 's -> ('x, Error.t) result
(** [attempt f s] is [Ok (f s)], or [Error e] when [f] raises a bx
    exception ({!Error.of_exn}); programming errors propagate. *)

val set_a :
  ('a, 'b, 's) Concrete.set_bx -> 'a -> 's -> ('s, Error.t) result

val set_b :
  ('a, 'b, 's) Concrete.set_bx -> 'b -> 's -> ('s, Error.t) result

val put_ab :
  ('a, 'b, 's) Concrete.put_bx -> 'a -> 's -> ('b * 's, Error.t) result

val put_ba :
  ('a, 'b, 's) Concrete.put_bx -> 'b -> 's -> ('a * 's, Error.t) result

val exec_command :
  ('a, 'b, 's) Concrete.set_bx ->
  ('a, 'b) Command.t ->
  's ->
  ('s, Error.t) result
(** Run a whole command transactionally: any failure inside rolls the
    state back to the snapshot taken before the command started. *)

(** {1 Hardening} *)

val harden : ('a, 'b, 's) Concrete.set_bx -> ('a, 'b, 's) Concrete.set_bx
(** Each setter becomes its own transaction: on failure the state is
    left unchanged instead of raising.  The name gains an
    ["atomic(...)"] wrapper. *)

val harden_packed : ('a, 'b) Concrete.packed -> ('a, 'b) Concrete.packed
(** {!harden} under the pack, recording {!Pedigree.Atomic} so static
    law-level inference sees the rollback protection. *)
