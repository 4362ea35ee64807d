(** Lock cohorting (Dice, Marathe & Shavit): compose any per-cluster local
    lock with any global lock into a NUMA-aware lock. A releaser that sees
    same-cluster waiters hands over only the local lock, so the global lock
    — and the protected data — migrate across clusters once per cohort
    session instead of once per critical section. [max_handoffs] bounds
    consecutive local hand-offs so remote clusters are not starved. *)

open Hector

type t

(** [create ~topo ~local ~global machine]: [local] builds one constituent
    per cluster (homed at the cluster's lowest processor, reporting under
    [vclass ^ ".local"]), [global] builds the top-level lock (under
    [vclass ^ ".global"]). Raises [Invalid_argument] if [max_handoffs < 1]
    or some cluster has no processors. *)
val create :
  ?vclass:string ->
  ?max_handoffs:int ->
  topo:Lock_core.topo ->
  local:(home:int -> vclass:string -> Lock_core.packed) ->
  global:(vclass:string -> Lock_core.packed) ->
  Machine.t ->
  t

val default_max_handoffs : int

val acquire : t -> Ctx.t -> unit
val release : t -> Ctx.t -> unit
val try_acquire : t -> Ctx.t -> bool

(** Timed acquisition: timed local acquire, then timed global acquire with
    the remaining deadline; a global-side failure gives the local lock
    back. Fails immediately, touching nothing, when [deadline] has already
    passed. A constituent's committed hand-off may deliver the composite
    past the deadline (returning [true]). With a non-abortable constituent
    the corresponding level simply blocks — see {!abortable}. *)
val try_acquire_for : t -> Ctx.t -> deadline:int -> bool

(** Whether every constituent supports abandonment (the composite's timed
    face is only bounded if so). *)
val abortable : t -> bool

(** The composite is recoverable only if both constituents are recoverable
    (the unwind runs their releases on a dead holder's behalf) and
    abortable: a non-abortable constituent's in-spin repair (Ticket's)
    releases that constituent alone, behind the cohort's back. *)
val recoverable : t -> bool

(** Dead-holder recovery: if the processor in the critical section has
    fail-stopped, run the thread-oblivious release on its behalf — a local
    pass if cluster-mates are queued, else the full global-then-local
    release — and return [true]. [false] when the lock is free, the holder
    is alive, the composite is not recoverable, or a recovery is already
    in flight. *)
val recover : t -> Ctx.t -> bool

(** Deadline expiries at either level (including fail-fast refusals). *)
val timeouts : t -> int

val is_free : t -> bool
val waiters : t -> bool
val acquisitions : t -> int

(** Pass-releases where the global lock stayed with the cluster. *)
val local_handoffs : t -> int

(** Full releases where the global lock changed hands. *)
val global_releases : t -> int

val vclass : t -> Verify.lock_class

(** The {!Lock_core.OPS} view; [abortable]/[recoverable] are {!abortable}
    and {!recoverable}, answered from the constituents. *)
module Core : Lock_core.OPS with type t = t
