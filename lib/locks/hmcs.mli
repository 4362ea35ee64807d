(** HMCS (Chabbi, Fagan & Mellor-Crummey): a hierarchical MCS lock — one
    MCS queue per cluster plus a root MCS queue over clusters. The word a
    local waiter spins on doubles as the protocol channel: release writes
    the running pass count (root comes with the lock) or a sentinel telling
    the waiter to acquire the root itself. [threshold] bounds consecutive
    in-cluster hand-offs. Both levels use the fetch&store-only repair
    protocol (no compare&swap needed). *)

open Hector

type t

(** Raises [Invalid_argument] if [threshold < 1] or [topo] does not cover
    the machine's processors. *)
val create :
  ?home:int ->
  ?threshold:int ->
  ?vclass:string ->
  topo:Lock_core.topo ->
  Machine.t ->
  t

val default_threshold : int

val acquire : t -> Ctx.t -> unit
val release : t -> Ctx.t -> unit
val is_free : t -> bool
val waiters : t -> bool
val acquisitions : t -> int

(** Hand-offs that kept the root lock within the cluster. *)
val local_passes : t -> int

(** Releases that gave the root lock up. *)
val global_releases : t -> int

val repairs : t -> int
val grafts : t -> int
val vclass : t -> Verify.lock_class

(** Timed acquisition (HMCS-T): the waiter enqueues a separate per-processor
    timed node whose mark cell runs the MCS abandonment handshake — at
    {e both} tree levels (timed cnodes carry the root-level marks). A
    releaser collects abandoned nodes in passing, repairing the queue and,
    when an in-flight grant carried root ownership into a drained or
    usurped local queue, releasing the root on the cluster's behalf. A
    claim-race loss at the lock-granting level takes the lock and returns
    [true] even past the deadline; a claim-race loss that delivers only
    local headship passes it onward and fails. [timeout <= 0], a timed
    qnode still abandoned in its local queue, or (at the promotion point) a
    timed cnode still abandoned in the root queue, fail with no lasting
    effect on the lock. *)
val acquire_with_timeout : t -> Ctx.t -> timeout:int -> bool

(** {!acquire_with_timeout} against an absolute deadline — the
    {!Lock_core.OPS.try_acquire_for} face. *)
val try_acquire_for : t -> Ctx.t -> deadline:int -> bool

(** Deadline expiries (including fail-fast refusals). *)
val timeouts : t -> int

(** Abandoned nodes collected by releasers, both levels. *)
val gc_count : t -> int

(** The {!Lock_core.OPS} view; [try_acquire] enqueues and waits. *)
module Core : Lock_core.OPS with type t = t
