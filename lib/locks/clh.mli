(** CLH queue lock (Craig; Landin & Hagersten) — the queue lock the paper's
    Section 5.2 weighs against MCS.

    A waiter spins on its *predecessor's* node and adopts that node on
    release, so nodes migrate between processors. With coherent caches the
    spin is local until the hand-off invalidation; on HECTOR it is remote
    memory traffic — the ABL4 experiment measures the contrast. *)

open Hector

type t

val create : ?home:int -> ?vclass:string -> Machine.t -> t

val acquisitions : t -> int

(** Untimed, for assertions. *)
val holder_proc : t -> int option

val is_free : t -> bool

val acquire : t -> Ctx.t -> unit
val release : t -> Ctx.t -> unit

(** Timed acquisition, on a separate per-processor timed node (so untimed
    acquisitions never go node-less). A CLH node cannot be unlinked, so a
    timed-out waiter abandons {e by value}: it writes [pred + 2] into its
    node and leaves; the unique processor spinning on that node follows
    the redirect to [pred] and returns the node to its owner. The
    level-triggered release signal (the 0 persists) makes the abandonment
    race-free without a claim handshake. [timeout <= 0], or the
    processor's timed node still abandoned in the queue, fails immediately
    with no side effects on the lock. *)
val acquire_with_timeout : t -> Ctx.t -> timeout:int -> bool

(** {!acquire_with_timeout} against an absolute deadline — the
    {!Lock_core.OPS.try_acquire_for} face. *)
val try_acquire_for : t -> Ctx.t -> deadline:int -> bool

(** Deadline expiries (including fail-fast refusals). *)
val timeouts : t -> int

(** Abandoned nodes returned to their owners by an observing waiter. *)
val gc_count : t -> int

(** The {!Lock_core.OPS} view; [try_acquire] enqueues and waits (CLH has no
    cheap TryLock). *)
module Core : Lock_core.OPS with type t = t
