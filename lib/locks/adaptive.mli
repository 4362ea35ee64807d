(** Adaptive lock morphing: test&set → MCS → NUMA composite, driven by a
    sliding window of observed contention (Fissile-style, closing the loop
    the ROADMAP left open over the [lib/obs] profile).

    The lock carries three pre-created shapes sharing one lockdep class and
    routes arrivals through a one-word timed mode cell. Promotion is eager:
    once a quarter-window quorum of samples exists, every release checks
    whether the contended fraction of the last eight acquisitions reached
    one half (and, for the step to the NUMA shape, whether the
    remote-hand-off fraction reached 0.4). An acquisition also counts as
    contended when its shape-level acquire took 10 µs or more: the
    instantaneous sample cannot see a saturated test&set shape, whose word
    is free for most of the time between backed-off hand-offs. Demotion is
    conservative: only a full window whose contended fraction fell to 0.15
    shrinks the lock one step — the remote fraction is deliberately not a
    demotion trigger, because under the NUMA shape it is low precisely
    {e because} that shape localises hand-offs. The gap between the two
    contended thresholds is the hysteresis that keeps a borderline load
    from thrashing shapes every window.

    Morph safety: an acquirer validates the mode cell {e after} acquiring
    the routed shape and, on a stale read, releases it (draining the old
    queue) and re-routes; only the critical-section owner writes the mode
    cell, and only once the target shape is free with no waiters. See
    [adaptive.ml] for the mutual-exclusion argument. *)

open Hector

type t

(** Shape indices, in promotion order. *)

val shape_ts : int
val shape_queue : int
val shape_numa : int
val shape_name : int -> string

(** [create ~topo ~shapes machine] builds the morphing lock over
    [shapes = [| ts; queue; numa |]] — three {!Lock_core.packed} instances
    that must share one lockdep class (their distinct instance ids keep the
    checker's ledgers separate). The lock is abortable (recoverable) iff
    every shape is. [home] places the mode word. *)
val create :
  ?home:int ->
  ?vclass:string ->
  topo:Lock_core.topo ->
  shapes:Lock_core.packed array ->
  Machine.t ->
  t

(** Critical-section entries (validated acquisitions; drains excluded). *)
val acquisitions : t -> int

val morphs_up : t -> int
val morphs_down : t -> int

(** Stale-shape hand-offs: acquisitions that found the mode cell moved
    while they were queued, released the old shape and re-routed. *)
val drains : t -> int

(** Morph decisions blocked on a still-draining target shape. *)
val deferrals : t -> int

(** Untimed read of the mode word (tests and gauges). *)
val current_shape : t -> int

(** Untimed; -1 when free. *)
val holder : t -> int

val vclass : t -> Verify.lock_class
val vid : t -> int
val is_free : t -> bool
val waiters : t -> bool
val acquire : t -> Ctx.t -> unit
val release : t -> Ctx.t -> unit
val try_acquire : t -> Ctx.t -> bool
val try_acquire_for : t -> Ctx.t -> deadline:int -> bool

(** Dead-holder recovery. A corpse that validated is repaired through its
    shape's own recover; otherwise (crash inside an in-flight morph or
    drain — the corpse holds a constituent but never became the Adaptive
    holder) every shape's recover is swept, each a no-op unless its
    registered holder really is dead. *)
val recover : t -> Ctx.t -> bool

(** The {!Lock_core.OPS} view. [abortable]/[recoverable] are the
    instance's: the conjunction over its shapes, so a non-abortable NUMA
    shape makes the whole lock non-abortable. *)
module Core : Lock_core.OPS with type t = t
