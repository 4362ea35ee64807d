(** The lock-algorithm interface, as a first-class-module signature.

    Every algorithm in [lib/locks] exposes a [Core] module implementing
    {!OPS} over its instance type. [Lock.build] packs one per [Lock.algo]
    and the composites ({!Cohort}, {!Rwlock}) are assembled from {!packed}
    constituents, so any local lock can be paired with any global lock.
    Capabilities are asked of the instance, not the module: a
    composite assembled at run time can only answer once it knows its
    constituents. *)

open Hector

(** Cluster topology a NUMA-aware lock is constructed against: which of
    [n_clusters] clusters each processor belongs to. [cluster_of] must be
    total over the machine's processors and return values in
    [0, n_clusters). *)
type topo = { n_clusters : int; cluster_of : int -> int }

(** The machine's own hardware stations as a topology — the default when a
    lock is built without an explicit [Clustering]. *)
val topo_of_machine : Machine.t -> topo

(** [cluster_topo] with explicit values; validates the bounds. *)
val topo : n_clusters:int -> cluster_of:(int -> int) -> topo

(** Operations on an already-created lock instance: the algorithm-agnostic
    surface the composites and the uniform {!Lock.t} record need. *)
module type OPS = sig
  type t

  val acquire : t -> Ctx.t -> unit
  val release : t -> Ctx.t -> unit

  (** Non-blocking where the algorithm supports one; algorithms without a
      cheap TryLock (CLH, ticket, Anderson) acquire and return [true]. *)
  val try_acquire : t -> Ctx.t -> bool

  (** Timed acquisition (the HMCS-T face). [deadline] is an absolute
      simulated time ([Machine.now]); the call returns [true] holding the
      lock, or — on an abortable algorithm — [false] with no residual
      effect on the lock once its abandoned node has been reclaimed by a
      later hand-off. An already-expired deadline ([deadline <= now]) must
      fail without touching the lock. Non-abortable instances
      ([abortable t = false]) ignore the deadline: they block, acquire, and
      return [true]. *)
  val try_acquire_for : t -> Ctx.t -> deadline:int -> bool

  (** Capability probe: [true] iff {!try_acquire_for} on this instance can
      actually fail past the deadline rather than degenerate to a blocking
      acquire. A composite answers from its constituents. *)
  val abortable : t -> bool

  (** Dead-holder recovery. If the current holder has fail-stopped
      ([Machine.proc_alive] is the detector — fail-stop crashes are
      detectable), force the hand-off the corpse will never perform and
      return [true]; return [false] (with no effect on the lock) when the
      lock is free, the holder is alive, or another recovery is already in
      flight. The caller does {e not} hold the lock afterwards: recovery
      re-opens the normal hand-off path and the recoverer re-contends. *)
  val recover : t -> Ctx.t -> bool

  (** Capability probe: [true] iff {!recover} on this instance can actually
      repair a dead holder rather than being a constant [false]. *)
  val recoverable : t -> bool

  (** Untimed, for assertions. *)
  val is_free : t -> bool

  (** Untimed hint: is some processor queued or spinning behind the current
      holder? Used by cohort-style releases to decide whether a cluster-local
      hand-off is possible; a conservative [false] only costs locality, never
      correctness. *)
  val waiters : t -> bool

  (** Completed acquisitions (blocking and successful non-blocking). *)
  val acquisitions : t -> int

  (** The lock-order class this instance reports to {!Verify}. *)
  val vclass : t -> Verify.lock_class

  (** The {!Verify} instance identity this lock reports under (drawn from
      {!Verify.fresh_id} at creation). *)
  val vid : t -> int
end

(** A lock instance packed with its operations, letting [Lock.build]
    compose algorithms chosen at run time. *)
type packed = Packed : (module OPS with type t = 'a) * 'a -> packed

val pack : (module OPS with type t = 'a) -> 'a -> packed

val p_acquire : packed -> Ctx.t -> unit
val p_release : packed -> Ctx.t -> unit
val p_try_acquire : packed -> Ctx.t -> bool
val p_try_acquire_for : packed -> Ctx.t -> deadline:int -> bool
val p_abortable : packed -> bool
val p_recover : packed -> Ctx.t -> bool
val p_recoverable : packed -> bool
val p_is_free : packed -> bool
val p_waiters : packed -> bool

(** Report to the installed checker (if any) that the calling processor
    inherited this still-held lock — see {!Verify.Transferred}. Fired by
    {!Cohort} when a pass recipient inherits the global constituent. *)
val p_transferred : packed -> Ctx.t -> unit
