(** Distributed reader–writer lock with per-cluster reader indicators
    (the "reader indicator" decomposition of the PAPERS.md distributed
    RMA-locks line, built over any exclusive lock in the family).

    Each cluster owns one indicator word, homed on its local PMM: value
    [2*readers + gate]. A reader CASes +2 into {e its own cluster's} word
    — the steady-state read path never crosses a cluster boundary, which
    is the whole point (HURRICANE gets the same read locality from
    per-cluster replication; this gets it with one word per cluster and
    no invalidation protocol). A writer first acquires an ordinary
    exclusive lock (any {!Lock_core.packed}: MCS, a cohort, CNA — so
    RW-cohort and RW-CNA come free from the combinator), then sweeps the
    indicators: set the gate bit (admission stops; the CAS admission
    checks the gate and increments in one atomic step), spin until the
    count drains, proceed. Release reopens the gates and releases the
    exclusive lock.

    Two sweep policies: {!Writer_blocking} closes {e all} gates before
    draining any — every cluster stops admitting at once, minimising
    writer latency; {!Reader_preference} closes and drains one cluster at
    a time, so clusters the sweep has not yet reached keep admitting
    readers. Writer progress is bounded under both (each gate, once
    closed, stays closed until the writer is done).

    The whole PR 6/7 surface carries over: timed reader and writer faces
    ({!try_acquire_read_for}/{!try_acquire_for}), and crash recovery
    ({!recover}) that sweeps a fail-stopped reader's stuck +2 out of its
    cluster's indicator and runs a dead writer's release on its behalf.
    Readers report to {!Verify}/{!Obs} under class ["<vclass>.read"],
    writers under ["<vclass>"], both on one instance id — reader and
    writer rows separate in profiles while hand-off locality is
    classified across the read/write boundary.

    Space: [space(writer) + C] indicator words ([1] if [centralised]) —
    see the accounting note in [lock.mli]. Requires compare&swap (the
    machine has no fetch&add; admission is a CAS retry loop). *)

open Hector

type t

type policy =
  | Reader_preference  (** close-and-drain one cluster at a time *)
  | Writer_blocking  (** close every gate before draining any *)

(** Short tag used in report names: ["rp"] / ["wb"]. *)
val policy_name : policy -> string

(** [create ~name ~topo ~writer machine] builds the lock; [writer] builds
    the exclusive constituent (it receives [vclass ^ ".writer"]).
    [centralised] collapses the indicators to a single word homed at
    [home] — the baseline the per-cluster layout is measured against.
    [writer_abortable]/[writer_recoverable] override the packed
    constituent's static capability flags (a runtime-composed cohort's
    packed view reports the module defaults, not the instance's).
    Raises [Invalid_argument] without compare&swap or on a cluster with
    no processors. *)
val create :
  ?home:int ->
  ?vclass:string ->
  ?policy:policy ->
  ?centralised:bool ->
  name:string ->
  topo:Lock_core.topo ->
  writer:(vclass:string -> Lock_core.packed) ->
  ?writer_abortable:bool ->
  ?writer_recoverable:bool ->
  Machine.t ->
  t

val name : t -> string
val policy : t -> policy
val centralised : t -> bool

(** {2 Reader side} *)

val acquire_read : t -> Ctx.t -> unit
val release_read : t -> Ctx.t -> unit

(** One admission attempt; may fail spuriously under CAS interference. *)
val try_acquire_read : t -> Ctx.t -> bool

(** Timed admission: retry until the (absolute) deadline passes. Always
    abortable — an admission loop holds nothing it cannot walk away
    from. *)
val try_acquire_read_for : t -> Ctx.t -> deadline:int -> bool

(** Crash-tolerant reader acquire: timed slices with {!recover} between
    them, same slice/jitter discipline as [Lock.acquire_recoverable]. *)
val acquire_read_recoverable : ?check_period:int -> t -> Ctx.t -> unit

(** [acquire_read]/[release_read] around [f], exception-safe. *)
val with_read : t -> Ctx.t -> (unit -> 'a) -> 'a

(** {2 Writer side} *)

val acquire : t -> Ctx.t -> unit

(** Thread-oblivious (a recoverer may run it for a dead writer): works
    off the lock's own holder fields. *)
val release : t -> Ctx.t -> unit

(** Non-blocking: exclusive-lock TryLock, then a one-sample drain check;
    backs out (gates reopened, exclusive lock released) if any reader is
    inside. *)
val try_acquire : t -> Ctx.t -> bool

(** Timed: timed exclusive acquire, then a deadline-bounded sweep; a
    sweep expiry backs out. With a non-abortable [writer] constituent
    this blocks (the {!Lock_core.OPS} convention). *)
val try_acquire_for : t -> Ctx.t -> deadline:int -> bool

(** [acquire]/[release] around [f], exception-safe. *)
val with_write : t -> Ctx.t -> (unit -> 'a) -> 'a

(** {2 Crash recovery}

    [recover t ctx] sweeps fail-stopped processors' wreckage: each dead
    reader's +2 is CASed back out of its cluster's indicator (one timed
    op sequence charged to the recoverer, reported as
    [Verify.Released_dead]), a dead writer's release runs on its behalf
    (gates reopened; the packed constituent is repaired through its own
    [recover], never a foreign release), and with no registered writer
    the packed queue itself is checked for corpses. Returns [true] if
    anything was repaired. Serialised: a second concurrent recovery
    returns [false] immediately. *)
val recover : t -> Ctx.t -> bool

(** The writer face can actually abandon at a deadline. *)
val abortable : t -> bool

(** A dead {e writer} can be repaired (dead readers always can). *)
val recoverable : t -> bool

(** {2 Counters and probes} (host-side, untimed) *)

val acquisitions : t -> int
val read_acquisitions : t -> int

(** Writer-side deadline expiries (exclusive stage or sweep). *)
val timeouts : t -> int

val read_timeouts : t -> int

(** Read-path timed ops that touched an indicator homed in another
    cluster: identically 0 for the distributed layout, the centralised
    baseline's defining cost at C >= 2. *)
val read_remote : t -> int

(** Dead-reader indicator sweeps performed by {!recover}. *)
val reader_sweeps : t -> int

val readers_now : t -> int

(** High-water mark of concurrent readers — the reader-parallelism
    evidence no exclusive [Lock.algo] can produce. *)
val readers_peak : t -> int

(** Current total reader count summed over the indicators. *)
val readers : t -> int

val is_free : t -> bool
val waiters : t -> bool
val vclass : t -> Verify.lock_class
val vclass_read : t -> Verify.lock_class
