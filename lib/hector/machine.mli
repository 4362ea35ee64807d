(** The simulated NUMA machine: topology, contended resources, timed memory
    operations.

    All operations that touch memory must be called from within a simulated
    process ({!Eventsim.Process.spawn}); they suspend the calling process for
    the access duration, which includes FIFO queueing at the station buses,
    the ring and the target memory module. *)

open Eventsim

type t

val create : Engine.t -> Config.t -> t

val engine : t -> Engine.t
val config : t -> Config.t

(** Current virtual time in cycles. *)
val now : t -> int

val n_procs : t -> int

(** Total read / write / atomic operations performed, for experiment
    accounting. [reads] includes the iterations of elided local spins
    (exact outside a dispatch). *)
val reads : t -> int

val writes : t -> int
val atomics : t -> int

(** Cache hits, on a coherent configuration. *)
val cache_hits : t -> int

(** Install (or clear) a fault plan: while installed, accesses to a PMM the
    plan declares hot pay a multiplied latency, context fault points may
    stall or crash the visitor, and the plan's [crash_at] schedule is armed
    as engine events (disarmed again if the plan is cleared or replaced
    before they fire). [None] (the default) makes every timing identical to
    a build without injection. *)
val set_fault_plan : t -> Fault.t option -> unit

val fault_plan : t -> Fault.t option

(** {2 Fail-stop crashes}

    A dead processor never executes another instruction: {!Ctx} parks its
    fiber — without running any cleanup, so everything it held stays held —
    at its next operation boundary. Aliveness is host-side state, free to
    consult from simulated code (the fail-stop model's "crashes are
    detectable" half). *)

(** Kill a processor at the current time. Idempotent on the dead. The
    fiber is parked at its next boundary rather than torn down, so locks
    and reservations it holds leak — recovery is the lock layer's job.
    [restart_after] overrides the plan's fail-restart delay ([0] = never
    revive). Notifies the installed fault plan, checker, and observer. *)
val kill_proc : ?restart_after:int -> t -> int -> unit

(** Liveness oracle: false once [kill_proc] ran (until a revival). *)
val proc_alive : t -> int -> bool

(** When the processor was killed; -1 while alive. *)
val killed_at : t -> int -> int

(** Revive a dead processor immediately (idempotent on the living) and
    invoke the restart handler, if any. The old fiber stays parked — the
    handler is the place to spawn fresh work on the processor. *)
val revive : t -> int -> unit

(** Called with the processor id on every revival. *)
val set_restart_handler : t -> (int -> unit) -> unit

val crashes : t -> int
val restarts : t -> int

(** {2 Hook sinks} *)

(** Install (or clear) a lockdep checker: while installed, the locking
    layers report acquisitions, releases and reserve-bit transitions to it.
    Hooks are host-side bookkeeping only — they charge no simulated cycles
    — so simulated timing is identical with and without a checker. *)
val set_verify : t -> Verify.t option -> unit

val verify : t -> Verify.t option

(** Install (or clear) a contention observer ({!Obs}): while installed,
    the same events that feed the checker also feed per-lock-class
    profiles and the event trace. Host-side bookkeeping only — simulated
    timing is identical with and without an observer. *)
val set_obs : t -> Obs.t option -> unit

val obs : t -> Obs.t option

(** Is a checker or an observer installed? A hook site tests this before
    building its event, so with no sink it is one branch. *)
val hooked : t -> bool

(** [emit t ~proc ~now e] delivers one hook event to the installed checker
    ({!Verify.on_event}), then to the installed observer
    ({!Obs.on_event}); an [`Abort]-mode violation raises before the
    observer sees it. {!kill_proc} and {!revive} report here. *)
val emit : t -> proc:int -> now:int -> Verify.event -> unit

val mem_resource : t -> int -> Resource.t
val bus_resource : t -> int -> Resource.t
val ring_resource : t -> Resource.t

(** Allocate a cell homed on the given PMM. It takes the machine's next
    cell id: a machine numbers its own cells from 1, in allocation order,
    so ids depend on nothing outside it. *)
val alloc : t -> ?label:string -> home:int -> int -> Cell.t

(** Consume the ids the next [n] {!alloc}s would take, in one step; returns
    the first, and the other [n - 1] follow it. *)
val reserve_ids : t -> int -> int

(** As {!alloc}, taking the id [id] handed out earlier by {!reserve_ids}:
    for a cell built later than the moment it stands for (a deferred table
    element or bin head). No optional argument, so a hot caller boxes
    nothing. *)
val alloc_reserved : t -> id:int -> home:int -> int -> Cell.t

(** A fresh lock-instance id, the identity a lock reports to the hook
    sinks ({!Verify.event}). A machine numbers its locks from 1, in
    creation order, on a counter of their own, so taking one moves no
    cell id; the sinks keep per-lock state in columns indexed by it. *)
val fresh_lock_id : t -> int

val us_of_cycles : t -> int -> float
val cycles_of_us : t -> float -> int

(** Uncontended latency of one access from [proc] to a cell homed on
    [home]. *)
val base_latency : t -> proc:int -> home:int -> int

(** Timed read: suspends for the access duration, returns the value as seen
    when the memory module serviced the access. *)
val read : t -> proc:int -> Cell.t -> int

(** The charge of a {!read} of a word on PMM [home] that no access has
    touched since it was made, without the cell: it counts the read and
    suspends until the miss completes, as {!read} of that cell does. The
    caller knows the value (the word's initial one). On a machine without
    caches this is all {!read} does before returning {!Cell.peek}; on a
    coherent one the cell's line fill is left undone, so use {!read} there. *)
val read_untouched : t -> proc:int -> home:int -> unit

(** Issue half of {!read}, for waits that run as engine events: counts the
    read and reserves its path. Returns the time a miss completes — call
    {!read_finish} then — or [-1] for a coherent cache hit, which costs
    [cache_hit] cycles and returns {!Cell.peek} at completion. [read] is
    exactly these two halves with a suspension between them. *)
val read_start : t -> proc:int -> Cell.t -> int

(** Completion half of a missing {!read_start}: fills the cache line on a
    coherent machine and returns the value. *)
val read_finish : t -> proc:int -> Cell.t -> int

val write : t -> proc:int -> Cell.t -> int -> unit

(** Atomic swap — HECTOR's only atomic primitive; costs two memory
    accesses. Returns the previous value. *)
val fetch_and_store : t -> proc:int -> Cell.t -> int -> int

(** [fetch_and_store] of 1; returns the previous value (0 means the caller
    got the "lock"). *)
val test_and_set : t -> proc:int -> Cell.t -> int

(** Only available when the configuration has [has_cas = true]; used by the
    Section 5.2 ablation. @raise Failure otherwise. *)
val compare_and_swap : t -> proc:int -> Cell.t -> expect:int -> set:int -> bool

(** Pure compute: suspend for [cycles] without touching any resource. *)
val cpu_work : t -> int -> unit

(** Untimed write for set-up and recovery paths: like {!Cell.poke}, but an
    elided spin on the cell sees the new value. Simulated code that writes
    a cell another processor may spin on must use this, not
    {!Cell.poke}. *)
val poke : t -> Cell.t -> int -> unit

(** {2 Elided waits}

    A processor spinning on its own PMM reserves no shared resource, and a
    poll wait's ticks touch no memory, so {!Ctx.spin_while}, {!Ctx.await},
    {!Ctx.await_timeout} and {!Ctx.interruptible_pause} run those
    iterations as a virtual chain ({!Eventsim.Engine.elide}). The machine
    keeps one watch slot per processor and materialises the wait on
    everything it sees that can end it: an IPI ({!wake}), {!kill_proc},
    and for a spin a mutation of its cell (a write or atomic completing,
    or {!poke}) and installing a fault plan. An ivar fill
    ({!Eventsim.Ivar.watch}) and the engine itself ([until]) end a poll
    wait. *)

(** [elide_wait ?cell ?until t ~proc w ~at] elides [w] (its next element is
    due at [at], its chain ends by [until]) if [proc] has no other elided
    wait, and watches [cell] for it: a spin on [cell] is elided only while
    no fault plan is installed. Returns [false] otherwise; the caller then
    schedules the element. *)
val elide_wait :
  ?cell:Cell.t -> ?until:int -> t -> proc:int -> Engine.wait -> at:int -> bool

(** Materialise [proc]'s elided wait, if any. *)
val wake : t -> proc:int -> unit

(** Bring [proc]'s elided wait's counters up to date. *)
val settle : t -> proc:int -> unit

(** Add [n] elided reads to the read count. *)
val credit_reads : t -> int -> unit
