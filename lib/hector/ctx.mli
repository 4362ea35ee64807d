(** Per-processor execution context: instruction charging, timed memory
    operations, and the interrupt model (IPIs, Stodolsky soft masking,
    deferred work queue).

    All functions that advance time must run inside a simulated process. *)

open Eventsim

type t

(** An interrupt handler; runs on the target processor's context. *)
and handler = t -> unit

val create : Machine.t -> proc:int -> Rng.t -> t

val machine : t -> Machine.t
val proc : t -> int
val rng : t -> Rng.t
val engine : t -> Engine.t
val config : t -> Config.t
val now : t -> int

val irqs_taken : t -> int
val irqs_deferred : t -> int

(** Instruction cycles charged by {!work} and {!instr}, net of the swap
    overlap window; includes elided spin iterations (exact outside a
    dispatch). *)
val instr_cycles : t -> int
val soft_masked : t -> bool

(** True while this context is running an interrupt handler (an RPC service
    or deferred-work record drained by [poll]). Used by the verification
    layer to flag blocking waits from interrupt context. *)
val in_interrupt : t -> bool

(** {2 Hook events} *)

(** [Machine.hooked] of this context's machine. Test it before building
    an event:
    [if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (cls, id))]. *)
val hooked : t -> bool

(** [Machine.emit] as this processor, now. *)
val emit : t -> Verify.event -> unit

(** Cycles since processor [dead] was killed: the latency a
    [Verify.Recovered] event carries (0 if it has since revived). *)
val since_kill : t -> int -> int

(** Pure compute for [cycles]. *)
val work : t -> int -> unit

(** Charge [reg] register-to-register and [br] branch instructions; cycles
    following a fetch&store overlap with its store phase and are free up to
    the configured overlap credit. *)
val instr : t -> ?reg:int -> ?br:int -> unit -> unit

(** Take all pending interrupts (entry cost, soft-mask check, handler or
    deferral, exit cost). Called implicitly by every memory operation. *)
val poll : t -> unit

val read : t -> Cell.t -> int

(** {!read} of a word on PMM [home] that no access has touched since it was
    made, without its cell: the same poll, overlap reset and
    {!Machine.read_untouched} charge, for a caller that knows the value and
    runs on a machine without caches. *)
val read_untouched : t -> home:int -> unit

val write : t -> Cell.t -> int -> unit

(** Atomic swap; returns the previous value and opens the overlap window. *)
val fetch_and_store : t -> Cell.t -> int -> int

val test_and_set : t -> Cell.t -> int
val compare_and_swap : t -> Cell.t -> expect:int -> set:int -> bool

(** Set the per-processor soft-mask flag (top of the lock hierarchy). *)
val set_soft_mask : t -> unit

(** Clear the flag and run all deferred work records. *)
val clear_soft_mask : t -> unit

val with_soft_mask : t -> (unit -> 'a) -> 'a

(** Deliver an interrupt to (another) processor, waking it if idle. *)
val post_ipi : t -> handler -> unit

(** Fault-injection point: consult the machine's installed fault plan
    ({!Machine.set_fault_plan}) and, if a crash is drawn, fail-stop this
    processor on the spot (the fiber parks; see {!halt_if_dead}); else if
    a stall is drawn for [site], spend it as an interruptible pause (a
    preempted holder's processor still serves interrupts). Free when no
    plan is installed; makes no crash draw when [crash_rate = 0.0]. *)
val fault_point : t -> site:int -> unit

(** Park this fiber forever if its processor is dead
    ({!Machine.proc_alive}). Called at every operation boundary ([poll],
    [work], [instr], hence every memory operation and wait loop) — a
    crashed processor stops at its next instruction without running any
    cleanup. One host-side read when alive. *)
val halt_if_dead : t -> unit

(** {2 Waits}

    The waits below run their iterations as plain engine events rather than
    fiber round trips: the fiber runs the first iteration, suspends once,
    and resumes when the wait is over, when an interrupt is pending (it is
    taken in the fiber, then the wait goes on) — or never, if the processor
    dies. Every event, its time and its order match the equivalent loop of
    [poll]/{!read}, {!instr} and pauses written out in the fiber — except
    the iterations of an elided wait, which run no event at all but leave
    every result as the loop would: a local spin ({!spin_while}), local
    padding ({!local_pad}) and the polls of {!interruptible_pause},
    {!await} and {!await_timeout}. A poll changes nothing, so after the
    first one a poll wait schedules nothing until an IPI to this
    processor, its death, the fill of the awaited ivar or the wait's
    deadline; then the one poll the loop would run next runs at exactly
    its place ({!Eventsim.Engine.elide}). A local pad's iterations after
    its first read have fixed times, so they schedule nothing until an
    IPI, the processor's death or the work end of the last iteration the
    loop runs. A processor has at most one elided wait, and a poll
    interval or granule wider than {!Eventsim.Engine.max_gap} keeps every
    poll as an event. *)

(** Pause while continuing to take interrupts every [granule] cycles: for
    backoffs and polling delays, where the processor is waiting rather than
    computing. The polls are elided (above): a pause that no IPI or kill
    interrupts runs O(1) events and ends exactly at its deadline.
    @raise Invalid_argument if [granule <= 0]. *)
val interruptible_pause : ?granule:int -> t -> int -> unit

(** [spin_while ?deadline t cell keep] spins on [cell]: {!read} it, charge
    one branch ({!instr} [~br:1]), and repeat while [keep v] holds for the
    value [v] read and, with [deadline], while {!now} is before it. Returns
    the first [v] that ends the spin (with a deadline, possibly a [v] that
    [keep] would still accept). Exactly the loop

    {[
      let rec loop () =
        let v = read t cell in
        instr t ~br:1 ();
        if keep v && (match deadline with Some d -> now t < d | None -> true)
        then loop ()
        else v
    ]}

    — same reads, cycles, interrupts and results — at a fraction of the
    host cost. [keep] must depend only on the value: it runs from an engine
    callback, not once per iteration (see below), so it must not read the
    clock, {!Machine.proc_alive} or other host state, and it must not
    perform a simulated operation (outside the fiber that raises
    [Effect.Unhandled]). A time limit goes in [deadline].

    A spin without [deadline] on a cell homed on this processor's own PMM,
    on a machine without cache coherence and with no fault plan installed,
    is elided: its iterations reserve no shared resource, so after the
    first one no event is scheduled until a write to the cell, an IPI to
    this processor or its death ({!Machine.elide_wait}). Then the one
    iteration event the loop would run next is put at exactly its place,
    and the skipped iterations' reads and branch cycles are credited to
    {!Machine.reads} and {!instr_cycles}. Only
    {!Eventsim.Engine.events_executed} differs from the loop. Remote,
    coherent, faulted and deadline spins run every iteration as
    events. *)
val spin_while : ?deadline:int -> t -> Cell.t -> (int -> bool) -> int

(** [local_pad t cell ~work:w ~iters ~deadline] pads with memory-bound
    compute: it {!read}s [cell] and spends [w] cycles ({!work}), while
    fewer than [iters] iterations have run and {!now} is before [deadline],
    and returns the number of iterations run. Exactly the loop

    {[
      let rec loop k =
        if k < iters && now t < deadline then begin
          ignore (read t cell);
          work t w;
          loop (k + 1)
        end
        else k
    ]}

    — same reads, cycles, interrupts and results.

    A pad on a cell homed on this processor's own PMM, on a machine without
    cache coherence and with no fault plan installed, is elided: such a
    read reserves no shared resource, always takes [local_latency] cycles
    and its value is unused, so after the first read the iterations'
    times are fixed, and only an IPI to this processor (taken at the next
    read's {!poll}) or its death can change what one does. No event is
    scheduled until one of those ({!Machine.wake}) or the work end of the
    last iteration the loop runs; then the loop's code runs from exactly
    there, and the skipped reads and work cycles are credited to
    {!Machine.reads} and {!instr_cycles}. Only
    {!Eventsim.Engine.events_executed} differs from the loop. Remote,
    coherent and faulted pads run every iteration as events. *)
val local_pad : t -> Cell.t -> work:int -> iters:int -> deadline:int -> int

(** Busy-wait for an ivar, polling every [poll_interval] cycles and taking
    interrupts meanwhile — how a processor waits for an RPC reply in an
    exception-based kernel. The polls are elided (above), and
    {!Eventsim.Ivar.fill} ends the wait at the loop's next poll. An await
    on an ivar that nothing will fill leaves an elided wait no event can
    end, so {!Eventsim.Engine.run} raises {!Eventsim.Engine.Deadlock} at
    once, naming the processor, instead of polling until the event budget
    runs out.
    @raise Invalid_argument if [poll_interval <= 0]. *)
val await : ?poll_interval:int -> t -> 'a Ivar.t -> 'a

(** {!await} with a deadline: [None] once [timeout] cycles pass without a
    value — the caller can resend a lost request. Elided like {!await}; the
    engine runs the first poll at or after the deadline itself.
    @raise Invalid_argument if [poll_interval <= 0]. *)
val await_timeout : ?poll_interval:int -> t -> timeout:int -> 'a Ivar.t -> 'a option

(** Idle service loop for processors without their own workload: sleeps
    until an IPI arrives, serves it, repeats. Never returns. *)
val idle_loop : t -> unit
