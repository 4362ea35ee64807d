(** Discrete-event engine: virtual clock + ordered heap of thunks.

    Time is in integer machine cycles. All simulated concurrency is
    cooperative: a thunk runs to completion at its timestamp and may schedule
    further thunks. Determinism is guaranteed by FIFO tie-breaking in the
    event heap: events at the same time run in the order they were
    scheduled. Sequence numbers are spaced ([counter lsl 20]), which keeps
    that order and leaves room for a materialised wait (below) to take its
    place between two scheduled events. *)

(** Raised when the event budget is exhausted, which in practice means the
    simulation livelocked (e.g. processors spinning forever on a lock that is
    never released), or when {!run} without [until] drains the heap while
    elided waits remain: nothing can ever end them — a local spin whose cell
    is never written, or an await on an ivar that is never filled, raises
    at once rather than after the budget. The message names the waiting
    processors. *)
exception Deadlock of string

type t

(** [create ()] makes an engine at time 0. [max_events] bounds the total
    number of events executed, as a livelock safety valve. *)
val create : ?max_events:int -> unit -> t

(** Current virtual time, in cycles. *)
val now : t -> int

(** Number of events executed so far. *)
val events_executed : t -> int

(** [schedule t ~at f] runs [f] when the clock reaches [at].
    @raise Invalid_argument if [at] is in the past. *)
val schedule : t -> at:int -> (unit -> unit) -> unit

(** [schedule_after t ~delay f] = [schedule t ~at:(now t + delay) f]. *)
val schedule_after : t -> delay:int -> (unit -> unit) -> unit

(** Number of events still queued. An elided wait counts as one: the event
    its chain would keep in the heap. *)
val pending : t -> int

(** Execute the single earliest event. Returns [false] if none was queued. *)
val step : t -> bool

(** Run until the heap is empty, or past [until] if given (events strictly
    later than [until] stay queued; the clock is advanced to [until] if the
    heap drains early). On return no wait is elided: with [until], each
    elided wait's elements up to [until] count as run and its next element
    is put in the heap; without, elided waits left over raise
    {!Deadlock}. {!step} also materialises every elided wait after its
    event, so it can run chain elements one at a time. *)
val run : ?until:int -> t -> unit

(** {2 In-place dispatch}

    A fiber's sleep ([Process.pause], [Process.wait_until]) whose wake is
    provably the next dispatch need not go through the heap and the
    effect handler: the engine makes that dispatch's bookkeeping where the
    fiber stands, and the fiber runs on. The proof: the running code is the
    fiber this dispatch resumed from its own sleep, and no other fiber has
    been resumed since ([resumed_sleeper], cleared by [resumed_other] and at
    each dispatch); the wake is strictly before every queued event and
    every elided chain's end; and {!run} would dispatch it next — it is
    inside [run], the wake is within [run]'s [until], and the event budget
    is not spent. Nothing runs in place under {!step}. The bookkeeping is
    the round trip's (a seq taken as {!schedule} takes it, the count, the
    dispatch's seq, the ring record while waits are elided), so every seq,
    every elided wait's place and {!events_executed} stay exactly as if
    the wake had been scheduled. *)

(** [sleep_in_place t at]: if a wake at [at] is provably the next dispatch,
    make that dispatch (the clock moves to [at]) and return [true];
    otherwise change nothing and return [false]. [at >= now t]. *)
val sleep_in_place : t -> int -> bool

(** The dispatch in progress is resuming a fiber that alone holds the rest
    of the dispatch: from its sleep, from a suspension whose resume is the
    dispatch's last act ([Process.suspend_tail]), or at its start. *)
val resumed_sleeper : t -> unit

(** Some other fiber is being resumed: nothing runs in place until the next
    dispatch. *)
val resumed_other : t -> unit

(** {2 Elided waits}

    A wait whose iterations change nothing another event can observe can
    leave them out of the heap. Its chain of events — element 0, then
    alternately [even_gap] and [odd_gap] cycles apart — stays virtual from
    {!elide} until {!materialise}, which puts into the heap the one element
    the real loop would dispatch next, at exactly the (time, seq) place it
    would have held: its position after the dispatch in progress is found
    by comparing the scheduling ancestry of same-time events, from a ring
    of recent dispatches. A chain elided with [until] also ends on its own:
    {!run} puts its first element at or after [until] into the heap before
    the clock reaches it. Results are identical to running every element;
    only {!events_executed} is smaller.

    Two kinds of waits are elided: a local spin (gaps: read latency and
    branch cost), which a write to its cell can end, and a poll wait
    ([Ctx.await], [Ctx.interruptible_pause]; both gaps the poll
    interval), which an ivar fill or its deadline can end; an IPI or the
    processor's death ends either. *)

type wait

(** The widest chain gap, 65535 cycles. A wait with a wider gap runs its
    elements as events. *)
val max_gap : int

(** [wait ~owner ~even_gap ~odd_gap ~fire ~credit] describes one wait of
    processor [owner]. [fire j] runs element [j] for real; [credit j] is
    told that elements [0, j) have virtually run (it is called with a
    non-decreasing [j] per elision and must account for them itself). A
    wait belongs to the engine that first elides it.
    @raise Invalid_argument unless both gaps are in [1, {!max_gap}]. *)
val wait :
  owner:int ->
  even_gap:int ->
  odd_gap:int ->
  fire:(int -> unit) ->
  credit:(int -> unit) ->
  wait

(** [elide ?until t w ~at], called during a dispatch in place of scheduling
    element 0 at [at > now], makes [w]'s chain virtual and reserves element
    0's seq. With [until], the chain's first element at or after [until] is
    its last: the engine materialises it itself, before the clock passes
    it, so a wait can run out without a wake. Returns [false] (and does
    nothing) outside a dispatch, if [w] is already elided or placed, or if
    element 0 is already the last; the caller then schedules the element
    itself. *)
val elide : ?until:int -> t -> wait -> at:int -> bool

(** Put the first element of [w] ordered after the dispatch in progress
    into the heap, crediting the elements before it; the wait is then no
    longer elided. Call it whenever something that can end the wait
    happens. A no-op unless [w] is elided. *)
val materialise : t -> wait -> unit

(** [w]'s chain is virtual: elided and not yet materialised. *)
val is_elided : wait -> bool

(** Credit [w]'s elements earlier than [now] (a no-op unless elided), so
    counters read in between are up to date. *)
val settle : t -> wait -> unit

(** The wait registry's ids in use (one per elided or placed wait) and
    ids ever given out (its peak). Exposed for tests. *)
val registry : t -> int * int
