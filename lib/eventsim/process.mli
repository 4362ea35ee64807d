(** Simulated processes: effect-based coroutines over {!Engine}.

    A process is an ordinary function; inside it, the functions below may be
    used to let virtual time pass. They must only be called from within a
    process started by [spawn] (performing an effect with no handler raises
    [Effect.Unhandled]). *)

(** Low-level suspension: [suspend reg] captures the current continuation as
    a resume thunk and passes it to [reg]. The process stays suspended until
    the thunk is invoked (exactly once). *)
val suspend : ((unit -> unit) -> unit) -> unit

(** {2 Sleeps}

    [wait_until] and [pause] sleep: the fiber's wake is one event at a known
    time. When that event is provably the engine's next dispatch
    ({!Engine.sleep_in_place}: this fiber was resumed from its own sleep by
    the dispatch in progress, no other fiber has been resumed since, and
    nothing queued or elided comes first), the fiber does not suspend: the
    engine makes the dispatch's bookkeeping — seq, event count, ring
    record — and the clock moves to the wake. Seqs are taken in the same
    order as the heap round trip would take them, so every later tie and
    every simulated result is unchanged. Otherwise the fiber suspends and
    its wake is scheduled as an event. *)

(** Sleep until the given absolute time.
    @raise Invalid_argument if it is in the past. *)
val wait_until : Engine.t -> int -> unit

(** Sleep for a relative number of cycles (0 is a no-op). *)
val pause : Engine.t -> int -> unit

(** Re-schedule at the current time, letting same-time events interleave. *)
val yield : Engine.t -> unit

(** Start a process at the current virtual time. *)
val spawn : Engine.t -> (unit -> unit) -> unit

(** Start a process at an absolute time. *)
val spawn_at : Engine.t -> at:int -> (unit -> unit) -> unit
