(** Spin-then-block lock (Section 5.3, the TORNADO direction).

    Waiters spin briefly, then park on the lock's wait list — no events, no
    memory traffic — until a releaser hands the lock over directly and
    wakes them. The uncontended path is a test&set. *)

open Hector

type t

(** [create machine] with a [spin_us] spinning budget before blocking. *)
val create : ?home:int -> ?spin_us:float -> ?vclass:string -> Machine.t -> t

val flag : t -> Cell.t
val acquisitions : t -> int

(** Waiters that exhausted the spin budget and parked. *)
val blocks : t -> int

(** Releases that woke a parked waiter (direct hand-off; the flag never
    clears). *)
val handoffs : t -> int

val is_held : t -> bool

val acquire : t -> Ctx.t -> unit
val release : t -> Ctx.t -> unit

(** Single test&set attempt, never blocking; true if the lock was
    obtained. *)
val try_acquire : t -> Ctx.t -> bool

(** The {!Lock_core.OPS} view: neither abortable ([try_acquire_for]
    blocks) nor recoverable. *)
module Core : Lock_core.OPS with type t = t
