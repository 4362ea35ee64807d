(** Test&set spin lock with exponential backoff (paper Figure 3c).

    Waiters spin on the lock word itself, loading its memory module and the
    interconnect — the behaviour the paper's distributed locks avoid. The
    release is a swap as well (HECTOR has no other atomic), matching the two
    atomic operations Figure 4 charges to a spin lock/unlock pair. *)

open Hector

type t

(** [create machine ~home backoff] allocates the lock word on PMM [home].
    [vclass] names the lock-order class reported to an installed
    {!Verify.t} checker. *)
val create : Machine.t -> ?home:int -> ?vclass:string -> Backoff.t -> t

val acquisitions : t -> int

(** Number of failed test&set attempts (a direct measure of lock-word
    traffic). *)
val failed_attempts : t -> int

val home : t -> int

(** Untimed, for test assertions. *)
val is_held : t -> bool

(** The lock-order class this lock reports under (test assertions). *)
val vclass : t -> Verify.lock_class

val acquire : t -> Ctx.t -> unit
val release : t -> Ctx.t -> unit

(** Single test&set attempt; true if the lock was obtained. *)
val try_acquire : t -> Ctx.t -> bool

(** Retry with backoff until acquired or [deadline] (absolute simulated
    time) passes; an expired deadline fails without touching the lock
    word. A test&set waiter leaves no queue state, so abandonment is
    side-effect-free. *)
val try_acquire_for : t -> Ctx.t -> deadline:int -> bool

(** The {!Lock_core.OPS} view. [waiters] is conservatively false (a test&set lock cannot see
    its backers-off), so cohorts over a spin local never pass locally. *)
module Core : Lock_core.OPS with type t = t
