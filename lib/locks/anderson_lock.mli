(** Anderson's array-based queue lock: a fetch&increment hands each waiter
    a private array slot to spin on; release flips the next slot. Fair,
    hot-spot free — and P words per lock, the space cost that made the
    paper prefer per-processor MCS nodes (Section 5.2). Requires a CAS
    machine. *)

open Hector

type t

val create : ?home:int -> ?vclass:string -> Machine.t -> t

val acquisitions : t -> int
val is_free : t -> bool

val acquire : t -> Ctx.t -> unit
val release : t -> Ctx.t -> unit

(** Timed acquisition by slot forfeiture: a timed-out waiter swaps the
    forfeit mark (2) into its slot — a swap returning the grant (1) means
    the hand-off already committed, so the waiter takes the lock and
    returns [true] even past the deadline. Releases grant timed claimants
    with CAS(0 -> 1) and skip+reset forfeited slots. The slot ring holds
    2P+1 entries so concurrent issues never collide. [timeout <= 0], or an
    earlier forfeit of this processor not yet skipped by a release, fails
    immediately with no side effects on the lock. *)
val acquire_with_timeout : t -> Ctx.t -> timeout:int -> bool

(** {!acquire_with_timeout} against an absolute deadline — the
    {!Lock_core.OPS.try_acquire_for} face. *)
val try_acquire_for : t -> Ctx.t -> deadline:int -> bool

(** Deadline expiries (including fail-fast refusals). *)
val timeouts : t -> int

(** Forfeited slots skipped and reset by releases. *)
val gc_count : t -> int

(** The {!Lock_core.OPS} view; [try_acquire] takes a slot and waits. *)
module Core : Lock_core.OPS with type t = t
