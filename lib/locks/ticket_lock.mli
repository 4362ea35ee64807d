(** Ticket lock with proportional backoff — the cheapest fair lock: two
    words regardless of processor count, all waiters spinning on one word.
    Requires a CAS machine (fetch&increment is a CAS retry loop). *)

open Hector

type t

val create : ?home:int -> ?spin_unit:int -> ?vclass:string -> Machine.t -> t

val acquisitions : t -> int
val is_free : t -> bool

val acquire : t -> Ctx.t -> unit
val release : t -> Ctx.t -> unit

(** The {!Lock_core.OPS} view; [try_acquire] takes a ticket and waits, and
    so does [try_acquire_for] (not abortable). *)
module Core : Lock_core.OPS with type t = t
