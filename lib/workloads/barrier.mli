(** Barrier for workload phases, implemented at the engine level so the
    synchronisation itself contributes (almost) nothing to measured kernel
    costs. Waiters keep taking interrupts, so RPCs directed at a barriered
    processor are still served. *)

open Hector

type t

val create : parties:int -> t

(** Block until all parties arrive; reusable across rounds. *)
val wait : t -> Ctx.t -> unit
