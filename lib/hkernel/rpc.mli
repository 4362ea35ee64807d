(** Inter-cluster remote procedure calls, carried by inter-processor
    interrupts.

    The caller deposits a request (remote write), raises the IPI, and spins
    on the reply with interrupts enabled — a busy processor still serves
    incoming RPCs, which an exception-based kernel requires. Services run in
    the target's interrupt context and must never wait: they fail with
    [Would_deadlock] and the initiator retries (Section 2.3).

    With a fault plan installed ({!set_fault_plan}), requests and replies
    may be delayed or (at most once per call) lost; a lost message is
    recovered by the caller's reply timeout resending the IPI —
    at-least-once delivery, so services run under a plan must tolerate
    re-execution. *)

open Eventsim
open Hector

type outcome =
  | Ok of int
  | Would_deadlock  (** a reserve bit was found set on the remote side *)
  | Absent  (** the remote structure does not exist *)
  | Gave_up
      (** {!call_until_resolved} exhausted its attempt budget; the caller
          should degrade (e.g. fall back to the pessimistic protocol) *)
  | Dead_target
      (** the target processor fail-stopped ([Machine.kill_proc]) — unlike
          [Gave_up], the condition is permanent (barring a restart): the
          caller should stop addressing this processor rather than retry.
          Returned without any message traffic when the death is known
          up front, or from the resend path when the target dies with the
          call in flight. A crash plan should set a positive
          [reply_timeout], or an in-flight call to the victim spins on its
          reply forever. *)

type t

val create : Machine.t -> Ctx.t array -> Costs.t -> t

(** Install the function charging marshal/dispatch cycles (the kernel routes
    them through its memory-bound worker). *)
val set_work : t -> (Ctx.t -> int -> unit) -> unit

(** Install (or clear) a fault plan governing delay/loss injection and the
    reply timeout. [None] (the default) is exactly free. *)
val set_fault_plan : t -> Fault.t option -> unit

val fault_plan : t -> Fault.t option
val calls : t -> int
val deadlock_failures : t -> int
val retries : t -> int

(** Reply timeouts that resent the request IPI. *)
val resends : t -> int

(** Calls that returned [Gave_up]. *)
val gave_ups : t -> int

(** Highest attempt number any {!call_until_resolved} reached, recorded
    uniformly on every resolution — first-try successes and local
    ([target = self]) calls included, not only the retry path. *)
val max_attempts_seen : t -> int

(** Failed attempts past the x8 backoff cap — retries that no longer spread
    out; a persistently growing count is the unbounded-retry warning sign
    that the [max_attempts] cap exists to stop. *)
val backoff_cap_hits : t -> int

(** Calls that returned [Dead_target] (counted whether the death was known
    up front or detected on a resend timeout). *)
val dead_targets : t -> int

(** One synchronous call; [service] runs on the target processor. A call to
    the caller's own processor runs the service directly. Never returns
    [Gave_up]; returns [Dead_target] if the target is (or dies) dead. *)
val call : t -> Ctx.t -> target:int -> (Ctx.t -> outcome) -> outcome

(** Retry a call through [Would_deadlock] failures with jittered backoff;
    [before_retry] releases the caller's reserve bits first (the optimistic
    protocol) — it also runs before a [Gave_up] return. [max_attempts]
    caps the attempts (0, the default, retries forever); on exhaustion the
    call returns [Gave_up] instead of [Would_deadlock]. *)
val call_until_resolved :
  ?before_retry:(unit -> unit) ->
  ?max_attempts:int ->
  t ->
  Ctx.t ->
  target:int ->
  (Ctx.t -> outcome) ->
  outcome
