(** Planted-violation probes for the lockdep checker ({!Verify}): each
    probe commits one class of locking error on purpose and reports
    whether the checker caught it; [Clean] runs a fault-free storm that
    must stay silent. Together they establish both directions of checker
    correctness — fires on every planted class, silent on correct code. *)

type probe =
  | Abba  (** staggered inverted lock order — possible, never strikes *)
  | Leak  (** reserve bit still set at workload end *)
  | Interrupt_spin  (** reserve wait inside an interrupt handler *)
  | Stalled_holder  (** holder dies; unbounded waiter; watchdog [Stall] *)
  | Deadlock  (** true ABBA deadlock; watchdog [Deadlock_cycle] *)
  | Aborted_waiter
      (** ABBA shape with {e timed} inner acquisitions that expire,
          retreat and retry — self-resolving, so the checker must stay
          silent: no phantom order/deadlock report, no stall *)
  | Dead_owner
      (** holder fail-stops mid-critical-section; a survivor's detector
          force-releases the corpse's hold — the checker must legalise it
          as a recovery transfer: zero violations and [recoveries] > 0 *)
  | Clean  (** fault-free storm under the checker: zero violations *)

val probe_name : probe -> string
val all : probe list

type result = {
  probe : probe;
  expected : Verify.kind option;  (** [None]: no violation expected *)
  violations : int;  (** all violations recorded *)
  hits : int;  (** violations of the expected kind *)
  aborted : bool;  (** run terminated by the watchdog raising *)
  ok : bool;  (** planted class caught, or clean run silent *)
  first : string;  (** first violation, for display *)
}

(** Run one probe under a fresh checker. The watchdog probes
    ([Stalled_holder], [Deadlock]) would run forever unchecked; here they
    terminate via the watchdog's {!Verify.Violation} (caught — [aborted]
    is set). *)
val run : probe -> result

(** All probes, in {!all} order. *)
val run_all : unit -> result list

(** The expected violation kind's name, ["none"] for a probe expected to
    stay silent. *)
val expected_name : result -> string
