(** Lockdep-style runtime verification: lock-order tracking, reserve-bit
    ownership, and a waits-for/stall watchdog.

    A checker is installed on the machine ([Hector.Machine.set_verify]) and
    the locking layers report into it from host code: hooks charge no
    simulated cycles, draw no random numbers and schedule no events, so a
    run with a checker installed has bit-identical simulated timing to one
    without (the [Eventsim.Fault] zero-cost discipline). The one exception
    is [watchdog], which is an explicit low-frequency engine event.

    Checking layers:
    - {b Lock order}: every blocking acquisition adds dependency edges from
      each lock class the processor already holds to the class being
      acquired; an edge closing a cycle across distinct classes is an
      [Order_cycle] the first time the inversion becomes possible, not only
      when it strikes. Non-blocking acquisitions (TryLock, [try_reserve])
      add no edges — they cannot be the waiting side of a deadlock — which
      is what keeps the kernel's hybrid try-reserve-under-coarse-lock
      protocol free of false positives. Same-class edges are recorded but
      not reported (file-cache read-ahead nests block reservations in
      forward index order); true same-class deadlocks are still caught by
      the watchdog.
    - {b Reserve ownership}: each set bit records owner and set time;
      double sets, foreign or double clears, leaked bits at [finish], and
      interrupt-context waits (the RPC [Would_deadlock] invariant) are
      violations.
    - {b Watchdog}: waiting processors form a functional waits-for graph
      (innermost wait frame, resource holder known from the other layers);
      a cycle is a [Deadlock_cycle], a global no-progress window with a
      waiter present is a [Stall]. Both abort the run with a diagnostic
      dump in every mode — their purpose is to terminate runs that would
      otherwise spin to the event budget. *)

(** {1 Classes and identities} *)

(** A lock class: all locks created for the same role (e.g. every per-bin
    lock of one hash table) share a class; ordering is checked between
    classes, not instances. *)
type lock_class = int

(** [lock_class name] interns [name], returning the same id for the same
    name. Creation order is deterministic, so ids are stable run to run. *)
val lock_class : string -> lock_class

val class_name : lock_class -> string

(** Globally unique lock-instance id; locks draw one at creation so their
    identity exists before any checker is installed. *)
val fresh_id : unit -> int

(** {1 Violations} *)

type kind =
  | Order_cycle  (** inverted acquisition order across lock classes *)
  | Recursive_acquire
      (** blocking on an instance/word this processor holds *)
  | Bad_release  (** releasing a lock the processor does not hold *)
  | Double_reserve  (** write-reserving an already-reserved word *)
  | Bad_clear  (** clearing a free word or one owned by someone else *)
  | Reserve_leak  (** bit still set at workload end *)
  | Interrupt_wait  (** reserve wait in interrupt context *)
  | Stall  (** watchdog: no global progress while someone waits *)
  | Deadlock_cycle  (** watchdog: actual waits-for cycle *)

val kind_name : kind -> string

type violation = { vkind : kind; vproc : int; vtime : int; vmsg : string }

exception Violation of violation

val pp_violation : Format.formatter -> violation -> unit

(** {1 Checker} *)

type t

(** [create ~n_procs ()] makes a checker. In [`Record] mode (default)
    violations accumulate and the run continues; in [`Abort] mode the
    first violation raises [Violation]. [Stall] and [Deadlock_cycle]
    raise in both modes. *)
val create : ?mode:[ `Abort | `Record ] -> n_procs:int -> unit -> t

(** Violations recorded so far, oldest first. *)
val violations : t -> violation list

val violation_count : t -> int
val count_kind : t -> kind -> int

(** Per-processor held/waiting/RPC state, for diagnostics. *)
val dump : t -> now:int -> string

(** {1 Lock hooks} (called by [lib/locks] implementations) *)

(** A blocking acquisition is about to wait (called even if the lock turns
    out to be free: the dependency exists either way). *)
val wait_acquire : t -> proc:int -> cls:lock_class -> id:int -> now:int -> unit

(** A {e timed} blocking acquisition is about to wait. Like {!try_acquired}
    it records no order edges — a waiter that abandons at its deadline
    cannot be the permanently-waiting side of a deadlock — but it does push
    a wait frame (marked timed) so diagnostics show it; the watchdog's
    deadlock walk and stall trigger both skip timed frames. Balance with
    {!acquired} on success or {!wait_abandoned} on timeout, exactly as for
    {!wait_acquire}. *)
val wait_acquire_timed :
  t -> proc:int -> cls:lock_class -> id:int -> now:int -> unit

(** The blocking acquisition of [wait_acquire] succeeded. *)
val acquired : t -> proc:int -> cls:lock_class -> id:int -> now:int -> unit

(** A non-blocking acquisition succeeded (no [wait_acquire] was issued). *)
val try_acquired :
  t -> proc:int -> cls:lock_class -> id:int -> now:int -> unit

(** The blocking acquisition of [wait_acquire] timed out and gave up. *)
val wait_abandoned : t -> proc:int -> now:int -> unit

(** A release. If the releasing processor does not hold the lock but the
    registered holder has fail-stopped ({!proc_crashed}), the release is a
    legal recovery transfer: the corpse's held entry is removed and
    {!recoveries} incremented instead of reporting [Bad_release]. *)
val released : t -> proc:int -> cls:lock_class -> id:int -> now:int -> unit

(** A recoverer ([proc]) sweeps a hold off fail-stopped processor [dead].
    Unlike the dead-holder path of {!released} this names the corpse
    explicitly: the holder table keeps only the last acquirer of an
    instance, and a shared (RW reader-side) instance has many concurrent
    holders, so the registered holder may be a live reader while the
    processor being swept is not. Legal — the held entry is removed and
    {!recoveries} incremented — exactly when [dead] fail-stopped and holds
    the instance; a [Bad_release] otherwise. *)
val released_dead :
  t -> proc:int -> dead:int -> cls:lock_class -> id:int -> now:int -> unit

(** A legal ownership hand-off with no release/acquire pair: [proc]
    inherits the lock from its registered holder (a cohort's local pass
    moves the session to a cluster-mate while the global constituent lock
    stays held). The held entry moves to [proc], keeping its original
    acquisition time; a transfer to the registered holder itself is a
    no-op, and inheriting off a fail-stopped holder is equally legal. *)
val transferred :
  t -> proc:int -> cls:lock_class -> id:int -> now:int -> unit

(** {1 Crash hooks} (called by [Hector.Machine.kill_proc]/[revive]) *)

(** Processor [proc] fail-stopped: its wait frames and in-flight RPC are
    dropped (the parked fiber never resumes them); its held entries stay
    until recovery transfers them. Clears by recoverers of reserve words
    owned by a dead processor become legal sweeps, not [Bad_clear]s. *)
val proc_crashed : t -> proc:int -> now:int -> unit

val proc_revived : t -> proc:int -> unit

(** Is the processor currently marked fail-stopped? *)
val proc_dead : t -> int -> bool

(** Dead-holder ownership transfers and orphaned-reserve sweeps legalized
    so far. *)
val recoveries : t -> int

(** {1 Reserve hooks} (called by [Locks.Reserve]; [word] is the status
    cell's [Cell.id], [label] its allocation label for diagnostics).
    Diagnostics name a reserve word [<class>#<cell id>], plus [(<label>)]
    when the label is non-empty. Khash status words carry no label, so
    they are identified by class and cell id alone
    ([<vname>.reserve#<id>]). *)

val reserve_set :
  t -> proc:int -> cls:lock_class -> word:int -> label:string -> now:int -> unit

val reserve_clear : t -> proc:int -> word:int -> now:int -> unit

val reserve_read_set :
  t -> proc:int -> cls:lock_class -> word:int -> label:string -> now:int -> unit

val reserve_read_clear : t -> proc:int -> word:int -> now:int -> unit

(** A blocking spin on a reserve word begins. [in_interrupt] set while
    servicing an interrupt makes this an [Interrupt_wait] violation. *)
val reserve_wait :
  t ->
  proc:int ->
  cls:lock_class ->
  word:int ->
  label:string ->
  now:int ->
  in_interrupt:bool ->
  unit

val reserve_wait_done : t -> proc:int -> now:int -> unit

(** {1 RPC hooks} (diagnostics only: shown in [dump]) *)

val rpc_started : t -> proc:int -> target:int -> now:int -> unit
val rpc_finished : t -> proc:int -> now:int -> unit

(** {1 Watchdog and end-of-run checks} *)

(** [watchdog t eng] schedules a low-frequency check every [period] cycles
    (default 50k): an actual waits-for cycle raises [Violation
    Deadlock_cycle]; more than [stall_limit] cycles (default 1M) without
    any lock/reserve/RPC progress while a processor waits raises
    [Violation Stall]. Both carry [dump] output. The watchdog stops
    rescheduling itself when it is the only pending event, so finished
    workloads still terminate. *)
val watchdog : ?period:int -> ?stall_limit:int -> t -> Eventsim.Engine.t -> unit

(** End-of-workload check: report every reserve bit still set as a
    [Reserve_leak]. *)
val finish : t -> now:int -> unit
