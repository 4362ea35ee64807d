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

(** A lock instance is named by an int id, drawn at creation from its
    machine ([Hector.Machine.fresh_lock_id]): ids are small, dense and
    numbered per machine from 1, so the checker and the observer keep
    per-lock state in columns indexed by id, grown on demand. An id must
    be non-negative, and a sink serves one machine's locks: two machines'
    locks share ids. *)

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

(** {1 Hook events}

    Every lock, reserve-bit, RPC and crash report is one [event] value,
    delivered by [Hector.Machine.emit] (and [Hector.Ctx.emit] from fiber
    code) to the installed checker and then to the installed observer
    ({!Obs.on_event}). Each sink ignores the kinds it does not use. [proc]
    is the reporting processor and [now] the current cycle. A lock event
    carries the pair [(cls, id)] of the lock's class and its instance id
    (above); [word] is a reserve status cell's [Cell.id], with
    [label] its allocation label for diagnostics.
    Diagnostics name a reserve word [<class>#<cell id>], plus [(<label>)]
    when the label is non-empty; Khash status words carry no label, so
    they read [<vname>.reserve#<id>]. *)

type event =
  | Wait of lock_class * int
      (** A blocking acquisition is about to wait. Reported before the
          first spin, even if the lock turns out to be free: the dependency
          exists either way, so order edges are recorded from every class
          held. Balance with [Acquired] or [Wait_abandoned]. *)
  | Wait_timed of lock_class * int
      (** A {e timed} blocking acquisition is about to wait. Like
          [Try_acquired] it records no order edges (a waiter that abandons
          at its deadline cannot be the permanently-waiting side of a
          deadlock), but it pushes a wait frame, marked timed, so
          diagnostics show it; the watchdog's deadlock walk and stall
          trigger skip timed frames. The observer sees an ordinary wait.
          Balance as for [Wait]. *)
  | Acquired of lock_class * int
      (** The blocking acquisition of a [Wait] succeeded. *)
  | Try_acquired of lock_class * int
      (** A non-blocking acquisition succeeded (no [Wait] was reported). *)
  | Wait_abandoned
      (** The blocking acquisition timed out and gave up. The observer
          bumps [aborts] and then [contended] without an acquisition;
          since a report is host-atomic, any mid-run sampler sees rows
          satisfying [contended <= acqs + aborts]. *)
  | Released of lock_class * int
      (** A release. If the releasing processor does not hold the lock but
          the registered holder has fail-stopped, the release is a legal
          recovery transfer: the corpse's held entry is removed and
          {!recoveries} incremented instead of reporting [Bad_release]. *)
  | Acquired_shared of lock_class * int
  | Released_shared of lock_class * int
      (** The shared (reader-side) faces of an RW lock: lockdep-wise
          ordinary acquisitions and releases. The per-processor held lists
          make concurrent shared holders of one instance legal without
          special casing, and a blocking shared acquire (after a [Wait])
          still records order edges, since a reader can be the waiting
          side of a deadlock when a writer gates it. The observer also
          keeps the concurrent-reader gauge ({!Obs.rw_read_peak}). Use a
          distinct reader class (e.g. ["foo.read"]) so reader and writer
          rows separate in the profile. *)
  | Released_dead of { cls : lock_class; id : int; dead : int }
      (** A recoverer ([proc]) swept a shared hold off fail-stopped
          processor [dead]. Unlike the dead-holder path of [Released] this
          names the corpse: the holder table keeps only the last acquirer,
          and a shared instance has many concurrent holders, so the
          registered holder may be a live reader. Legal (the held entry is
          removed and {!recoveries} incremented) exactly when [dead]
          fail-stopped and holds the instance; a [Bad_release] otherwise.
          The observer ends [dead]'s hold and reader-gauge entry. *)
  | Transferred of lock_class * int
      (** A legal ownership hand-off with no release/acquire pair: [proc]
          inherits the lock from its registered holder (a cohort's local
          pass moves the session to a cluster-mate while the global
          constituent lock stays held). The held entry moves to [proc],
          keeping its acquisition time; a transfer to the registered
          holder itself is a no-op, and inheriting off a fail-stopped
          holder is equally legal. Checker only. *)
  | Recovered of { cls : lock_class; dead : int; latency : int }
      (** A recovery forced the hand-off a dead holder [dead] will never
          perform, [latency] cycles after the kill (0 if [dead] was since
          revived). Observer only: the forced release itself reaches the
          checker as [Released], which legalises the transfer. Crash-bucket
          attribution goes to [dead]'s cluster. *)
  | Abandon_repaired of lock_class
      (** A hand-off reclaimed a node some timed waiter abandoned;
          attributed to the repairing processor's cluster. Observer
          only. *)
  | Optimistic_abort of lock_class
      (** An optimistic read (seqlock validation failure or writer in
          progress) aborted. Nothing was ever held, so nothing needs
          balancing: observer only, charged to [proc]'s cluster as a
          contended non-acquisition ([contended] and [aborts] both
          bump). *)
  | Reserve_set of { cls : lock_class; word : int; label : string }
      (** A write reservation was taken. Write-reserving an already
          reserved word is a [Double_reserve]. *)
  | Reserve_read_set of { cls : lock_class; word : int; label : string }
      (** A read reservation was taken; read-reserving a write-held word
          is a [Double_reserve]. *)
  | Reserve_clear of { word : int }
      (** A write reservation was cleared. Clearing a free word or one
          owned by a live processor is a [Bad_clear]; clearing a word whose
          owner fail-stopped is a legal sweep, counted in {!recoveries}.
          The observer charges the hold to the setter. *)
  | Reserve_read_clear of { word : int }
      (** A read reservation was dropped; dropping one [proc] does not
          hold is a [Bad_clear]. *)
  | Reserve_wait of {
      cls : lock_class;
      word : int;
      label : string;
      in_interrupt : bool;
    }
      (** A blocking spin on a reserve word begins; balance with
          [Reserve_wait_done]. [in_interrupt] set while servicing an
          interrupt makes this an [Interrupt_wait] violation. *)
  | Reserve_wait_done
  | Rpc_issue of { target : int }
      (** An RPC to [target] is in flight (checker: diagnostics only,
          shown in {!dump}). *)
  | Rpc_retry
      (** A [Would_deadlock] or overdue call is retried. Observer only. *)
  | Rpc_reply  (** The in-flight RPC's reply arrived. *)
  | Proc_crashed
      (** [proc] fail-stopped ([Hector.Machine.kill_proc]): its wait
          frames and in-flight RPC are dropped, since the parked fiber
          never resumes them; its held entries stay until recovery
          transfers them. *)
  | Proc_revived
      (** [proc] came back ([Hector.Machine.revive]). Checker only. *)

(** [on_event t ~proc ~now e] applies one report. All reports tolerate a
    missing start (a checker installed mid-run adopts what it finds). *)
val on_event : t -> proc:int -> now:int -> event -> unit

(** Dead-holder ownership transfers and orphaned-reserve sweeps legalized
    so far. *)
val recoveries : t -> int

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
