(** Uniform lock interface over every algorithm the paper compares.

    Workloads take a [t] and stay agnostic of the algorithm; [make] builds
    one from an [algo] tag. Every algorithm is constructed in one place,
    {!build}, as a {!Lock_core.packed} instance that reports its own
    capabilities; [t] is a thin record over it. *)

open Hector

type t = {
  name : string;
  acquire : Ctx.t -> unit;
  release : Ctx.t -> unit;
  try_acquire : Ctx.t -> bool;
  try_acquire_for : Ctx.t -> deadline:int -> bool;
      (** Timed acquisition against an absolute deadline (in
          [Machine.now] units). On an abortable algorithm ([abortable]),
          returns [false] — holding nothing, with all queue state
          eventually repaired — once the deadline expires; may return
          [true] past the deadline when a hand-off committed first (a
          committed grant must be consumed — nobody else ever will). An
          already-expired deadline fails without touching the lock. On a
          non-abortable algorithm this simply blocks, acquires, and
          returns [true].

          Abortability matrix (as each built instance reports it):
          - abortable: Spin, MCS (all variants), CLH, Anderson, HMCS,
            CNA, Null, any Cohort whose two constituents are both
            abortable, and any Adaptive whose NUMA shape is abortable
            (its test&set and MCS shapes always are);
          - non-abortable (timed face blocks): Ticket (a drawn ticket
            cannot be handed back), Spin_then_block (wakeup is the
            scheduler's promise). *)
  abortable : bool;
  recover : Ctx.t -> bool;
      (** Dead-holder recovery: if the processor holding the lock has
          fail-stopped, force the release it will never perform (the
          thread-oblivious release run by the detector) and return [true];
          [false] when the lock is free, the holder is alive, the
          algorithm is not recoverable, or another recovery is in flight.
          The caller does not hold the lock afterwards — it re-contends.

          Recoverability matrix: every base and composite algorithm except
          [Spin_then_block] (blocked waiters are the scheduler's, beyond
          the lock's reach) and [Null]; a [Cohort] is recoverable iff both
          constituents are abortable and recoverable (not over Ticket,
          whose in-spin repair would release one constituent behind the
          cohort's back), and an [Adaptive] iff its NUMA shape is.
          Ticket is recoverable despite being non-abortable — its waiters
          run the dead-holder check inside their own spin. *)
  recoverable : bool;
  is_free : unit -> bool;
  acquires : int ref;
      (** Completed blocking and successful timed acquisitions. *)
}

type algo =
  | Spin of { max_backoff_us : float }
  | Mcs_original
  | Mcs_h1
  | Mcs_h2
  | Mcs_cas
  | Clh
  | Ticket
  | Anderson
  | Spin_then_block of { spin_us : float }
  | Null
  | Cohort of { local : algo; global : algo; max_handoffs : int }
      (** Lock cohorting: one [local] lock per cluster under one [global]
          lock; at most [max_handoffs] consecutive in-cluster hand-offs.
          Constituents must be base algorithms (not [Null], STB, or another
          composite) — {!build} raises [Invalid_argument] otherwise. *)
  | Hmcs of { threshold : int }
      (** Hierarchical MCS: a two-level MCS tree, local queue per cluster
          plus a root queue over clusters. *)
  | Cna of { threshold : int }
      (** Compact NUMA-aware MCS: release shunts remote-cluster waiters
          onto a secondary queue, spliced back after [threshold]
          consecutive local hand-offs. *)
  | Rw of { writer : algo; policy : Rwlock.policy; centralised : bool }
      (** Distributed reader–writer lock: per-cluster reader indicators
          (single word when [centralised]) over any exclusive [writer]
          constituent — a base algorithm or a NUMA composite, so RW-cohort
          and RW-CNA come free; not [Null], STB, or another [Rw]. The
          uniform record carries the {e writer} face; workloads that want
          the reader side build with {!make_rw}. Requires compare&swap. *)
  | Adaptive of { numa : algo }
      (** Morphing lock ({!Adaptive}): starts as a 5 µs-capped test&set
          (capped low so a post-morph drain hands off quickly),
          promotes to H1-MCS when the contended fraction of a sliding
          acquisition window crosses a threshold, promotes again to [numa]
          (a NUMA composite: [Cohort], [Hmcs] or [Cna] — {!build} raises
          [Invalid_argument] otherwise) when the remote-hand-off fraction
          crosses a second threshold, and demotes as traffic cools. All
          three shapes share one lockdep class; the morph protocol drains
          the old shape before the new one carries the lock. *)

val algo_name : algo -> string

(** [true] iff {!make} demands a compare&swap machine for this algorithm
    ([Mcs_cas], [Ticket], [Anderson], [Rw], or a cohort containing one) — lets a
    workload sweeping the family upgrade its configuration
    ([Config.with_cas]) for exactly the algorithms that need it. *)
val needs_cas : algo -> bool

(** The five algorithms of Figure 5: MCS, H1-MCS, H2-MCS, spin with 35 µs
    cap, spin with 2 ms cap. *)
val all_paper_algos : algo list

(** The paper-faithful cohort instance: MCS at both levels, default
    hand-off bound. *)
val c_mcs_mcs : algo

val hmcs : algo
val cna : algo

(** The three NUMA-aware composites at default thresholds. *)
val all_numa_algos : algo list

(** The default morphing lock: test&set → H1-MCS → CNA. *)
val adaptive : algo

(** Every fixed command-line spelling with its algorithm, aliases
    included. *)
val spellings : (string * algo) list

(** [of_string s] parses a spelling (case-insensitive) or
    [spin:<max-backoff-us>]. A spin cap below 1 µs, or not finite, is an
    [Error], as is an unknown name (the message lists the spellings). *)
val of_string : string -> (algo, string) result

(** [build machine ~topo algo] constructs [algo] as a {!Lock_core.packed}
    instance — the one constructor every other entry point goes through.
    Composites build their constituents recursively; each leaf reports
    under [vclass], defaulting to its own class name ("mcs", "spinlock",
    "cohort", ...). Raises [Invalid_argument] for [Null] (use {!null}), for
    [Mcs_cas] on a machine without compare&swap, and for a constituent in
    a role it cannot take (see {!algo}). *)
val build :
  Machine.t ->
  ?home:int ->
  ?vclass:string ->
  topo:Lock_core.topo ->
  algo ->
  Lock_core.packed

(** {!build} wrapped in the uniform record named [algo_name algo];
    [Null] gives {!null}. [vclass] names the lock-order class reported to
    an installed {!Verify.t} checker. [topo] is the cluster topology the
    NUMA-aware composites are built against, defaulting to the machine's
    hardware stations; base algorithms ignore it. *)
val make :
  Machine.t -> ?home:int -> ?vclass:string -> ?topo:Lock_core.topo -> algo -> t

(** The RW composite with both faces exposed: [make_rw m ~policy
    ~centralised writer] is the lock behind [make (Rw {writer; policy;
    centralised})], as an {!Rwlock.t} so the reader side
    ([Rwlock.acquire_read] and friends) is reachable. The writer
    constituent reports under [vclass ^ ".writer"], readers under
    [vclass ^ ".read"]. Raises [Invalid_argument] on a machine without
    compare&swap or an invalid writer constituent. *)
val make_rw :
  Machine.t ->
  ?home:int ->
  ?vclass:string ->
  ?topo:Lock_core.topo ->
  policy:Rwlock.policy ->
  centralised:bool ->
  algo ->
  Rwlock.t

(** A lock that does nothing; calibration probes use it to measure a path
    with locking subtracted. *)
val null : t

(** Crash-tolerant acquire: timed-acquisition slices of [check_period]
    cycles (default 2000) with a dead-holder {!recover} between them, so a
    waiter never waits forever on a corpse. Degrades to a plain blocking
    [acquire] when the algorithm is not both abortable and recoverable
    (Ticket still recovers — in-spin). The inter-slice backoff pause is
    load-bearing: a fail-fast timed attempt costs zero virtual time while
    the waiter's abandoned node is still queued, and the pause is what
    lets simulated time advance to the hand-off that reclaims it. *)
val acquire_recoverable : ?check_period:int -> t -> Ctx.t -> unit

(** Run [f] holding the lock, with the processor's soft interrupt mask set
    for the duration (the paper's Stodolsky-style deadlock avoidance for
    RPC interrupt handlers). *)
val with_lock_masked : t -> Ctx.t -> (unit -> 'a) -> 'a

(** Run [f] holding the lock. *)
val with_lock : t -> Ctx.t -> (unit -> 'a) -> 'a

(** Space cost of one lock instance in words, for the paper's strategy
    comparisons (Section 2.1 / 5.2).

    Counting convention: every word of lock state is charged to the lock
    that allocates it — the lock word(s), per-processor queue nodes (two
    words for MCS/CLH, three for CNA, which also records the waiter's
    cluster), and per-cluster control state. Per-processor nodes are
    charged at the full machine width even for a cohort's per-cluster
    local locks (nodes are per-processor arrays here, as on a real system
    where they are shared across locks). Formulas for the composites, with
    P processors and C clusters ([n_clusters], default 1):
    - [Cohort]: space(global) + C * space(local) + 2C (owned flag and pass
      counter per cluster);
    - [Hmcs]: 1 + 3C + 2P (root tail; root node and local tail per
      cluster; queue node per processor);
    - [Cna]: 3 + 3P regardless of C — CNA's "compact" claim (lock word,
      secondary-queue head/tail, three-word nodes);
    - [Rw]: space(writer) + C reader-indicator words (count and gate bit
      share a word; 1 word when [centralised]) — the read-parallelism
      upgrade costs one word per cluster on top of whatever exclusive
      lock serialises the writers;
    - [Adaptive]: 1 + max(space(shape)) over its three shapes (mode word
      plus the largest constituent) — under the per-lock {e active} view
      only the current shape's words carry the lock, the morph guard
      keeping the other two quiescent.

    Timed-acquisition state is {e excluded}, by the same convention that
    excludes MCS's per-processor interrupt nodes: the timed twin nodes
    (MCS, CLH, CNA, HMCS — plus HMCS's per-cluster timed root nodes and
    Anderson's ring extension to 2P+1 slots) are per-processor structures
    shared across all locks on a real system, charged to the processor,
    not the lock. *)
val space_words : ?n_clusters:int -> n_procs:int -> algo -> int
