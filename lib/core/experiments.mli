(** One runner per table/figure of the paper's evaluation, plus the
    ablations in DESIGN.md. Shared by the benchmark harness
    ([bench/main.exe]), the CLI ([bin/hurricane_sim]) and the claim-level
    regression tests. The extension runners (VERIFY, NUMA-LOCKS,
    HASH-SCALING, ABORT-STORM, RW-SCALING, CRASH-STORM, SLO, ADAPTIVE)
    return their workload's own [result], paired with its [config] where
    the result does not carry the row's sweep coordinates; the fields are
    documented once, on the workload's interface. *)

open Hector
open Locks
open Workloads

val paper_procs : int list
val paper_cluster_sizes : int list

(** Figure 5's five algorithms. *)
val fig5_algos : Lock.algo list

(** Figure 7's kernel-lock algorithms (both modified-MCS variants and the
    35 µs spin lock). *)
val fig7_algos : Lock.algo list

(** FIG4 — the instruction-count table. *)

type fig4_row = {
  algo : Instr_model.algo;
  ours : Instr_model.counts;
  paper : Instr_model.counts;
  predicted_us : float;
}

val fig4 : ?cfg:Config.t -> unit -> fig4_row list

(** UNC — Section 4.1.1 uncontended latencies. *)
val uncontended : ?cfg:Config.t -> unit -> Uncontended.result list

(** FIG5a/FIG5b — lock response time under contention. *)

type fig5_series = {
  algo : Lock.algo;
  points : (int * Lock_stress.result) list;
}

val fig5 :
  ?cfg:Config.t ->
  ?hold_us:float ->
  ?procs:int list ->
  ?window_us:float ->
  ?algos:Lock.algo list ->
  unit ->
  fig5_series list

val fig5a :
  ?cfg:Config.t ->
  ?procs:int list ->
  ?algos:Lock.algo list ->
  unit ->
  fig5_series list

val fig5b :
  ?cfg:Config.t ->
  ?procs:int list ->
  ?algos:Lock.algo list ->
  unit ->
  fig5_series list

(** The Section 4.1.2 starvation measurement (2 ms spin lock, p=16,
    25 µs hold). *)
val starvation : ?cfg:Config.t -> unit -> Measure.summary

(** FIG7 — page-fault latency series. *)

type fig7_point = {
  x : int;  (** p for 7a/7b; cluster size for 7c/7d *)
  mean_us : float;
  p99_us : float;
  retries : int;
  rpcs : int;
}

type fig7_series = { lock_algo : Lock.algo; series : fig7_point list }

val fig7a :
  ?cfg:Config.t ->
  ?procs:int list ->
  ?iters:int ->
  ?algos:Lock.algo list ->
  unit ->
  fig7_series list

val fig7b :
  ?cfg:Config.t ->
  ?procs:int list ->
  ?rounds:int ->
  ?algos:Lock.algo list ->
  unit ->
  fig7_series list

val fig7c :
  ?cfg:Config.t ->
  ?sizes:int list ->
  ?iters:int ->
  ?algos:Lock.algo list ->
  unit ->
  fig7_series list

val fig7d :
  ?cfg:Config.t ->
  ?sizes:int list ->
  ?rounds:int ->
  ?algos:Lock.algo list ->
  unit ->
  fig7_series list

(** CONST — the absolute anchors. *)
val constants : ?cfg:Config.t -> unit -> Calibration.result

(** RETRY — optimistic vs pessimistic destruction storms. *)
val retries :
  ?cfg:Config.t -> unit -> Destruction.result * Destruction.result

(** ABL1 — hybrid vs coarse vs fine hash locking. *)
val ablation_granularity :
  ?cfg:Config.t -> unit -> Hash_stress.result list

(** ABL2 — combining tree on/off. *)
val ablation_combining :
  ?cfg:Config.t -> unit -> Replication_storm.result * Replication_storm.result

(** ABL3 — compare&swap release (Section 5.2). *)

type abl3_row = {
  machine : string;
  algo : Lock.algo;
  uncontended_us : float;
  contended_p16_us : float;
}

val ablation_cas : unit -> abl3_row list

(** ABL4 — CLH vs MCS across machines (Section 5.2). *)

type abl4_row = { machine4 : string; algo4 : Lock.algo; contended_us : float }

val ablation_clh : unit -> abl4_row list

(** ABL5 — cache-based lock primitives (Sections 5.2/5.3). *)

type abl5_row = {
  machine5 : string;
  algo5 : Lock.algo;
  pair_us : float;
  pair_cycles : float;
}

val ablation_cached_locks : unit -> abl5_row list

(** ABL6 — spin-then-block under long holds (Section 5.3). *)
val ablation_spin_then_block :
  ?hold_us:float -> unit -> (Lock.algo * Lock_stress.result) list

(** ABL7 — lock-free single-word updates (Section 5.3). *)
val ablation_lockfree : unit -> Counter_stress.result list

(** ABL8 — data-structure design: combined vs separate family tree
    (Section 2.5). *)
val ablation_layout :
  ?cfg:Config.t -> unit -> Messaging_mix.result * Messaging_mix.result

(** ABL9 — the queue-lock family (spin, ticket, Anderson, CLH, MCS-CAS,
    spin-then-block) on the modern machine: latency and space
    (Section 5.2's trade-off discussion). *)

type abl9_row = {
  algo9 : Lock.algo;
  unc_us : float;
  contended12_us : float;
  space : int;
}

val abl9_algos : Lock.algo list
val ablation_lock_family : ?cfg:Config.t -> unit -> abl9_row list

(** TRY — TryLock fairness under saturation (Section 3.2). *)
val trylock : ?cfg:Config.t -> unit -> Trylock_starvation.result

(** CLASSES — the paper's four access-behaviour classes (Section 1) running
    simultaneously, one cluster each. *)
val classes : ?cfg:Config.t -> unit -> Four_classes.result

(** COW — simultaneous copy-on-write breaks under both deadlock strategies
    (Sections 2.3 / 2.5). *)
val cow : ?cfg:Config.t -> unit -> Cow_storm.result * Cow_storm.result

(** FS — the file server built from the same techniques (Section 5.1):
    private vs shared files, read-ahead off/on. *)
val fs : ?cfg:Config.t -> unit -> File_read.result list

(** FAULTS — injected lock-holder stalls (1 ms, scheduled at a fixed
    period so every mechanism gets the same dose) against the unbounded
    protocol, timeout-capable locking, and bounded-retry RPC. *)

type fault_row = {
  fmech : Fault_storm.mechanism;
  stall_every_us : float;  (** 0 = fault-free baseline *)
  fault_ops : int;
  retained : float;  (** fault_ops over the mechanism's baseline ops *)
  recovery_mean_us : float;
  recovery_p99_us : float;
  fault_lock_timeouts : int;
  fault_reserve_timeouts : int;
  fault_gave_ups : int;
  fault_deferred : int;
  stalls : int;
}

val fault_matrix :
  ?cfg:Config.t -> ?periods_us:float list -> unit -> fault_row list

(** VERIFY — the lockdep checker ({!Verify}) against the planted-violation
    probes: every deliberately wrong workload must be caught (the two
    watchdog probes by aborting an otherwise-endless run), and the clean
    storm must record nothing. *)
val verify_suite : unit -> Verify_probes.result list

(** NUMA-LOCKS — cross-cluster contention: flat MCS against the NUMA-aware
    composites (C-MCS-MCS cohort, HMCS, CNA), sweeping cluster count and
    hold time on 16 processors. One row per (algorithm, clusters, hold);
    the composites' figure of merit is {!Workloads.Numa_stress.remote_frac}. *)

(** The algorithms NUMA-LOCKS compares: flat H2-MCS plus the composites. *)
val numa_algos : Lock.algo list

val numa_locks :
  ?cfg:Config.t ->
  ?clusters:int list ->
  ?holds_us:float list ->
  ?algos:Lock.algo list ->
  unit ->
  (Lock.algo * Numa_stress.config * Numa_stress.result) list

(** HASH-SCALING — the sharded hash table: single-lock Hybrid against
    [Sharded] at several shard counts, optimistic seqlock reads off/on,
    sweeping concurrency and read mix. One row per configuration. *)

(** The processor counts HASH-SCALING sweeps (its outermost axis). *)
val hash_procs : int list

val hash_scaling :
  ?cfg:Config.t ->
  ?procs:int list ->
  ?read_ratios:float list ->
  ?shard_counts:int list ->
  unit ->
  (Hash_scaling.config * Hash_scaling.result) list

(** OBS — the contention profile ({!Obs}) of a dosed fault storm: which
    lock class, on which cluster (station), burned the waiting cycles. *)

type obs_result = { obs_rows : Obs.row list; obs_storm : Fault_storm.result }

val obs_profile :
  ?cfg:Config.t -> ?mechanism:Fault_storm.mechanism -> unit -> obs_result

(** ABORT-STORM — timed acquisition under a planted cross-cluster holder
    stall ({!Workloads.Abort_storm}): flat MCS and the NUMA composites,
    each with a holder that goes dark far longer than any waiter's
    deadline. The acceptance bound is [bound_ratio], the worst
    return-time-to-timeout multiple over every expired attempt; remote
    aborts show waiters expiring at every level of the composite. *)
val abort_storm :
  ?cfg:Config.t -> ?algos:Lock.algo list -> unit -> Abort_storm.result list

(** RW-SCALING — read-mostly page-descriptor lookups
    ({!Workloads.Rw_scaling}): the exclusive-lock baseline against the
    distributed RW lock (plus its centralised-indicator comparator), the
    seqlock optimistic path and per-cluster replication, sweeping read
    ratio and cluster count. [peak_readers] > 1 is the reader-parallelism
    evidence; [read_remote] = 0 the distributed layout's locality
    evidence. *)

(** The candidate styles RW-SCALING compares. *)
val rw_styles : Rw_scaling.style list

val rw_scaling :
  ?cfg:Config.t ->
  ?styles:Rw_scaling.style list ->
  ?ratios:float list ->
  ?clusters:int list ->
  ?ops:int ->
  unit ->
  Rw_scaling.result list

(** CRASH-STORM — fail-stop processor crashes planted mid-critical-section
    ({!Workloads.Crash_storm}): representative flat queue locks and the
    NUMA composites, each with victims dying while holding the lock and
    every survivor acquiring through the recoverable face. Conservation
    (every kill recovered), legality (an installed lockdep checker sees
    every forced release as a recovery transfer, zero violations) and the
    kill-to-forced-release latency distribution, worst cluster included. *)

(** The algorithms CRASH-STORM kills and recovers. *)
val crash_algos : Lock.algo list

val crash_storm :
  ?cfg:Config.t -> ?algos:Lock.algo list -> unit -> Crash_storm.result list

(** SLO — open-loop sustained-request stream over the sharded
    million-element table ({!Workloads.Slo_stream}): exponential arrivals
    at a fixed offered rate, FIFO queueing behind a random server,
    arrival-to-completion latency with p50/p99/p99.9 tails. One row per
    offered rate; the top rate sits past the knee so the tails visibly
    leave the service time while the stream still drains. *)

(** The offered-load sweep the SLO experiment runs. *)
val slo_rates : float list

val slo :
  ?cfg:Config.t ->
  ?rates:float list ->
  ?elements:int ->
  ?requests:int ->
  unit ->
  (Slo_stream.config * Slo_stream.result) list

(** ADAPTIVE — lock morphing over the diurnal load cycle
    ({!Workloads.Diurnal}): load ramps cold → hot → cold; no static shape
    wins both phases, while the morphing {!Locks.Lock.Adaptive} lock
    tracks the per-phase winner. One row per algorithm raced over the
    identical cycle. *)

(** The algorithms the ADAPTIVE experiment races: the morphing lock's own
    three shapes (test&set, H1-MCS, CNA) plus H2-MCS, the cohort composite
    and HMCS, and the morphing lock itself — a field wide enough that each
    phase's winner is a different static shape. *)
val adaptive_algos : Lock.algo list

val adaptive :
  ?cfg:Config.t -> ?algos:Lock.algo list -> unit -> Diurnal.result list
