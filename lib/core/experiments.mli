(** One runner per table/figure of the paper's evaluation, plus the
    ablations in DESIGN.md. Shared by the benchmark harness
    ([bench/main.exe]), the CLI ([bin/hurricane_sim]) and the claim-level
    regression tests. *)

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

type verify_row = {
  vprobe : Verify_probes.probe;
  vexpected : string;  (** expected violation kind, "none" for clean *)
  vviolations : int;
  vhits : int;  (** violations of the expected kind *)
  vaborted : bool;  (** run terminated by the watchdog raising *)
  vok : bool;
  vfirst : string;  (** first violation recorded, for display *)
}

val verify_suite : unit -> verify_row list

(** NUMA-LOCKS — cross-cluster contention: flat MCS against the NUMA-aware
    composites (C-MCS-MCS cohort, HMCS, CNA), sweeping cluster count and
    hold time on 16 processors. [nremote_frac] is the fraction of
    contended hand-offs that crossed a cluster boundary — the composites'
    figure of merit. *)

type numa_point = {
  nalgo : Lock.algo;
  nclusters : int;
  nhold_us : float;
  nmean_us : float;
  np99_us : float;
  nacqs : int;
  nlocal : int;  (** contended hand-offs inside a cluster *)
  nremote : int;  (** contended hand-offs across clusters *)
  nremote_frac : float;  (** nremote / (nlocal + nremote); 0 if none *)
  nmax_wait_us : float;
}

(** The algorithms NUMA-LOCKS compares: flat H2-MCS plus the composites. *)
val numa_algos : Lock.algo list

val numa_locks :
  ?cfg:Config.t ->
  ?clusters:int list ->
  ?holds_us:float list ->
  ?algos:Lock.algo list ->
  unit ->
  numa_point list

(** HASH-SCALING — the sharded hash table: single-lock Hybrid against
    [Sharded] at several shard counts, optimistic seqlock reads off/on,
    sweeping concurrency and read mix. *)

type hash_point = {
  hgran : Hkernel.Khash.granularity;
  hshards : int;  (** 1 for Hybrid *)
  hoptimistic : bool;
  hp : int;
  hread_ratio : float;
  hread_mean_us : float;  (** lookup latency *)
  hread_p99_us : float;
  hupdate_mean_us : float;  (** update latency, element work excluded *)
  hthroughput : float;  (** completed ops per virtual millisecond *)
  hopt_hits : int;
  hopt_fallbacks : int;
  hatomics : int;
}

(** The processor counts HASH-SCALING sweeps (its outermost axis). *)
val hash_procs : int list

val hash_scaling :
  ?cfg:Config.t ->
  ?procs:int list ->
  ?read_ratios:float list ->
  ?shard_counts:int list ->
  unit ->
  hash_point list

(** OBS — the contention profile ({!Obs}) of a dosed fault storm: which
    lock class, on which cluster (station), burned the waiting cycles. *)

type obs_result = { obs_rows : Obs.row list; obs_storm : Fault_storm.result }

val obs_profile :
  ?cfg:Config.t -> ?mechanism:Fault_storm.mechanism -> unit -> obs_result

(** ABORT-STORM — timed acquisition under a planted cross-cluster holder
    stall ({!Workloads.Abort_storm}): flat MCS and the NUMA composites,
    each with a holder that goes dark far longer than any waiter's
    deadline. [abound_ratio] is the acceptance bound — the worst
    return-time-to-timeout multiple over every expired attempt; remote
    aborts show waiters expiring at every level of the composite. *)

type abort_point = {
  aalgo : Lock.algo;
  aattempts : int;
  aacqs : int;
  aaborts : int;
  afast_fails : int;
      (** refused instantly: an earlier expiry's abandoned node was still
          enqueued awaiting repair *)
  astalls : int;
  aover_mean_us : float;  (** waited-out expiries: return minus deadline *)
  aover_p99_us : float;
  aover_max_us : float;
  abound_ratio : float;  (** worst (return − issue) / timeout *)
  arecovery_mean_us : float;
      (** stall release to next successful timed acquisition *)
  arecovery_max_us : float;
  aobs_aborts : int;  (** observer-counted, cohort constituents included *)
  aobs_repairs : int;
  aremote_aborts : int;  (** aborts outside the staller's cluster *)
  afinal_free : bool;  (** lock free after the final untimed drain *)
}

val abort_storm :
  ?cfg:Config.t -> ?algos:Lock.algo list -> unit -> abort_point list

(** RW-SCALING — read-mostly page-descriptor lookups
    ({!Workloads.Rw_scaling}): the exclusive-lock baseline against the
    distributed RW lock (plus its centralised-indicator comparator), the
    seqlock optimistic path and per-cluster replication, sweeping read
    ratio and cluster count. [rpeak_readers] > 1 is the reader-parallelism
    evidence; [rread_remote] = 0 the distributed layout's locality
    evidence. *)

type rw_point = {
  rstyle : Rw_scaling.style;
  rstyle_name : string;
  rread_ratio : float;
  rclusters : int;
  rp : int;
  rread_mean_us : float;
  rread_p99_us : float;
  rread_p999_us : float;
  rwrite_mean_us : float;
  rthroughput : float;  (** all completed ops per virtual ms *)
  rread_throughput : float;
  rreads : int;
  rwrites : int;
  rpeak_readers : int;
  rread_remote : int;
  rseq_aborts : int;
  rlockdep_violations : int;  (** must be 0 *)
}

(** The candidate styles RW-SCALING compares. *)
val rw_styles : Rw_scaling.style list

val rw_scaling :
  ?cfg:Config.t ->
  ?styles:Rw_scaling.style list ->
  ?ratios:float list ->
  ?clusters:int list ->
  ?ops:int ->
  unit ->
  rw_point list

(** CRASH-STORM — fail-stop processor crashes planted mid-critical-section
    ({!Workloads.Crash_storm}): representative flat queue locks and the
    NUMA composites, each with victims dying while holding the lock and
    every survivor acquiring through the recoverable face. Conservation
    (every kill recovered), legality (an installed lockdep checker sees
    every forced release as a recovery transfer, zero violations) and the
    kill-to-forced-release latency distribution, worst cluster included. *)

type crash_point = {
  calgo : Lock.algo;
  ckills : int;
  cacqs : int;  (** successful worker acquisitions around the kills *)
  cobs_crashes : int;
  cobs_recoveries : int;
      (** forced releases, cohort constituents included *)
  clockdep_recoveries : int;  (** checker-legalised recovery transfers *)
  clockdep_violations : int;  (** must be 0 *)
  crec_mean_us : float;  (** kill to forced release *)
  crec_p99_us : float;
  crec_max_us : float;
  crec_n : int;
  cclusters_hit : int;  (** clusters with at least one recovery sample *)
  cworst_cluster_p99_us : float;
  cfinal_free : bool;  (** lock free after the surviving-processor drain *)
}

(** The algorithms CRASH-STORM kills and recovers. *)
val crash_algos : Lock.algo list

val crash_storm :
  ?cfg:Config.t -> ?algos:Lock.algo list -> unit -> crash_point list

(** SLO — open-loop sustained-request stream over the sharded
    million-element table ({!Workloads.Slo_stream}): exponential arrivals
    at a fixed offered rate, FIFO queueing behind a random server,
    arrival-to-completion latency with p50/p99/p99.9 tails. One point per
    offered rate; the top rate sits past the knee so the tails visibly
    leave the service time while the stream still drains. *)

type slo_point = {
  srate : float;  (** offered requests per virtual ms *)
  sp : int;
  selements : int;
  sshards : int;
  scompleted : int;
  sachieved : float;  (** completed requests per virtual ms *)
  sread : Measure.summary;  (** arrival-to-completion, reads *)
  supdate : Measure.summary;
  speak_backlog : int;
  sopt_hits : int;
  sopt_fallbacks : int;
  sviolations : int;  (** must be 0 *)
}

(** The offered-load sweep the SLO experiment runs. *)
val slo_rates : float list

val slo :
  ?cfg:Config.t ->
  ?rates:float list ->
  ?elements:int ->
  ?requests:int ->
  unit ->
  slo_point list

(** ADAPTIVE — lock morphing over the diurnal load cycle
    ({!Workloads.Diurnal}): load ramps cold → hot → cold; no static shape
    wins both phases, while the morphing {!Locks.Lock.Adaptive} lock
    tracks the per-phase winner. One point per algorithm raced over the
    identical cycle. *)

type adaptive_point = {
  dalgo : Lock.algo;
  dname : string;
  dcold1_ops : int;
  dhot_ops : int;
  dcold2_ops : int;
  dcold_throughput : float;  (** ops per virtual ms, both cold plateaus *)
  dhot_throughput : float;
  dmorphs_up : int;  (** observer-counted promotions; 0 for static shapes *)
  dmorphs_down : int;
  dfinal_shape : int;
  dfinal_free : bool;
  dviolations : int;  (** must be 0 *)
}

(** The algorithms the ADAPTIVE experiment races: the morphing lock's own
    three shapes (test&set, H1-MCS, CNA) plus H2-MCS, the cohort composite
    and HMCS, and the morphing lock itself — a field wide enough that each
    phase's winner is a different static shape. *)
val adaptive_algos : Lock.algo list

val adaptive :
  ?cfg:Config.t -> ?algos:Lock.algo list -> unit -> adaptive_point list
