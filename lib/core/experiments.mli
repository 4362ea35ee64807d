(** One runner per table/figure of the paper's evaluation, plus the
    ablations in DESIGN.md, wherever a runner does more than call its
    workload's own [run]: an entry that only runs a workload
    ([Uncontended.run_all], [Calibration.run], [Verify_probes.run_all], …)
    calls it directly from {!Registry}, and the extension experiments
    (NUMA-LOCKS, HASH-SCALING, ABORT-STORM, CRASH-STORM, RW-SCALING, SLO,
    DIURNAL) are each one {!Spec}. Shared by the benchmark harness
    ([bench/main.exe]), the CLI ([bin/hurricane_sim]) and the claim-level
    regression tests. *)

open Locks
open Workloads

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

val fig4 : unit -> fig4_row list

(** FIG5a/FIG5b — lock response time under contention. *)

type fig5_series = {
  algo : Lock.algo;
  points : (int * Lock_stress.result) list;
}

val fig5 :
  ?hold_us:float ->
  ?procs:int list ->
  ?window_us:float ->
  ?algos:Lock.algo list ->
  unit ->
  fig5_series list

(** The Section 4.1.2 starvation measurement (2 ms spin lock, p=16,
    25 µs hold). *)
val starvation : unit -> Measure.summary

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
  ?procs:int list ->
  ?iters:int ->
  ?algos:Lock.algo list ->
  unit ->
  fig7_series list

val fig7b :
  ?procs:int list ->
  ?rounds:int ->
  ?algos:Lock.algo list ->
  unit ->
  fig7_series list

val fig7c :
  ?sizes:int list ->
  ?iters:int ->
  ?algos:Lock.algo list ->
  unit ->
  fig7_series list

val fig7d :
  ?sizes:int list ->
  ?rounds:int ->
  ?algos:Lock.algo list ->
  unit ->
  fig7_series list

(** RETRY — optimistic vs pessimistic destruction storms. *)
val retries : unit -> Destruction.result * Destruction.result

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
val ablation_spin_then_block : unit -> (Lock.algo * Lock_stress.result) list

(** ABL9 — the queue-lock family (spin, ticket, Anderson, CLH, MCS-CAS,
    spin-then-block) on the modern machine: latency and space
    (Section 5.2's trade-off discussion). *)

type abl9_row = {
  algo9 : Lock.algo;
  unc_us : float;
  contended12_us : float;
  space : int;
}

val ablation_lock_family : unit -> abl9_row list

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

val fault_matrix : unit -> fault_row list

(** OBS — the contention profile ({!Obs}) of a dosed fault storm: which
    lock class, on which cluster (station), burned the waiting cycles. *)

type obs_result = { obs_rows : Obs.row list; obs_storm : Fault_storm.result }

val obs_profile : unit -> obs_result

(** Two sweeps of the extension experiments ({!Spec}) that the host-cost
    benchmark also reads: the algorithms NUMA-LOCKS and ABORT-STORM race
    (flat H2-MCS plus the NUMA composites), and the offered loads (requests
    per virtual ms) SLO sweeps. *)
val numa_algos : Lock.algo list
val slo_rates : float list
