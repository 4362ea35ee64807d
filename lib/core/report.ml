(* Text reports for the reproduction harness: one printer per experiment,
   each stating what the paper reports next to what we measured so the
   output reads as an EXPERIMENTS.md draft. *)

open Locks
open Workloads

let hr ppf = Format.fprintf ppf "%s@." (String.make 78 '-')

let section ppf title paper_claim =
  hr ppf;
  Format.fprintf ppf "%s@." title;
  Format.fprintf ppf "paper: %s@." paper_claim;
  hr ppf

let fig4 ppf rows =
  section ppf "FIG4 - instruction counts per uncontended lock/unlock pair"
    "MCS 2/2/3/5, H1 2/1/3/5, H2 2/0/3/4, Spin 2/0/1/3 (Atomic/Mem/Reg/Br)";
  Format.fprintf ppf "%-8s %7s %5s %5s %5s   %-6s %9s@." "algo" "Atomic"
    "Mem" "Reg" "Br" "match" "pred(us)";
  List.iter
    (fun (r : Experiments.fig4_row) ->
      let c = r.ours in
      Format.fprintf ppf "%-8s %7d %5d %5d %5d   %-6b %9.2f@."
        (Instr_model.algo_name r.algo)
        c.Instr_model.atomic c.Instr_model.mem c.Instr_model.reg
        c.Instr_model.br (r.ours = r.paper) r.predicted_us)
    rows

let uncontended ppf results =
  section ppf "UNC - uncontended lock/unlock latency (Section 4.1.1)"
    "MCS 5.40us -> H2-MCS 3.69us (32% better); spin 3.65us";
  Format.fprintf ppf "%-10s %12s %12s@." "algo" "measured(us)" "model(us)";
  List.iter
    (fun (r : Uncontended.result) ->
      Format.fprintf ppf "%-10s %12.2f %12s@."
        (Lock.algo_name r.Uncontended.algo)
        r.Uncontended.pair_us
        (match r.Uncontended.predicted_us with
        | Some v -> Printf.sprintf "%.2f" v
        | None -> "-"))
    results

let fig5 ppf ~name ~hold_us series =
  section ppf
    (Printf.sprintf "%s - lock response time under contention (hold %.0fus)"
       name hold_us)
    "MCS/H1 scale best; H2 adds a constant repair cost (visible at hold 0); \
     spin(35us) degrades; spin(2ms) competitive in mean but starves";
  Format.fprintf ppf "%-12s" "p";
  (match series with
  | { Experiments.points; _ } :: _ ->
    List.iter (fun (p, _) -> Format.fprintf ppf "%9d" p) points
  | [] -> ());
  Format.fprintf ppf "@.";
  List.iter
    (fun { Experiments.algo; points } ->
      Format.fprintf ppf "%-12s" (Lock.algo_name algo);
      List.iter
        (fun (_, (r : Lock_stress.result)) ->
          Format.fprintf ppf "%9.1f" r.Lock_stress.summary.Measure.mean_us)
        points;
      Format.fprintf ppf "@.")
    series

let starvation ppf (s : Measure.summary) =
  section ppf "STARVATION - spin(2ms), p=16, hold 25us (Section 4.1.2)"
    "over 13% of acquisitions took more than 2ms";
  Format.fprintf ppf
    "measured: %.1f%% of %d acquisitions over 2ms (p99 = %.0fus, max = %.0fus)@."
    (100.0 *. s.Measure.frac_above_2ms)
    s.Measure.n s.Measure.p99_us s.Measure.max_us

let fig7 ppf ~name ~xlabel ~claim series =
  section ppf name claim;
  Format.fprintf ppf "%-12s" xlabel;
  (match series with
  | { Experiments.series = pts; _ } :: _ ->
    List.iter (fun p -> Format.fprintf ppf "%9d" p.Experiments.x) pts
  | [] -> ());
  Format.fprintf ppf "@.";
  List.iter
    (fun { Experiments.lock_algo; series = pts } ->
      Format.fprintf ppf "%-12s" (Lock.algo_name lock_algo);
      List.iter (fun p -> Format.fprintf ppf "%9.1f" p.Experiments.mean_us) pts;
      Format.fprintf ppf "@.")
    series

let constants ppf (c : Calibration.result) =
  section ppf "CONST - absolute cost anchors"
    "soft fault ~160us of which ~40us locking; null RPC ~27us; \
     lookup+replicate ~88us";
  Format.fprintf ppf "soft page fault     : %7.1f us@."
    c.Calibration.soft_fault_us;
  Format.fprintf ppf "  lock overhead     : %7.1f us@."
    c.Calibration.lock_overhead_us;
  Format.fprintf ppf "null RPC            : %7.1f us@." c.Calibration.null_rpc_us;
  Format.fprintf ppf "lookup + replicate  : %7.1f us (extra over a local fault)@."
    c.Calibration.replicate_extra_us

let retries ppf ((opt : Destruction.result), (pes : Destruction.result)) =
  section ppf "RETRY - program destruction, optimistic vs pessimistic (2.3/2.5)"
    "retries are common for destruction regardless of strategy; the \
     optimistic protocol avoids re-establishing state in the common case";
  let line (r : Destruction.result) =
    Format.fprintf ppf
      "%-12s destroys=%4d retries=%4d revalidations=%4d lost=%3d mean=%8.1fus total=%9.0fus@."
      (Hkernel.Procs.strategy_name r.Destruction.strategy)
      r.Destruction.destroys r.Destruction.retries r.Destruction.revalidations
      r.Destruction.lost_races r.Destruction.destroy_summary.Measure.mean_us
      r.Destruction.total_us
  in
  line opt;
  line pes

let ablation_granularity ppf results =
  section ppf "ABL1 - hybrid vs coarse vs fine locking of the hash table"
    "hybrid matches fine-grained concurrency for independent requests at a \
     fraction of the lock words; coarse serialises";
  Format.fprintf ppf "%-8s %10s %10s %10s %12s@." "mode" "mean(us)" "p99(us)"
    "atomics" "lock words";
  List.iter
    (fun (r : Hash_stress.result) ->
      Format.fprintf ppf "%-8s %10.1f %10.1f %10d %12d@."
        (Hkernel.Khash.granularity_name r.Hash_stress.granularity)
        r.Hash_stress.summary.Measure.mean_us
        r.Hash_stress.summary.Measure.p99_us r.Hash_stress.atomics
        r.Hash_stress.lock_words)
    results

let ablation_combining ppf
    ((comb : Replication_storm.result), (direct : Replication_storm.result)) =
  section ppf "ABL2 - combining tree for descriptor replication (Section 2.2)"
    "the combining tree bounds demand on the master to one request per \
     cluster under bursty simultaneous misses";
  let line (r : Replication_storm.result) =
    Format.fprintf ppf
      "%-14s mean=%8.1fus p99=%8.1fus master-rpcs/storm=%5.1f replications/storm=%5.1f@."
      r.Replication_storm.summary.Measure.label
      r.Replication_storm.summary.Measure.mean_us
      r.Replication_storm.summary.Measure.p99_us
      r.Replication_storm.master_rpcs_per_storm
      r.Replication_storm.replications_per_storm
  in
  line comb;
  line direct

let ablation_cas ppf rows =
  section ppf "ABL3 - compare&swap release (Section 5.2)"
    "with CAS the contended differential of the fetch&store repair shrinks";
  Format.fprintf ppf "%-14s %-12s %14s %16s@." "machine" "algo"
    "uncontended(us)" "contended p16(us)";
  List.iter
    (fun (r : Experiments.abl3_row) ->
      Format.fprintf ppf "%-14s %-12s %14.2f %16.1f@." r.Experiments.machine
        (Lock.algo_name r.Experiments.algo)
        r.Experiments.uncontended_us r.Experiments.contended_p16_us)
    rows

let trylock ppf (r : Trylock_starvation.result) =
  section ppf "TRY - TryLock under a saturated distributed lock (Section 3.2)"
    "retry-based TryLock starves (the lock is never observed free); the \
     soft-mask + deferred-work scheme completes every request";
  Format.fprintf ppf
    "trylock-v2: %d/%d attempts succeeded (%.1f%%)@."
    r.Trylock_starvation.try_successes r.Trylock_starvation.try_attempts
    (100.0 *. r.Trylock_starvation.try_success_rate);
  Format.fprintf ppf
    "deferred-work: %d/%d completed; latency %a@."
    r.Trylock_starvation.deferred_completed r.Trylock_starvation.deferred_posted
    Measure.pp r.Trylock_starvation.deferred_latency

let ablation_clh ppf rows =
  section ppf "ABL4 - CLH vs MCS queue locks across machines (Section 5.2)"
    "CLH spins on the predecessor's node: fine with coherent caches, remote \
     traffic on HECTOR — why Hurricane picked MCS";
  Format.fprintf ppf "%-12s %-8s %14s@." "machine" "algo" "contended(us)";
  List.iter
    (fun (r : Experiments.abl4_row) ->
      Format.fprintf ppf "%-12s %-8s %14.1f@." r.Experiments.machine4
        (Lock.algo_name r.Experiments.algo4)
        r.Experiments.contended_us)
    rows

let ablation_cached_locks ppf rows =
  section ppf "ABL5 - uncontended lock cost with cache-based primitives"
    "on the coherent machine, lock pairs run in the cache: tens of lock \
     operations per miss (Section 5.3)";
  Format.fprintf ppf "%-12s %-12s %10s %12s@." "machine" "algo" "pair(us)"
    "pair(cycles)";
  List.iter
    (fun (r : Experiments.abl5_row) ->
      Format.fprintf ppf "%-12s %-12s %10.3f %12.0f@." r.Experiments.machine5
        (Lock.algo_name r.Experiments.algo5)
        r.Experiments.pair_us r.Experiments.pair_cycles)
    rows

let ablation_spin_then_block ppf rows =
  section ppf "ABL6 - spin-then-block under long holds (Section 5.3)"
    "with long critical sections, blocked waiters generate no traffic; the \
     hand-off premium is small";
  List.iter
    (fun ((algo : Lock.algo), (r : Lock_stress.result)) ->
      Format.fprintf ppf "%-14s %a@."
        (Lock.algo_name algo)
        Measure.pp r.Lock_stress.summary)
    rows

let ablation_lockfree ppf rows =
  section ppf "ABL7 - lock-free single-word updates (Section 5.3)"
    "a CAS retry loop beats lock/update/unlock for leaf data on the CAS \
     machine, with exact results";
  Format.fprintf ppf "%-22s %10s %10s %8s %10s@." "mode" "per-op(us)"
    "atomics" "exact" "cas-fail";
  List.iter
    (fun (r : Counter_stress.result) ->
      Format.fprintf ppf "%-22s %10.2f %10d %8b %10d@."
        (Counter_stress.mode_name r.Counter_stress.mode)
        r.Counter_stress.per_op_us r.Counter_stress.atomics
        (r.Counter_stress.final_value = r.Counter_stress.expected_value)
        r.Counter_stress.cas_failures)
    rows

let ablation_layout ppf
    ((combined : Messaging_mix.result), (separate : Messaging_mix.result)) =
  section ppf "ABL8 - combined vs separate family tree (Section 2.5)"
    "tree links inside the process descriptors make destruction and message \
     passing contend on the same reserve bits; a separate tree removes the \
     interference";
  let line (r : Messaging_mix.result) =
    Format.fprintf ppf
      "%-14s sends=%4d send-retries=%4d destroys=%3d destroy-retries=%4d \
       send-mean=%7.1fus destroy-mean=%8.1fus@."
      (Hkernel.Procs.layout_name r.Messaging_mix.layout)
      r.Messaging_mix.sends r.Messaging_mix.send_retries
      r.Messaging_mix.destroys r.Messaging_mix.destroy_retries
      r.Messaging_mix.send_summary.Measure.mean_us
      r.Messaging_mix.destroy_summary.Measure.mean_us
  in
  line combined;
  line separate

let ablation_lock_family ppf rows =
  section ppf "ABL9 - the lock family on the modern machine (Section 5.2)"
    "spin: cheapest, unfair; ticket: fair, 2 words, one hot word; Anderson: \
     fair, P words/lock; CLH/MCS: fair, per-processor nodes; \
     spin-then-block: fair, no waiting traffic";
  Format.fprintf ppf "%-14s %14s %16s %14s@." "algo" "uncontended(us)"
    "contended p12(us)" "words/lock(P=16)";
  List.iter
    (fun (r : Experiments.abl9_row) ->
      Format.fprintf ppf "%-14s %14.3f %16.1f %14d@."
        (Lock.algo_name r.Experiments.algo9)
        r.Experiments.unc_us r.Experiments.contended12_us r.Experiments.space)
    rows

let classes ppf (r : Four_classes.result) =
  section ppf "CLASSES - the four access-behaviour classes at once (Section 1)"
    "clustering isolates the independent classes; replication absorbs read \
     sharing; only write sharing pays cross-cluster costs";
  let line (s : Measure.summary) = Format.fprintf ppf "  %a@." Measure.pp s in
  line r.Four_classes.non_concurrent;
  line r.Four_classes.independent;
  line r.Four_classes.read_shared;
  line r.Four_classes.write_shared;
  Format.fprintf ppf
    "  cross-cluster: %d replications, %d invalidations, %d retries@."
    r.Four_classes.replications r.Four_classes.invalidations
    r.Four_classes.retries

let cow ppf ((opt : Cow_storm.result), (pes : Cow_storm.result)) =
  section ppf "COW - simultaneous copy-on-write faults (Sections 2.3/2.5)"
    "retries are required independent of the strategy; the pessimistic one \
     additionally finds the shared page gone and must handle it";
  let line (r : Cow_storm.result) =
    Format.fprintf ppf
      "%-12s broke=%4d found-gone=%3d retries=%4d mean=%8.1fus p99=%8.1fus@."
      (Hkernel.Procs.strategy_name r.Cow_storm.strategy)
      r.Cow_storm.broke r.Cow_storm.found_gone r.Cow_storm.retries
      r.Cow_storm.summary.Measure.mean_us r.Cow_storm.summary.Measure.p99_us
  in
  line opt;
  line pes

let fault_matrix ppf rows =
  section ppf "FAULTS - injected holder stalls vs recovery mechanisms"
    "a stalled holder freezes everything behind an unbounded spin or retry; \
     timeouts re-search around it and a bounded RPC budget degrades to \
     pessimistic fallbacks instead of looping";
  Format.fprintf ppf "%-14s %10s %6s %9s %11s %11s %6s %6s %6s %7s %7s@."
    "mechanism" "stall/us" "doses" "ops" "retained" "recov(us)" "ltmo"
    "rtmo" "gaveup" "defer" "p99(us)";
  List.iter
    (fun (r : Experiments.fault_row) ->
      Format.fprintf ppf
        "%-14s %10.0f %6d %9d %10.0f%% %11.1f %6d %6d %6d %7d %7.1f@."
        (Fault_storm.mechanism_name r.fmech)
        r.stall_every_us r.stalls r.fault_ops
        (100.0 *. r.retained)
        r.recovery_mean_us r.fault_lock_timeouts r.fault_reserve_timeouts
        r.fault_gave_ups r.fault_deferred r.recovery_p99_us)
    rows

let fs ppf rows =
  section ppf "FS - the file server, same techniques (Section 5.1)"
    "per-cluster block caches + combining fetches give the file system the \
     same concurrency; read-ahead turns sequential misses into hits";
  Format.fprintf ppf "%-16s %10s %10s %10s %12s@." "workload" "mean(us)"
    "p99(us)" "hit rate" "fetch RPCs";
  List.iter
    (fun (r : File_read.result) ->
      Format.fprintf ppf "%-16s %10.1f %10.1f %9.0f%% %12d@."
        r.File_read.summary.Measure.label r.File_read.summary.Measure.mean_us
        r.File_read.summary.Measure.p99_us
        (100.0 *. r.File_read.hit_rate)
        r.File_read.fetch_rpcs)
    rows

let verify ppf rows =
  section ppf "VERIFY - lockdep checker vs planted violations"
    "each probe plants one class of locking error; the checker must catch \
     every one (the watchdog probes by aborting an otherwise-endless run) \
     and stay silent on the clean storm";
  Format.fprintf ppf "%-16s %-18s %6s %6s %8s %6s@." "probe" "expected"
    "total" "hits" "aborted" "ok";
  List.iter
    (fun (r : Verify_probes.result) ->
      Format.fprintf ppf "%-16s %-18s %6d %6d %8s %6s@."
        (Verify_probes.probe_name r.probe)
        (Verify_probes.expected_name r) r.violations r.hits
        (if r.aborted then "yes" else "no")
        (if r.ok then "ok" else "FAIL"))
    rows;
  List.iter
    (fun (r : Verify_probes.result) ->
      if r.first <> "" then
        Format.fprintf ppf "  %-16s %s@."
          (Verify_probes.probe_name r.probe) r.first)
    rows

let numa_locks ppf rows =
  section ppf "NUMA-LOCKS - cross-cluster contention (cohort/HMCS/CNA vs MCS)"
    "16 processors hammer one lock, partitioned into clusters; NUMA-aware \
     locks hand off within a cluster when they can, so the fraction of \
     hand-offs crossing a cluster boundary - and with it the data's \
     migration traffic - drops against flat MCS";
  Format.fprintf ppf "%-15s %8s %9s %10s %9s %9s %9s %8s %10s@." "lock"
    "clusters" "hold(us)" "mean(us)" "p99(us)" "local" "remote" "rem%"
    "maxw(us)";
  List.iter
    (fun (algo, (c : Numa_stress.config), (r : Numa_stress.result)) ->
      Format.fprintf ppf "%-15s %8d %9.0f %10.2f %9.1f %9d %9d %7.1f%% %10.1f@."
        (Lock.algo_name algo) c.n_clusters c.hold_us r.summary.Measure.mean_us
        r.summary.Measure.p99_us r.local_handoffs r.remote_handoffs
        (100.0 *. Numa_stress.remote_frac r)
        r.max_wait_us)
    rows

let hash_scaling ppf rows =
  section ppf "HASH-SCALING - sharded table + seqlock optimistic reads"
    "the hybrid table's single coarse lock is the ceiling within a \
     cluster; splitting the bins over per-shard locks homed on distinct \
     PMMs restores scaling, and a per-shard sequence word lets read-only \
     lookups skip the lock entirely (a pair of loads instead of an \
     acquire/release round-trip)";
  Format.fprintf ppf "%-8s %6s %4s %5s %5s %10s %9s %10s %9s %6s %5s@."
    "mode" "shards" "opt" "p" "read" "read(us)" "p99(us)" "upd(us)"
    "thr/ms" "hits" "fb";
  List.iter
    (fun ((c : Hash_scaling.config), (r : Hash_scaling.result)) ->
      Format.fprintf ppf
        "%-8s %6d %4s %5d %4.0f%% %10.2f %9.1f %10.2f %9.1f %6d %5d@."
        (Hkernel.Khash.granularity_name r.granularity)
        r.shards
        (if r.optimistic then "yes" else "no")
        c.p
        (100.0 *. c.read_ratio)
        r.read_summary.Measure.mean_us r.read_summary.Measure.p99_us
        r.update_summary.Measure.mean_us r.throughput_ops_ms
        r.optimistic_hits r.optimistic_fallbacks)
    rows

let abort_storm ppf rows =
  section ppf "ABORT-STORM - timed abandonment under a stalled holder"
    "one processor takes the lock and goes dark for ~10x any waiter's \
     deadline; every other processor attempts through the timed face. \
     Each expired waiter must return within a bounded multiple of its \
     deadline (the ratio column) instead of riding out the stall, remote \
     aborts show waiters expiring at every level of the NUMA composite, \
     and the lock must recover promptly - abandoned queue nodes repaired \
     at the next hand-offs - once the holder releases";
  Format.fprintf ppf "%-15s %8s %6s %7s %6s %9s %9s %6s %9s %7s %7s %5s@."
    "lock" "attempts" "acq" "aborts" "stall" "over(us)" "maxov(us)" "ratio"
    "rec(us)" "rem-ab" "repair" "free";
  List.iter
    (fun (r : Abort_storm.result) ->
      Format.fprintf ppf
        "%-15s %8d %6d %7d %6d %9.2f %9.1f %6.2f %9.1f %7d %7d %5s@."
        (Lock.algo_name r.algo)
        r.attempts r.acquisitions r.aborts r.stalls
        r.overshoot.Measure.mean_us r.max_overshoot_us r.bound_ratio
        r.recovery.Measure.mean_us r.remote_aborts r.obs_repairs
        (if r.final_free then "yes" else "NO"))
    rows

let crash_storm ppf rows =
  section ppf "CRASH-STORM - fail-stop kills mid-critical-section"
    "victim processors fail-stop while holding the lock (the fiber parks, \
     releasing nothing); every survivor acquires through the recoverable \
     face, whose dead-holder detector force-releases each orphaned hold. \
     Conservation demands a recovery per kill, an installed lockdep \
     checker must see every forced release as a legal transfer (zero \
     violations), and the storm must end with the lock free";
  Format.fprintf ppf "%-15s %6s %6s %7s %6s %6s %5s %9s %9s %9s %5s %10s %5s@."
    "lock" "kills" "acq" "crashes" "recov" "lkdep" "viol" "rec(us)" "p99(us)"
    "max(us)" "clus" "worstp99" "free";
  List.iter
    (fun (r : Crash_storm.result) ->
      Format.fprintf ppf
        "%-15s %6d %6d %7d %6d %6d %5d %9.1f %9.1f %9.1f %5d %10.1f %5s@."
        (Lock.algo_name r.algo)
        r.kills r.acquisitions r.obs_crashes r.obs_recoveries
        r.lockdep_recoveries r.lockdep_violations r.recovery.Measure.mean_us
        r.recovery.Measure.p99_us r.recovery.Measure.max_us
        (Crash_storm.clusters_hit r) (Crash_storm.worst_cluster_p99_us r)
        (if r.final_free then "yes" else "NO"))
    rows

let rw_scaling ppf rows =
  section ppf "RW-SCALING - read-mostly lookups: RW lock vs seqlock vs replication"
    "every writer-serialising lock queues readers like writers (peak \
     concurrent readers 1 by construction); per-cluster reader indicators \
     let readers CAS their own cluster's word and run in parallel, the \
     seqlock serves reads for a pair of loads, and replication reads a \
     local copy but pays an update broadcast per write. rd-rem counts \
     read-path indicator ops that crossed a cluster boundary - zero for \
     the distributed layout, the centralised baseline's defining cost";
  Format.fprintf ppf
    "%-22s %5s %4s %3s %9s %8s %9s %9s %7s %5s %7s %6s@." "style" "read"
    "clus" "p" "read(us)" "p99.9" "write(us)" "rdthr/ms" "peak-rd" "rd-rem"
    "sq-ab" "viol";
  List.iter
    (fun (r : Rw_scaling.result) ->
      Format.fprintf ppf
        "%-22s %4.1f%% %4d %3d %9.2f %8.1f %9.2f %9.1f %7d %5d %7d %6d@."
        r.style_name
        (100.0 *. r.read_ratio)
        r.n_clusters r.p r.read_summary.Measure.mean_us
        r.read_summary.Measure.p999_us r.write_summary.Measure.mean_us
        r.read_throughput_ops_ms r.peak_readers r.read_remote r.seq_aborts
        r.lockdep_violations)
    rows

let obs ?(cfg = Hector.Config.hector) ppf (r : Experiments.obs_result) =
  section ppf "OBS - where did the cycles go (dosed fault storm)"
    "the argument of Figures 5/7 is made by attributing waiting time to \
     specific locks; here every wait/hold cycle is charged to its lock \
     class and the waiting processor's cluster";
  let us c = Hector.Config.us_of_cycles cfg c in
  Format.fprintf ppf "%-16s %-8s %9s %9s %12s %10s %10s %12s %9s %11s@."
    "class" "cluster" "acqs" "cont" "wait(us)" "avg(us)" "maxw(us)" "hold(us)"
    "handoff" "local/rem";
  let line name cluster (c : Obs.cells) =
    Format.fprintf ppf
      "%-16s %-8s %9d %9d %12.1f %10.2f %10.1f %12.1f %9d %5d/%-5d@." name
      cluster c.Obs.acqs c.Obs.contended
      (us c.Obs.wait_cycles)
      (if c.Obs.acqs + c.Obs.contended = 0 then 0.0
       else us c.Obs.wait_cycles /. float_of_int (max c.Obs.acqs c.Obs.contended))
      (us c.Obs.max_wait_cycles)
      (us c.Obs.hold_cycles) c.Obs.handoffs c.Obs.handoffs_local
      c.Obs.handoffs_remote
  in
  List.iter
    (fun (row : Obs.row) ->
      line row.Obs.row_class "total" row.Obs.total;
      List.iter
        (fun (cl, cells) -> line "" (Printf.sprintf "  c%d" cl) cells)
        row.Obs.by_cluster)
    r.Experiments.obs_rows;
  let s = r.Experiments.obs_storm in
  Format.fprintf ppf
    "storm: ops=%d deferred=%d rpc=%d/%d stalls=%d (mechanism %s)@."
    s.Fault_storm.ops s.Fault_storm.deferred s.Fault_storm.rpc_ok
    s.Fault_storm.rpc_calls s.Fault_storm.stalls_injected
    (Fault_storm.mechanism_name s.Fault_storm.mechanism)

let slo ppf rows =
  section ppf "SLO - open-loop request stream over the million-element table"
    "requests arrive on their own clock and queue behind a random server, \
     so latency includes queueing delay: as the offered rate approaches \
     the table's capacity the p99/p99.9 tails leave the service time long \
     before the mean moves - the closed-loop workloads cannot show this. \
     every point runs under the lockdep checker (viol must be 0)";
  Format.fprintf ppf
    "%-9s %3s %9s %7s %9s %8s %8s %9s %9s %8s %6s %5s@." "rate/ms" "p"
    "elements" "done" "ach/ms" "rd-p50" "rd-p99" "rd-p99.9" "up-p99" "backlog"
    "opt-h" "viol";
  List.iter
    (fun ((c : Slo_stream.config), (r : Slo_stream.result)) ->
      Format.fprintf ppf
        "%9.1f %3d %9d %7d %9.1f %8.2f %8.2f %9.2f %9.2f %8d %6d %5d@."
        c.rate_per_ms c.p c.elements r.completed r.achieved_per_ms
        r.read_summary.Measure.p50_us r.read_summary.Measure.p99_us
        r.read_summary.Measure.p999_us r.update_summary.Measure.p99_us
        r.peak_backlog r.optimistic_hits r.lockdep_violations)
    rows

let diurnal ppf rows =
  section ppf "DIURNAL - static lock shapes raced over the diurnal load cycle"
    "load ramps cold -> hot -> cold in three equal plateaus: a same-cluster \
     trickle where a test&set lock is unbeatable, then every processor \
     across every cluster where hand-offs go mostly remote and a NUMA \
     composite wins, then the trickle again. No shape tops both phase \
     columns. Every row runs under the lockdep checker (viol must be 0)";
  Format.fprintf ppf "%-16s %9s %9s %9s %9s %9s %5s %5s@." "lock" "cold1-ops"
    "hot-ops" "cold2-ops" "cold/ms" "hot/ms" "free" "viol";
  List.iter
    (fun (r : Diurnal.result) ->
      Format.fprintf ppf "%-16s %9d %9d %9d %9.1f %9.1f %5s %5d@." r.algo_name
        r.cold1_ops r.hot_ops r.cold2_ops r.cold_throughput_ops_ms
        r.hot_throughput_ops_ms
        (if r.final_free then "yes" else "NO")
        r.lockdep_violations)
    rows
