(* Text reports for the reproduction harness: one printer per experiment,
   each stating what the paper reports next to what we measured so the
   output reads as an EXPERIMENTS.md draft. The extension experiments print
   through [table], from their specs' columns. *)

open Locks
open Workloads

let hr ppf = Format.fprintf ppf "%s@." (String.make 78 '-')

let section ppf title paper_claim =
  hr ppf;
  Format.fprintf ppf "%s@." title;
  Format.fprintf ppf "paper: %s@." paper_claim;
  hr ppf

(* A section with one table: the first head is left-aligned, the rest
   right-aligned at their widths; each row's cells come padded. *)
let table ppf ~title ~claim heads rows =
  section ppf title claim;
  let line cells = Format.fprintf ppf "%s@." (String.concat " " cells) in
  let head i (h, w) = Printf.sprintf (if i = 0 then "%-*s" else "%*s") w h in
  line (List.mapi head heads);
  List.iter line rows

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

let obs ppf (r : Experiments.obs_result) =
  section ppf "OBS - where did the cycles go (dosed fault storm)"
    "the argument of Figures 5/7 is made by attributing waiting time to \
     specific locks; here every wait/hold cycle is charged to its lock \
     class and the waiting processor's cluster";
  let us c = Hector.Config.us_of_cycles Hector.Config.hector c in
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
