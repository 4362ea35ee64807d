(* hurricane_sim — command-line driver for the HURRICANE locking simulator.

   Subcommands expose the building blocks individually (lock stress, fault
   tests, destruction storms, the extension workloads) with tunable
   parameters, so a user can explore configurations beyond the paper's
   figures. The `figure` subcommand looks its name up in [Registry] and
   regenerates that table/figure exactly as the benchmark harness does
   (`figure constants` gives the absolute cost anchors). *)

open Cmdliner
open Hurricane
open Workloads

let ppf = Format.std_formatter

(* Every subcommand is built here. Its run is a thunk, and a configuration
   the workload's validator refuses (an [Invalid_argument]) or a file the
   system refuses (a [Sys_error]) is a usage error: the message, exit
   124. *)
let cmd name ~doc term =
  let checked run =
    match run () with
    | () -> Ok ()
    | exception (Invalid_argument msg | Sys_error msg) -> Error (`Msg msg)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(term_result ~usage:true (const checked $ term))

(* -- shared arguments ------------------------------------------------------ *)

let algo_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Locks.Lock.of_string s) in
  let print ppf a = Format.pp_print_string ppf (Locks.Lock.algo_name a) in
  Arg.conv (parse, print)

let algo_arg =
  Arg.(
    value
    & opt algo_conv Locks.Lock.Mcs_h2
    & info [ "l"; "lock" ] ~docv:"ALGO"
        ~doc:
          ("Lock algorithm: "
          ^ String.concat ", " (List.map fst Locks.Lock.spellings)
          ^ " or spin:<max-backoff-us> (at least 1)."))

let procs_arg =
  Arg.(
    value & opt int 16
    & info [ "p"; "procs" ] ~docv:"P" ~doc:"Number of contending processors.")

let cluster_arg =
  Arg.(
    value & opt int 16
    & info [ "c"; "cluster-size" ] ~docv:"N" ~doc:"Processors per cluster.")

let seed_arg =
  Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let window_arg =
  Arg.(
    value & opt float 20000.0
    & info [ "window" ] ~docv:"US" ~doc:"Measurement window in us.")

let hold_arg default =
  Arg.(
    value & opt float default
    & info [ "hold" ] ~docv:"US" ~doc:"Critical-section length in us.")

let clusters_arg =
  Arg.(
    value & opt int 4
    & info [ "clusters" ] ~docv:"C" ~doc:"Number of clusters (p=16 split).")

(* -- locks subcommand ------------------------------------------------------- *)

let locks_cmd =
  let run algo p hold_us window_us () =
    let r =
      Lock_stress.run
        ~config:{ Lock_stress.default_config with p; hold_us; window_us }
        algo
    in
    Format.fprintf ppf "%a@." Measure.pp r.Lock_stress.summary;
    Format.fprintf ppf
      "acquisitions=%d lock-module-utilization=%.2f atomics=%d@."
      r.Lock_stress.acquisitions r.Lock_stress.lock_mem_utilization
      r.Lock_stress.atomics
  in
  cmd "locks" ~doc:"Stress one lock with P processors (Figure 5)."
    Term.(const run $ algo_arg $ procs_arg $ hold_arg 0.0 $ window_arg)

(* -- faults subcommand ------------------------------------------------------ *)

let faults_cmd =
  let run algo p cluster_size shared seed () =
    if shared then begin
      let r =
        Shared_faults.run
          ~config:
            {
              Shared_faults.default_config with
              p;
              cluster_size;
              lock_algo = algo;
              seed;
            }
          ()
      in
      Format.fprintf ppf "%a@." Measure.pp r.Shared_faults.summary;
      Format.fprintf ppf "retries=%d rpcs=%d replications=%d invalidations=%d@."
        r.Shared_faults.retries r.Shared_faults.rpcs
        r.Shared_faults.replications r.Shared_faults.invalidations
    end
    else begin
      let r =
        Independent_faults.run
          ~config:
            {
              Independent_faults.default_config with
              p;
              cluster_size;
              lock_algo = algo;
              seed;
            }
          ()
      in
      Format.fprintf ppf "%a@." Measure.pp r.Independent_faults.summary;
      Format.fprintf ppf "retries=%d rpcs=%d reserve-conflicts=%d@."
        r.Independent_faults.retries r.Independent_faults.rpcs
        r.Independent_faults.reserve_conflicts
    end
  in
  let shared =
    Arg.(
      value & flag
      & info [ "shared" ]
          ~doc:"Run the shared-fault test instead of the independent one.")
  in
  cmd "faults"
    ~doc:"Run a page-fault stress test on the simulated kernel (Figure 7)."
    Term.(const run $ algo_arg $ procs_arg $ cluster_arg $ shared $ seed_arg)

(* -- destroy subcommand ------------------------------------------------------ *)

let destroy_cmd =
  let run cluster_size pessimistic children () =
    let strategy =
      if pessimistic then Hkernel.Procs.Pessimistic else Hkernel.Procs.Optimistic
    in
    let r =
      Destruction.run
        ~config:{ Destruction.default_config with cluster_size; strategy; children }
        ()
    in
    Format.fprintf ppf "%a@." Measure.pp r.Destruction.destroy_summary;
    Format.fprintf ppf "destroys=%d retries=%d revalidations=%d lost-races=%d@."
      r.Destruction.destroys r.Destruction.retries r.Destruction.revalidations
      r.Destruction.lost_races
  in
  let pessimistic =
    Arg.(
      value & flag
      & info [ "pessimistic" ]
          ~doc:"Use the pessimistic deadlock-management strategy.")
  in
  let children =
    Arg.(
      value & opt int 8
      & info [ "children" ] ~docv:"N" ~doc:"Processes per program.")
  in
  cmd "destroy"
    ~doc:"Program-destruction storm across clusters (Section 2.5)."
    Term.(const run $ cluster_arg $ pessimistic $ children)

(* -- sweep subcommand --------------------------------------------------------- *)

let sweep_cmd =
  let run algo shared sizes () =
    Format.fprintf ppf "%-14s" "cluster";
    List.iter (fun c -> Format.fprintf ppf "%9d" c) sizes;
    Format.fprintf ppf "@.%-14s" (Locks.Lock.algo_name algo);
    List.iter
      (fun cluster_size ->
        let mean =
          if shared then
            (Shared_faults.run
               ~config:
                 {
                   Shared_faults.default_config with
                   p = 16;
                   cluster_size;
                   lock_algo = algo;
                 }
               ())
              .Shared_faults.summary
              .Measure.mean_us
          else
            (Independent_faults.run
               ~config:
                 {
                   Independent_faults.default_config with
                   p = 16;
                   cluster_size;
                   lock_algo = algo;
                 }
               ())
              .Independent_faults.summary
              .Measure.mean_us
        in
        Format.fprintf ppf "%9.1f" mean)
      sizes;
    Format.fprintf ppf "@."
  in
  let shared =
    Arg.(
      value & flag
      & info [ "shared" ] ~doc:"Sweep the shared-fault test instead.")
  in
  let sizes =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8; 16 ]
      & info [ "sizes" ] ~docv:"N,N,..." ~doc:"Cluster sizes to sweep.")
  in
  cmd "sweep"
    ~doc:"Sweep the cluster size at p=16 (Figures 7c/7d)."
    Term.(const run $ algo_arg $ shared $ sizes)

(* -- storm subcommand --------------------------------------------------------- *)

let storm_cmd =
  let run mech p stall_every_us stall_us drop_rate delay_rate use_verify seed
      () =
    let cfg = Hector.Config.hector in
    let fault =
      if stall_every_us <= 0.0 && drop_rate <= 0.0 && delay_rate <= 0.0 then
        None
      else
        Some
          {
            Eventsim.Fault.disabled with
            seed;
            stall_every =
              (if stall_every_us > 0.0 then
                 Hector.Config.cycles_of_us cfg stall_every_us
               else 0);
            stall_cycles = Hector.Config.cycles_of_us cfg stall_us;
            rpc_delay_rate = delay_rate;
            rpc_delay_cycles = Hector.Config.cycles_of_us cfg 25.0;
            rpc_drop_rate = drop_rate;
            reply_timeout =
              (if drop_rate > 0.0 then Hector.Config.cycles_of_us cfg 250.0
               else 0);
          }
    in
    let verify =
      if not use_verify then None
      else begin
        if drop_rate > 0.0 then
          Format.eprintf
            "storm: note: reply-drop recovery re-executes services \
             (at-least-once), which the checker reports as double clears — \
             prefer --verify with --drop-rate 0@.";
        Some (Verify.create ~n_procs:(Hector.Config.n_procs cfg) ())
      end
    in
    let r =
      Fault_storm.run ~cfg
        ~config:{ Fault_storm.default_config with p; seed; fault }
        ?verify mech
    in
    Format.fprintf ppf
      "%s: ops=%d deferred=%d rpc-ok=%d/%d resends=%d gave-ups=%d@."
      (Fault_storm.mechanism_name mech)
      r.Fault_storm.ops r.Fault_storm.deferred r.Fault_storm.rpc_ok
      r.Fault_storm.rpc_calls r.Fault_storm.rpc_resends
      r.Fault_storm.rpc_gave_ups;
    Format.fprintf ppf
      "lock-timeouts=%d gcs=%d reserve-timeouts=%d injected: stalls=%d \
       delays=%d drops=%d hotspots=%d@."
      r.Fault_storm.lock_timeouts r.Fault_storm.lock_gcs
      r.Fault_storm.reserve_timeouts r.Fault_storm.stalls_injected
      r.Fault_storm.delays_injected r.Fault_storm.drops_injected
      r.Fault_storm.hotspots_injected;
    Format.fprintf ppf "recovery: %a@." Measure.pp r.Fault_storm.recovery;
    match verify with
    | None -> ()
    | Some v ->
      let n = Verify.violation_count v in
      if n = 0 then Format.fprintf ppf "verify: clean (0 violations)@."
      else begin
        Format.eprintf "verify: %d violation(s):@." n;
        List.iter
          (fun viol -> Format.eprintf "  %a@." Verify.pp_violation viol)
          (Verify.violations v);
        exit 1
      end
  in
  let mech =
    let mechs =
      Fault_storm.
        [
          ("no-timeout", No_timeout); ("none", No_timeout);
          ("timeout", Timeout); ("bounded-retry", Bounded_retry);
          ("bounded", Bounded_retry);
        ]
    in
    Arg.(
      value
      & opt (enum mechs) Fault_storm.Timeout
      & info [ "m"; "mechanism" ] ~docv:"MECH"
          ~doc:("Recovery mechanism: " ^ doc_alts_enum mechs ^ "."))
  in
  let workers =
    Arg.(
      value & opt int 8
      & info [ "p"; "workers" ] ~docv:"P" ~doc:"Worker processors.")
  in
  let stall_every =
    Arg.(
      value & opt float 2000.0
      & info [ "stall-every" ] ~docv:"US"
          ~doc:"Inject a holder stall every US microseconds (0 = none).")
  in
  let stall =
    Arg.(
      value & opt float 1000.0
      & info [ "stall" ] ~docv:"US" ~doc:"Length of an injected stall.")
  in
  let drop =
    Arg.(
      value & opt float 0.0
      & info [ "drop-rate" ] ~docv:"R" ~doc:"P(message loss) per RPC call.")
  in
  let delay =
    Arg.(
      value & opt float 0.0
      & info [ "delay-rate" ] ~docv:"R" ~doc:"P(delay) per RPC message.")
  in
  let use_verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Run under the lockdep checker (lock order, reserve ownership, \
             stall watchdog); exit non-zero on any violation. Pair with \
             $(b,--drop-rate) 0: reply-drop recovery re-executes services, \
             which the ownership checker reports.")
  in
  cmd "storm"
    ~doc:
      "Fault-injection storm: holder stalls, RPC loss/delay, and the \
       timeout/bounded-retry recovery mechanisms."
    Term.(
      const run $ mech $ workers $ stall_every $ stall $ drop $ delay
      $ use_verify $ seed_arg)

(* -- verify subcommand --------------------------------------------------------- *)

let verify_cmd =
  let run () =
    let rows = Experiments.verify_suite () in
    Report.verify ppf rows;
    if List.for_all (fun r -> r.Verify_probes.ok) rows then begin
      Format.fprintf ppf "verify: all probes behaved as planted@.";
      exit 0
    end
    else begin
      Format.eprintf "verify: FAILED — see the rows marked FAIL above@.";
      exit 1
    end
  in
  cmd "verify"
    ~doc:
      "Run the lockdep checker against the planted-violation probes \
       (inverted lock order, leaked reserve bit, interrupt-context spin, \
       stalled holder, true deadlock, plus a clean storm that must stay \
       silent). Exits non-zero if any probe misbehaves."
    Term.(const run)

(* -- trace subcommand -------------------------------------------------------- *)

let trace_cmd =
  let run out p window_us stall_every_us capacity seed () =
    let cfg = Hector.Config.hector in
    let fault =
      if stall_every_us <= 0.0 then None
      else
        Some
          {
            Eventsim.Fault.disabled with
            seed;
            stall_every = Hector.Config.cycles_of_us cfg stall_every_us;
            stall_cycles = Hector.Config.cycles_of_us cfg 1000.0;
          }
    in
    let obs =
      Obs.create ~trace:capacity
        ~cluster_of:(Hector.Config.station_of_proc cfg)
        ~n_clusters:cfg.Hector.Config.stations
        ~n_procs:(Hector.Config.n_procs cfg) ()
    in
    let r =
      Fault_storm.run ~cfg
        ~config:{ Fault_storm.default_config with p; window_us; seed; fault }
        ~obs Fault_storm.Timeout
    in
    let doc =
      Obs.trace_json obs ~us_per_cycle:(Hector.Config.us_of_cycles cfg 1)
    in
    let oc = open_out out in
    output_string oc (Json.to_string ~compact:true doc);
    output_char oc '\n';
    close_out oc;
    Format.fprintf ppf "wrote %s: %d trace events (%d recorded, %d dropped)@."
      out
      (List.length (Obs.trace obs))
      (Obs.trace_recorded obs) (Obs.trace_dropped obs);
    Report.obs ppf { Experiments.obs_rows = Obs.profile_rows obs; obs_storm = r }
  in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Output file (Chrome trace-event JSON; load in Perfetto or \
                chrome://tracing).")
  in
  let workers =
    Arg.(
      value & opt int 8
      & info [ "p"; "workers" ] ~docv:"P" ~doc:"Worker processors.")
  in
  let window =
    Arg.(
      value & opt float 8000.0
      & info [ "w"; "window-us" ] ~docv:"US" ~doc:"Storm window, simulated us.")
  in
  let stall_every =
    Arg.(
      value & opt float 2000.0
      & info [ "stall-every-us" ] ~docv:"US"
          ~doc:"Inject a 1000 us holder stall each period; 0 disables.")
  in
  let capacity =
    Arg.(
      value & opt int 65536
      & info [ "trace-events" ] ~docv:"N"
          ~doc:"Ring capacity: keep the last N events.")
  in
  cmd "trace"
    ~doc:
      "Run a fault storm with the contention observer installed and \
       export the event trace as Chrome trace-event JSON, plus the \
       per-lock-class contention profile. Tracing is host-side only: the \
       storm's simulated timing is identical with and without it."
    Term.(
      const run $ out $ workers $ window $ stall_every $ capacity $ seed_arg)

(* -- numa subcommand --------------------------------------------------------- *)

let numa_cmd =
  let run algo clusters hold_us window_us () =
    let r =
      Numa_stress.run
        ~config:
          {
            Numa_stress.default_config with
            n_clusters = clusters;
            hold_us;
            window_us;
          }
        algo
    in
    Format.fprintf ppf "%a@." Measure.pp r.Numa_stress.summary;
    Format.fprintf ppf
      "acquisitions=%d handoffs=%d/%d local/remote (remote %.0f%%) \
       max-wait=%.1fus atomics=%d@."
      r.Numa_stress.acquisitions r.Numa_stress.local_handoffs
      r.Numa_stress.remote_handoffs
      (100.0 *. Numa_stress.remote_frac r)
      r.Numa_stress.max_wait_us r.Numa_stress.atomics
  in
  cmd "numa"
    ~doc:
      "Cross-cluster lock stress: measures hand-off locality (local vs \
       remote) and worst-case waits for one lock algorithm. Compare \
       cohort/hmcs/cna against h2."
    Term.(const run $ algo_arg $ clusters_arg $ hold_arg 0.0 $ window_arg)

(* -- abort subcommand --------------------------------------------------------- *)

let abort_cmd =
  let run algo clusters timeout_us stall_us window_us seed () =
    let r =
      Abort_storm.run
        ~config:
          {
            Abort_storm.default_config with
            n_clusters = clusters;
            timeout_us;
            stall_us;
            window_us;
            seed;
          }
        algo
    in
    Format.fprintf ppf "overshoot: %a@." Measure.pp r.Abort_storm.overshoot;
    Format.fprintf ppf "recovery:  %a@." Measure.pp r.Abort_storm.recovery;
    Format.fprintf ppf
      "attempts=%d acquisitions=%d aborts=%d (fast-fail %d) stalls=%d \
       max-overshoot=%.1fus bound-ratio=%.2f remote-aborts=%d repairs=%d \
       final-free=%b@."
      r.Abort_storm.attempts r.Abort_storm.acquisitions r.Abort_storm.aborts
      r.Abort_storm.fast_fails r.Abort_storm.stalls
      r.Abort_storm.max_overshoot_us r.Abort_storm.bound_ratio
      r.Abort_storm.remote_aborts r.Abort_storm.obs_repairs
      r.Abort_storm.final_free
  in
  let timeout =
    Arg.(
      value & opt float 150.0
      & info [ "timeout" ] ~docv:"US" ~doc:"Per-attempt deadline in us.")
  in
  let stall =
    Arg.(
      value & opt float 1500.0
      & info [ "stall" ] ~docv:"US"
          ~doc:"How long the planted holder goes dark per stall.")
  in
  cmd "abort"
    ~doc:
      "Timed acquisition under a planted cross-cluster holder stall: \
       every waiter attempts through the timed face and must return \
       within a bounded overshoot of its deadline (experiment \
       ABORT-STORM). Only abortable algorithms are accepted."
    Term.(
      const run $ algo_arg $ clusters_arg $ timeout $ stall $ window_arg
      $ seed_arg)

(* -- crash subcommand --------------------------------------------------------- *)

let crash_cmd =
  let run algo clusters kills check_period_us hold_us window_us seed () =
    let r =
      Crash_storm.run
        ~config:
          {
            Crash_storm.default_config with
            n_clusters = clusters;
            n_kills = kills;
            check_period_us;
            hold_us;
            window_us;
            seed;
          }
        algo
    in
    Format.fprintf ppf "recovery: %a@." Measure.pp r.Crash_storm.recovery;
    List.iter
      (fun (c, s) ->
        Format.fprintf ppf "cluster %d: %a@." c Measure.pp s)
      r.Crash_storm.by_cluster;
    Format.fprintf ppf
      "kills=%d acquisitions=%d obs-crashes=%d obs-recoveries=%d \
       lockdep-recoveries=%d lockdep-violations=%d final-free=%b@."
      r.Crash_storm.kills r.Crash_storm.acquisitions r.Crash_storm.obs_crashes
      r.Crash_storm.obs_recoveries r.Crash_storm.lockdep_recoveries
      r.Crash_storm.lockdep_violations r.Crash_storm.final_free
  in
  let kills =
    Arg.(
      value & opt int 6
      & info [ "kills" ] ~docv:"N"
          ~doc:"Victim processors, each fail-stopped once mid-critical-section.")
  in
  let check_period =
    Arg.(
      value & opt float 25.0
      & info [ "check-period" ] ~docv:"US"
          ~doc:"Recoverable-acquire slice (the dead-holder detector period).")
  in
  cmd "crash"
    ~doc:
      "Fail-stop crashes planted mid-critical-section: victims die \
       holding the lock, survivors acquire through the recoverable face \
       and force-release each orphaned hold (experiment CRASH-STORM). \
       Only recoverable algorithms are accepted."
    Term.(
      const run $ algo_arg $ clusters_arg $ kills $ check_period $ hold_arg 2.0
      $ window_arg $ seed_arg)

(* -- rw subcommand ------------------------------------------------------------ *)

let rw_cmd =
  let run algo style p clusters read_ratio ops reader_pref centralised seed
      () =
    let policy =
      if reader_pref then Locks.Rwlock.Reader_preference
      else Locks.Rwlock.Writer_blocking
    in
    let style =
      match style with
      | `Mutex -> Rw_scaling.Mutex algo
      | `Rw -> Rw_scaling.Rw_lock { writer = algo; policy; centralised }
      | `Seqlock -> Rw_scaling.Seqlock_style { writer = algo }
      | `Replicated -> Rw_scaling.Replicated { writer = algo }
    in
    let r =
      Rw_scaling.run
        ~config:
          {
            Rw_scaling.default_config with
            p;
            n_clusters = clusters;
            ops;
            read_ratio;
            style;
            seed;
          }
        ()
    in
    Format.fprintf ppf "reads:  %a@." Measure.pp r.Rw_scaling.read_summary;
    Format.fprintf ppf "writes: %a@." Measure.pp r.Rw_scaling.write_summary;
    Format.fprintf ppf
      "%s: reads=%d writes=%d throughput=%.1f ops/ms (reads %.1f/ms) \
       peak-readers=%d read-remote=%d seq-aborts=%d lockdep-violations=%d@."
      r.Rw_scaling.style_name r.Rw_scaling.reads_done r.Rw_scaling.writes_done
      r.Rw_scaling.throughput_ops_ms r.Rw_scaling.read_throughput_ops_ms
      r.Rw_scaling.peak_readers r.Rw_scaling.read_remote
      r.Rw_scaling.seq_aborts r.Rw_scaling.lockdep_violations;
    if r.Rw_scaling.lockdep_violations > 0 then exit 1
  in
  let style =
    Arg.(
      value
      & opt
          (enum
             [
               ("mutex", `Mutex); ("rw", `Rw); ("seqlock", `Seqlock);
               ("replicated", `Replicated);
             ])
          `Rw
      & info [ "style" ] ~docv:"STYLE"
          ~doc:
            "Read-path style: mutex (exclusive lock), rw (distributed RW \
             lock over the writer algorithm), seqlock, or replicated.")
  in
  let procs =
    Arg.(
      value & opt int 8
      & info [ "p"; "procs" ] ~docv:"P" ~doc:"Contending processors.")
  in
  let clusters =
    Arg.(
      value & opt int 2
      & info [ "clusters" ] ~docv:"C"
          ~doc:"Clusters the processors are spread across.")
  in
  let read_ratio =
    Arg.(
      value & opt float 0.99
      & info [ "read-ratio" ] ~docv:"R"
          ~doc:"Fraction of operations that are read-only lookups.")
  in
  let ops =
    Arg.(
      value & opt int 200
      & info [ "ops" ] ~docv:"N" ~doc:"Operations per processor.")
  in
  let reader_pref =
    Arg.(
      value & flag
      & info [ "reader-preference" ]
          ~doc:
            "Use the reader-preference sweep order (close and drain one \
             cluster gate at a time) instead of writer-blocking.")
  in
  let centralised =
    Arg.(
      value & flag
      & info [ "centralised" ]
          ~doc:
            "Home every reader indicator on one cluster (the layout \
             baseline) instead of distributing them.")
  in
  cmd "rw"
    ~doc:
      "Read-mostly lookups: distributed reader-writer lock vs seqlock vs \
       per-cluster replication vs one exclusive lock (experiment \
       RW-SCALING). Reports reader-parallelism peaks, remote read-path \
       traffic, and lockdep violations (non-zero exit on any violation)."
    Term.(
      const run $ algo_arg $ style $ procs $ clusters $ read_ratio $ ops
      $ reader_pref $ centralised $ seed_arg)

(* -- hash subcommand --------------------------------------------------------- *)

let hash_cmd =
  let run algo granularity p shards read_ratio locked churn seed () =
    let r =
      Hash_scaling.run
        ~config:
          {
            Hash_scaling.default_config with
            p;
            shards;
            read_ratio;
            churn_fraction = churn;
            granularity;
            optimistic = not locked;
            lock_algo = algo;
            seed;
          }
        ()
    in
    Format.fprintf ppf "reads:   %a@." Measure.pp r.Hash_scaling.read_summary;
    Format.fprintf ppf "updates: %a@." Measure.pp r.Hash_scaling.update_summary;
    Format.fprintf ppf
      "%s shards=%d optimistic=%b: throughput=%.1f ops/ms makespan=%.0fus \
       opt-hits=%d opt-fallbacks=%d reserve-conflicts=%d atomics=%d@."
      (Hkernel.Khash.granularity_name r.Hash_scaling.granularity)
      r.Hash_scaling.shards r.Hash_scaling.optimistic
      r.Hash_scaling.throughput_ops_ms r.Hash_scaling.makespan_us
      r.Hash_scaling.optimistic_hits r.Hash_scaling.optimistic_fallbacks
      r.Hash_scaling.reserve_conflicts r.Hash_scaling.atomics
  in
  let granularity =
    let gs =
      List.map
        (fun g -> (Hkernel.Khash.granularity_name g, g))
        Hkernel.Khash.[ Hybrid; Coarse; Fine; Sharded ]
    in
    Arg.(
      value
      & opt (enum gs) Hkernel.Khash.Sharded
      & info [ "g"; "granularity" ] ~docv:"G"
          ~doc:("Table granularity: " ^ doc_alts_enum gs ^ "."))
  in
  let procs =
    Arg.(
      value & opt int 8
      & info [ "p"; "procs" ] ~docv:"P" ~doc:"Contending processors.")
  in
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"S" ~doc:"Shard count (sharded granularity).")
  in
  let read_ratio =
    Arg.(
      value & opt float 0.9
      & info [ "read-ratio" ] ~docv:"R"
          ~doc:"Fraction of operations that are read-only lookups.")
  in
  let locked =
    Arg.(
      value & flag
      & info [ "locked" ]
          ~doc:
            "Force lookups through the locked path (disable the seqlock \
             optimistic reads).")
  in
  let churn =
    Arg.(
      value & opt float 0.3
      & info [ "churn" ] ~docv:"F"
          ~doc:
            "Fraction of non-read operations that delete and re-insert \
             their key (chain mutations).")
  in
  cmd "hash"
    ~doc:
      "Read/update mix over one hash table: sharded granularity and the \
       seqlock optimistic read path against the single-lock hybrid \
       (experiment HASH-SCALING)."
    Term.(
      const run $ algo_arg $ granularity $ procs $ shards $ read_ratio
      $ locked $ churn $ seed_arg)

(* -- slo subcommand ----------------------------------------------------------- *)

let slo_cmd =
  let run algo p elements rate requests shards read_ratio work_us seed () =
    let r =
      Slo_stream.run
        ~config:
          {
            Slo_stream.default_config with
            Slo_stream.p;
            elements;
            rate_per_ms = rate;
            requests;
            shards;
            read_ratio;
            element_work_us = work_us;
            lock_algo = algo;
            seed;
          }
        ()
    in
    Format.fprintf ppf "reads:   %a@." Measure.pp r.Slo_stream.read_summary;
    Format.fprintf ppf "updates: %a@." Measure.pp r.Slo_stream.update_summary;
    Format.fprintf ppf
      "offered=%.1f/ms achieved=%.1f/ms completed=%d makespan=%.0fus \
       peak-backlog=%d opt-hits=%d opt-fallbacks=%d atomics=%d \
       lockdep-violations=%d@."
      r.Slo_stream.offered_per_ms r.Slo_stream.achieved_per_ms
      r.Slo_stream.completed r.Slo_stream.makespan_us
      r.Slo_stream.peak_backlog r.Slo_stream.optimistic_hits
      r.Slo_stream.optimistic_fallbacks r.Slo_stream.atomics
      r.Slo_stream.lockdep_violations;
    if r.Slo_stream.lockdep_violations > 0 then exit 1
  in
  let procs =
    Arg.(
      value
      & opt int Slo_stream.default_config.Slo_stream.p
      & info [ "p"; "procs" ] ~docv:"P" ~doc:"Server processors.")
  in
  let elements =
    Arg.(
      value
      & opt int Slo_stream.default_config.Slo_stream.elements
      & info [ "elements" ] ~docv:"N"
          ~doc:"Keys pre-inserted into the table (requests target these).")
  in
  let rate =
    Arg.(
      value
      & opt float Slo_stream.default_config.Slo_stream.rate_per_ms
      & info [ "rate" ] ~docv:"R"
          ~doc:"Offered load: requests per virtual millisecond, total.")
  in
  let requests =
    Arg.(
      value
      & opt int Slo_stream.default_config.Slo_stream.requests
      & info [ "requests" ] ~docv:"N" ~doc:"Arrivals generated.")
  in
  let shards =
    Arg.(
      value
      & opt int Slo_stream.default_config.Slo_stream.shards
      & info [ "shards" ] ~docv:"S" ~doc:"Table shard count.")
  in
  let read_ratio =
    Arg.(
      value
      & opt float Slo_stream.default_config.Slo_stream.read_ratio
      & info [ "read-ratio" ] ~docv:"R"
          ~doc:"Fraction of requests that are read-only lookups.")
  in
  let work_us =
    Arg.(
      value
      & opt float Slo_stream.default_config.Slo_stream.element_work_us
      & info [ "work" ] ~docv:"US" ~doc:"Update work under the element, us.")
  in
  cmd "slo"
    ~doc:
      "Open-loop sustained-request stream over the sharded \
       million-element table: exponential arrivals at a fixed offered \
       rate, FIFO queueing behind a random server, \
       arrival-to-completion p50/p99/p99.9 (experiment SLO). Exits \
       non-zero on lockdep violations."
    Term.(
      const run $ algo_arg $ procs $ elements $ rate $ requests $ shards
      $ read_ratio $ work_us $ seed_arg)

(* -- diurnal subcommand ------------------------------------------------------- *)

let diurnal_cmd =
  let run algo p_hot p_cold clusters phase_us hold_us seed () =
    let r =
      Diurnal.run
        ~config:
          {
            Diurnal.default_config with
            Diurnal.algo;
            p_hot;
            p_cold;
            n_clusters = clusters;
            phase_us;
            hold_us;
            seed;
          }
        ()
    in
    Format.fprintf ppf
      "%s: cold1=%d hot=%d cold2=%d cold/ms=%.1f hot/ms=%.1f@."
      r.Diurnal.algo_name r.Diurnal.cold1_ops r.Diurnal.hot_ops
      r.Diurnal.cold2_ops r.Diurnal.cold_throughput_ops_ms
      r.Diurnal.hot_throughput_ops_ms;
    Format.fprintf ppf "final-free=%b lockdep-violations=%d@."
      r.Diurnal.final_free r.Diurnal.lockdep_violations;
    if r.Diurnal.lockdep_violations > 0 then exit 1
  in
  let p_hot =
    Arg.(
      value & opt int 16
      & info [ "p-hot" ] ~docv:"P" ~doc:"Processors at the daytime peak.")
  in
  let p_cold =
    Arg.(
      value & opt int 1
      & info [ "p-cold" ] ~docv:"P"
          ~doc:"Processors in the overnight trickle.")
  in
  let clusters =
    Arg.(
      value & opt int 4
      & info [ "clusters" ] ~docv:"C" ~doc:"Number of clusters.")
  in
  let phase =
    Arg.(
      value & opt float 1200.0
      & info [ "phase" ] ~docv:"US"
          ~doc:"Length of each of the three plateaus in us.")
  in
  cmd "diurnal"
    ~doc:
      "The diurnal load cycle: load ramps cold -> hot -> cold over one \
       lock, with per-phase throughput (experiment DIURNAL). Exits \
       non-zero on lockdep violations."
    Term.(
      const run $ algo_arg $ p_hot $ p_cold $ clusters $ phase $ hold_arg 1.5
      $ seed_arg)

(* -- figure subcommand -------------------------------------------------------- *)

let figure_cmd =
  let run name () =
    List.iter (Registry.print ppf) (Registry.run [ Registry.find name ])
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FIGURE"
          ~doc:
            ("Experiment name: "
            ^ String.concat ", " (List.map Registry.name Registry.all)
            ^ "."))
  in
  cmd "figure"
    ~doc:
      "Regenerate one of the paper's tables/figures or one experiment, \
       exactly as the benchmark harness prints it."
    Term.(const run $ name_arg)

let main_cmd =
  let doc = "Simulator for the HURRICANE locking architecture on HECTOR." in
  Cmd.group
    (Cmd.info "hurricane_sim" ~version:"1.0.0" ~doc)
    [
      locks_cmd;
      faults_cmd;
      destroy_cmd;
      sweep_cmd;
      storm_cmd;
      verify_cmd;
      trace_cmd;
      numa_cmd;
      abort_cmd;
      crash_cmd;
      rw_cmd;
      hash_cmd;
      slo_cmd;
      diurnal_cmd;
      figure_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
