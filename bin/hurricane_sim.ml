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

(* -- knobs ----------------------------------------------------------------- *)

(* A knob is one flag that sets one field of a workload's config: [get]
   reads the field, [set] writes it, and the flag's default is [get d],
   where [d] is the workload's [default_config]. A subcommand at its
   defaults therefore runs the configuration its experiment exports. *)
let knob ?absent typ names ~docv ~doc (d : 'c) get (set : 'c -> 'v -> 'c) =
  Term.(
    const (fun v c -> set c v)
    $ Arg.(value & opt typ (get d) & info names ?absent ~docv ~doc))

(* A flag that applies [set] when it is given. *)
let switch names ~doc set =
  Term.(
    const (fun on c -> if on then set c else c)
    $ Arg.(value & flag & info names ~doc))

(* A subcommand's config: [d] with every knob's update applied. *)
let config d knobs =
  List.fold_left
    (fun acc knob -> Term.(const (fun c set -> set c) $ acc $ knob))
    (Term.const d) knobs

let algo_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Locks.Lock.of_string s) in
  let print ppf a = Format.pp_print_string ppf (Locks.Lock.algo_name a) in
  Arg.conv (parse, print)

let lock_doc =
  "Lock algorithm: "
  ^ String.concat ", " (List.map fst Locks.Lock.spellings)
  ^ " or spin:<max-backoff-us> (at least 1)."

let lock d = knob algo_conv [ "l"; "lock" ] ~docv:"ALGO" ~doc:lock_doc d

(* The lock of a workload that takes it as an argument, not a field. *)
let lock_arg default =
  Arg.(
    value & opt algo_conv default
    & info [ "l"; "lock" ] ~docv:"ALGO" ~doc:lock_doc)

let procs ?(doc = "Number of contending processors.") d =
  knob Arg.int [ "p"; "procs" ] ~docv:"P" ~doc d

let workers d =
  knob Arg.int [ "p"; "workers" ] ~docv:"P" ~doc:"Worker processors." d

let cluster_size d =
  knob Arg.int [ "c"; "cluster-size" ] ~docv:"N" ~doc:"Processors per cluster."
    d

let clusters ?(doc = "Number of clusters (p=16 split).") d =
  knob Arg.int [ "clusters" ] ~docv:"C" ~doc d

let seed d = knob Arg.int [ "seed" ] ~docv:"SEED" ~doc:"RNG seed." d

let window d =
  knob Arg.float [ "window" ] ~docv:"US" ~doc:"Measurement window in us." d

let hold d =
  knob Arg.float [ "hold" ] ~docv:"US" ~doc:"Critical-section length in us." d

let read_ratio ?(doc = "Fraction of operations that are read-only lookups.") d
    =
  knob Arg.float [ "read-ratio" ] ~docv:"R" ~doc d

(* -- locks subcommand ------------------------------------------------------- *)

let locks_cmd =
  let run algo config () =
    let r = Lock_stress.run ~config algo in
    Format.fprintf ppf "%a@." Measure.pp r.Lock_stress.summary;
    Format.fprintf ppf
      "acquisitions=%d lock-module-utilization=%.2f atomics=%d@."
      r.Lock_stress.acquisitions r.Lock_stress.lock_mem_utilization
      r.Lock_stress.atomics
  in
  let d = Lock_stress.default_config in
  cmd "locks" ~doc:"Stress one lock with P processors (Figure 5)."
    Term.(
      const run $ lock_arg Locks.Lock.Mcs_h2
      $ config d
          [
            procs d (fun c -> c.p) (fun c p -> { c with p });
            hold d (fun c -> c.hold_us) (fun c hold_us -> { c with hold_us });
            window d
              (fun c -> c.window_us)
              (fun c window_us -> { c with window_us });
          ])

(* -- faults subcommand ------------------------------------------------------ *)

(* The independent and the shared test share their flags; each knob sets
   the field in both configs. *)
let faults_cmd =
  let run shared (independent, shared_config) () =
    if shared then begin
      let r = Shared_faults.run ~config:shared_config () in
      Format.fprintf ppf "%a@." Measure.pp r.Shared_faults.summary;
      Format.fprintf ppf "retries=%d rpcs=%d replications=%d invalidations=%d@."
        r.Shared_faults.retries r.Shared_faults.rpcs
        r.Shared_faults.replications r.Shared_faults.invalidations
    end
    else begin
      let r = Independent_faults.run ~config:independent () in
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
  let d = (Independent_faults.default_config, Shared_faults.default_config) in
  (* Each test's own seed unless --seed is given. *)
  let seed =
    knob (Arg.some Arg.int) [ "seed" ] ~docv:"SEED" ~doc:"RNG seed."
      ~absent:
        (Printf.sprintf "%d independent, %d shared" (fst d).seed (snd d).seed)
      d
      (fun _ -> None)
      (fun (i, s) -> function
        | None -> (i, s) | Some seed -> ({ i with seed }, { s with seed }))
  in
  cmd "faults"
    ~doc:"Run a page-fault stress test on the simulated kernel (Figure 7)."
    Term.(
      const run $ shared
      $ config d
          [
            lock d
              (fun (i, _) -> i.lock_algo)
              (fun (i, s) lock_algo ->
                ({ i with lock_algo }, { s with lock_algo }));
            procs d
              (fun (i, _) -> i.p)
              (fun (i, s) p -> ({ i with p }, { s with p }));
            cluster_size d
              (fun (i, _) -> i.cluster_size)
              (fun (i, s) cluster_size ->
                ({ i with cluster_size }, { s with cluster_size }));
            seed;
          ])

(* -- destroy subcommand ------------------------------------------------------ *)

let destroy_cmd =
  let run config () =
    let r = Destruction.run ~config () in
    Format.fprintf ppf "%a@." Measure.pp r.Destruction.destroy_summary;
    Format.fprintf ppf "destroys=%d retries=%d revalidations=%d lost-races=%d@."
      r.Destruction.destroys r.Destruction.retries r.Destruction.revalidations
      r.Destruction.lost_races
  in
  let d = Destruction.default_config in
  cmd "destroy"
    ~doc:"Program-destruction storm across clusters (Section 2.5)."
    Term.(
      const run
      $ config d
          [
            cluster_size d
              (fun c -> c.cluster_size)
              (fun c cluster_size -> { c with cluster_size });
            switch [ "pessimistic" ]
              ~doc:"Use the pessimistic deadlock-management strategy."
              (fun (c : Destruction.config) ->
                { c with strategy = Hkernel.Procs.Pessimistic });
            knob Arg.int [ "children" ] ~docv:"N"
              ~doc:"Processes per program." d
              (fun c -> c.children)
              (fun c children -> { c with children });
          ])

(* -- sweep subcommand --------------------------------------------------------- *)

let sweep_cmd =
  let run algo shared sizes () =
    let series =
      if shared then Experiments.fig7d ~algos:[ algo ] ~sizes ()
      else Experiments.fig7c ~algos:[ algo ] ~sizes ()
    in
    Format.fprintf ppf "%-14s" "cluster";
    List.iter (fun c -> Format.fprintf ppf "%9d" c) sizes;
    Format.fprintf ppf "@.%-14s" (Locks.Lock.algo_name algo);
    List.iter
      (fun (s : Experiments.fig7_series) ->
        List.iter
          (fun (pt : Experiments.fig7_point) ->
            Format.fprintf ppf "%9.1f" pt.mean_us)
          s.series)
      series;
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
      & opt (list int) Experiments.paper_cluster_sizes
      & info [ "sizes" ] ~docv:"N,N,..." ~doc:"Cluster sizes to sweep.")
  in
  cmd "sweep"
    ~doc:"Sweep the cluster size at p=16 (Figures 7c/7d)."
    Term.(const run $ lock_arg Locks.Lock.Mcs_h2 $ shared $ sizes)

(* -- storm subcommand --------------------------------------------------------- *)

(* The flags that build the injected fault plan have no config field, so
   their defaults are this subcommand's own. *)
let storm_cmd =
  let run mech stall_every_us stall_us drop_rate delay_rate use_verify
      (config : Fault_storm.config) () =
    let cfg = Hector.Config.hector in
    let fault =
      if stall_every_us <= 0.0 && drop_rate <= 0.0 && delay_rate <= 0.0 then
        None
      else
        Some
          {
            Eventsim.Fault.disabled with
            seed = config.seed;
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
      Fault_storm.run ~cfg ~config:{ config with fault } ?verify mech
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
  let d = Fault_storm.default_config in
  cmd "storm"
    ~doc:
      "Fault-injection storm: holder stalls, RPC loss/delay, and the \
       timeout/bounded-retry recovery mechanisms."
    Term.(
      const run $ mech $ stall_every $ stall $ drop $ delay $ use_verify
      $ config d
          [
            workers d (fun c -> c.p) (fun c p -> { c with p });
            seed d (fun c -> c.seed) (fun c seed -> { c with seed });
          ])

(* -- verify subcommand --------------------------------------------------------- *)

let verify_cmd =
  let run () =
    let rows = Verify_probes.run_all () in
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
  let run out stall_every_us capacity (config : Fault_storm.config) () =
    let cfg = Hector.Config.hector in
    let fault =
      if stall_every_us <= 0.0 then None
      else
        Some
          {
            Eventsim.Fault.disabled with
            seed = config.seed;
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
      Fault_storm.run ~cfg ~config:{ config with fault } ~obs
        Fault_storm.Timeout
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
  let d = Fault_storm.default_config in
  cmd "trace"
    ~doc:
      "Run a fault storm with the contention observer installed and \
       export the event trace as Chrome trace-event JSON, plus the \
       per-lock-class contention profile. Tracing is host-side only: the \
       storm's simulated timing is identical with and without it."
    Term.(
      const run $ out $ stall_every $ capacity
      $ config d
          [
            workers d (fun c -> c.p) (fun c p -> { c with p });
            knob Arg.float [ "w"; "window-us" ] ~docv:"US"
              ~doc:"Storm window, simulated us." d
              (fun c -> c.window_us)
              (fun c window_us -> { c with window_us });
            seed d (fun c -> c.seed) (fun c seed -> { c with seed });
          ])

(* -- the workload subcommands ---------------------------------------------- *)

(* A workload subcommand runs its workload once, on the config its knob
   table builds, and prints that run's row of the export as one line of
   compact JSON, from the export's own encoder. A row that reports lockdep
   violations exits 1. *)
let row_cmd name ~doc row term =
  let run c () =
    let r = row c in
    print_endline (Json.to_string ~compact:true r);
    match Json.member r "lockdep_violations" with
    | Some (Json.Int n) when n > 0 -> exit 1
    | _ -> ()
  in
  cmd name
    ~doc:
      (doc
     ^ " Prints the run's export row (as in BENCH_results.json) as one line \
        of JSON; exits 1 if the row reports lockdep violations.")
    Term.(const run $ term)

(* The config of a workload that takes its lock as an argument. *)
let with_lock config =
  Term.(const (fun a c -> (a, c)) $ lock_arg Locks.Lock.Mcs_h2 $ config)

let numa_cmd =
  let d = Numa_stress.default_config in
  row_cmd "numa"
    ~doc:
      "Cross-cluster lock stress: hand-off locality (local vs remote) and \
       worst-case waits for one lock algorithm (experiment NUMA-LOCKS). \
       Compare cohort/hmcs/cna against h2."
    (fun (algo, config) ->
      Registry.numa_locks_row (algo, config, Numa_stress.run ~config algo))
    (with_lock
       (config d
          [
            clusters d
              (fun c -> c.n_clusters)
              (fun c n_clusters -> { c with n_clusters });
            hold d (fun c -> c.hold_us) (fun c hold_us -> { c with hold_us });
            window d
              (fun c -> c.window_us)
              (fun c window_us -> { c with window_us });
          ]))

let abort_cmd =
  let d = Abort_storm.default_config in
  row_cmd "abort"
    ~doc:
      "Timed acquisition under a planted cross-cluster holder stall: \
       every waiter attempts through the timed face and must return \
       within a bounded overshoot of its deadline (experiment \
       ABORT-STORM). Only abortable algorithms are accepted."
    (fun (algo, config) ->
      Registry.abort_storm_row (Abort_storm.run ~config algo))
    (with_lock
       (config d
          [
            clusters d
              (fun c -> c.n_clusters)
              (fun c n_clusters -> { c with n_clusters });
            knob Arg.float [ "timeout" ] ~docv:"US"
              ~doc:"Per-attempt deadline in us." d
              (fun c -> c.timeout_us)
              (fun c timeout_us -> { c with timeout_us });
            knob Arg.float [ "stall" ] ~docv:"US"
              ~doc:"How long the planted holder goes dark per stall." d
              (fun c -> c.stall_us)
              (fun c stall_us -> { c with stall_us });
            window d
              (fun c -> c.window_us)
              (fun c window_us -> { c with window_us });
            seed d (fun c -> c.seed) (fun c seed -> { c with seed });
          ]))

let crash_cmd =
  let d = Crash_storm.default_config in
  row_cmd "crash"
    ~doc:
      "Fail-stop crashes planted mid-critical-section: victims die \
       holding the lock, survivors acquire through the recoverable face \
       and force-release each orphaned hold (experiment CRASH-STORM). \
       Only recoverable algorithms are accepted."
    (fun (algo, config) ->
      Registry.crash_storm_row (Crash_storm.run ~config algo))
    (with_lock
       (config d
          [
            clusters d
              (fun c -> c.n_clusters)
              (fun c n_clusters -> { c with n_clusters });
            knob Arg.int [ "kills" ] ~docv:"N"
              ~doc:
                "Victim processors, each fail-stopped once \
                 mid-critical-section."
              d
              (fun c -> c.n_kills)
              (fun c n_kills -> { c with n_kills });
            knob Arg.float [ "check-period" ] ~docv:"US"
              ~doc:
                "Recoverable-acquire slice (the dead-holder detector period)."
              d
              (fun c -> c.check_period_us)
              (fun c check_period_us -> { c with check_period_us });
            hold d (fun c -> c.hold_us) (fun c hold_us -> { c with hold_us });
            window d
              (fun c -> c.window_us)
              (fun c window_us -> { c with window_us });
            seed d (fun c -> c.seed) (fun c seed -> { c with seed });
          ]))

(* The read-path style is one field set by four flags: --style picks the
   shape, --lock its writer, and --reader-preference and --centralised the
   RW lock's sweep order and indicator layout. *)
let rw_style (d : Rw_scaling.config) =
  let open Rw_scaling in
  let shape, writer, policy, centralised =
    match d.style with
    | Mutex writer -> (`Mutex, writer, Locks.Rwlock.Writer_blocking, false)
    | Rw_lock { writer; policy; centralised } ->
      (`Rw, writer, policy, centralised)
    | Seqlock_style { writer } ->
      (`Seqlock, writer, Locks.Rwlock.Writer_blocking, false)
    | Replicated { writer } ->
      (`Replicated, writer, Locks.Rwlock.Writer_blocking, false)
  in
  let set shape writer reader_pref central (c : config) =
    let style =
      match shape with
      | `Mutex -> Mutex writer
      | `Rw ->
        let policy =
          if reader_pref then Locks.Rwlock.Reader_preference else policy
        in
        Rw_lock { writer; policy; centralised = centralised || central }
      | `Seqlock -> Seqlock_style { writer }
      | `Replicated -> Replicated { writer }
    in
    { c with style }
  in
  let shape =
    Arg.(
      value
      & opt
          (enum
             [
               ("mutex", `Mutex); ("rw", `Rw); ("seqlock", `Seqlock);
               ("replicated", `Replicated);
             ])
          shape
      & info [ "style" ] ~docv:"STYLE"
          ~doc:
            "Read-path style: mutex (exclusive lock), rw (distributed RW \
             lock over the writer algorithm), seqlock, or replicated.")
  in
  let reader_pref =
    Arg.(
      value & flag
      & info [ "reader-preference" ]
          ~doc:
            "Use the reader-preference sweep order (close and drain one \
             cluster gate at a time) instead of writer-blocking.")
  in
  let central =
    Arg.(
      value & flag
      & info [ "centralised" ]
          ~doc:
            "Home every reader indicator on one cluster (the layout \
             baseline) instead of distributing them.")
  in
  Term.(const set $ shape $ lock_arg writer $ reader_pref $ central)

let rw_cmd =
  let d = Rw_scaling.default_config in
  row_cmd "rw"
    ~doc:
      "Read-mostly lookups: distributed reader-writer lock vs seqlock vs \
       per-cluster replication vs one exclusive lock (experiment \
       RW-SCALING): reader-parallelism peaks, remote read-path traffic \
       and lockdep violations."
    (fun config -> Registry.rw_scaling_row (Rw_scaling.run ~config ()))
    (config d
      [
        rw_style d;
        procs ~doc:"Contending processors." d
          (fun c -> c.p)
          (fun c p -> { c with p });
        clusters ~doc:"Clusters the processors are spread across." d
          (fun c -> c.n_clusters)
          (fun c n_clusters -> { c with n_clusters });
        read_ratio d
          (fun c -> c.read_ratio)
          (fun c read_ratio -> { c with read_ratio });
        knob Arg.int [ "ops" ] ~docv:"N" ~doc:"Operations per processor." d
          (fun c -> c.ops)
          (fun c ops -> { c with ops });
        seed d (fun c -> c.seed) (fun c seed -> { c with seed });
      ])

let hash_cmd =
  let granularities =
    List.map
      (fun g -> (Hkernel.Khash.granularity_name g, g))
      Hkernel.Khash.[ Hybrid; Coarse; Fine; Sharded ]
  in
  let d = Hash_scaling.default_config in
  row_cmd "hash"
    ~doc:
      "Read/update mix over one hash table: sharded granularity and the \
       seqlock optimistic read path against the single-lock hybrid \
       (experiment HASH-SCALING)."
    (fun config ->
      Registry.hash_scaling_row (config, Hash_scaling.run ~config ()))
    (config d
      [
        lock d
          (fun c -> c.lock_algo)
          (fun c lock_algo -> { c with lock_algo });
        knob (Arg.enum granularities) [ "g"; "granularity" ] ~docv:"G"
          ~doc:
            ("Table granularity: " ^ Arg.doc_alts_enum granularities ^ ".")
          d
          (fun c -> c.granularity)
          (fun c granularity -> { c with granularity });
        procs ~doc:"Contending processors." d
          (fun c -> c.p)
          (fun c p -> { c with p });
        knob Arg.int [ "shards" ] ~docv:"S"
          ~doc:"Shard count (sharded granularity)." d
          (fun c -> c.shards)
          (fun c shards -> { c with shards });
        read_ratio d
          (fun c -> c.read_ratio)
          (fun c read_ratio -> { c with read_ratio });
        switch [ "locked" ]
          ~doc:
            "Force lookups through the locked path (disable the seqlock \
             optimistic reads)."
          (fun (c : Hash_scaling.config) -> { c with optimistic = false });
        knob Arg.float [ "churn" ] ~docv:"F"
          ~doc:
            "Fraction of non-read operations that delete and re-insert \
             their key (chain mutations)."
          d
          (fun c -> c.churn_fraction)
          (fun c churn_fraction -> { c with churn_fraction });
        seed d (fun c -> c.seed) (fun c seed -> { c with seed });
      ])

let slo_cmd =
  let d = Slo_stream.default_config in
  row_cmd "slo"
    ~doc:
      "Open-loop sustained-request stream over the sharded \
       million-element table: exponential arrivals at a fixed offered \
       rate, FIFO queueing behind a random server, \
       arrival-to-completion p50/p99/p99.9 (experiment SLO)."
    (fun config -> Registry.slo_row (config, Slo_stream.run ~config ()))
    (config d
      [
        lock d
          (fun c -> c.lock_algo)
          (fun c lock_algo -> { c with lock_algo });
        procs ~doc:"Server processors." d
          (fun c -> c.p)
          (fun c p -> { c with p });
        knob Arg.int [ "elements" ] ~docv:"N"
          ~doc:"Keys pre-inserted into the table (requests target these)."
          d
          (fun c -> c.elements)
          (fun c elements -> { c with elements });
        knob Arg.float [ "rate" ] ~docv:"R"
          ~doc:"Offered load: requests per virtual millisecond, total." d
          (fun c -> c.rate_per_ms)
          (fun c rate_per_ms -> { c with rate_per_ms });
        knob Arg.int [ "requests" ] ~docv:"N" ~doc:"Arrivals generated." d
          (fun c -> c.requests)
          (fun c requests -> { c with requests });
        knob Arg.int [ "shards" ] ~docv:"S" ~doc:"Table shard count." d
          (fun c -> c.shards)
          (fun c shards -> { c with shards });
        read_ratio ~doc:"Fraction of requests that are read-only lookups."
          d
          (fun c -> c.read_ratio)
          (fun c read_ratio -> { c with read_ratio });
        knob Arg.float [ "work" ] ~docv:"US"
          ~doc:"Update work under the element, us." d
          (fun c -> c.element_work_us)
          (fun c element_work_us -> { c with element_work_us });
        seed d (fun c -> c.seed) (fun c seed -> { c with seed });
      ])

let diurnal_cmd =
  let d = Diurnal.default_config in
  row_cmd "diurnal"
    ~doc:
      "The diurnal load cycle: load ramps cold -> hot -> cold over one \
       lock, with per-phase throughput (experiment DIURNAL)."
    (fun config -> Registry.diurnal_row (Diurnal.run ~config ()))
    (config d
      [
        lock d (fun c -> c.algo) (fun c algo -> { c with algo });
        knob Arg.int [ "p-hot" ] ~docv:"P"
          ~doc:"Processors at the daytime peak." d
          (fun c -> c.p_hot)
          (fun c p_hot -> { c with p_hot });
        knob Arg.int [ "p-cold" ] ~docv:"P"
          ~doc:"Processors in the overnight trickle." d
          (fun c -> c.p_cold)
          (fun c p_cold -> { c with p_cold });
        clusters ~doc:"Number of clusters." d
          (fun c -> c.n_clusters)
          (fun c n_clusters -> { c with n_clusters });
        knob Arg.float [ "phase" ] ~docv:"US"
          ~doc:"Length of each of the three plateaus in us." d
          (fun c -> c.phase_us)
          (fun c phase_us -> { c with phase_us });
        hold d (fun c -> c.hold_us) (fun c hold_us -> { c with hold_us });
        seed d (fun c -> c.seed) (fun c seed -> { c with seed });
      ])

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
