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

(* The knobs: each flag's default is read from the workload's
   [default_config] ({!Spec.Knob}). *)
open Spec.Knob

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
            procs d.p (fun c p -> { c with Lock_stress.p });
            hold d.hold_us (fun c hold_us -> { c with Lock_stress.hold_us });
            window d.window_us (fun c window_us ->
                { c with Lock_stress.window_us });
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
      None
      (fun (i, s) -> function
        | None -> (i, s)
        | Some seed ->
          ({ i with Independent_faults.seed }, { s with Shared_faults.seed }))
  in
  cmd "faults"
    ~doc:"Run a page-fault stress test on the simulated kernel (Figure 7)."
    Term.(
      const run $ shared
      $ config d
          [
            lock (fst d).lock_algo (fun (i, s) lock_algo ->
                ( { i with Independent_faults.lock_algo },
                  { s with Shared_faults.lock_algo } ));
            procs (fst d).p (fun (i, s) p ->
                ({ i with Independent_faults.p }, { s with Shared_faults.p }));
            cluster_size (fst d).cluster_size (fun (i, s) cluster_size ->
                ( { i with Independent_faults.cluster_size },
                  { s with Shared_faults.cluster_size } ));
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
            cluster_size d.cluster_size (fun c cluster_size ->
                { c with Destruction.cluster_size });
            switch [ "pessimistic" ]
              ~doc:"Use the pessimistic deadlock-management strategy."
              (fun (c : Destruction.config) ->
                { c with strategy = Hkernel.Procs.Pessimistic });
            knob Arg.int [ "children" ] ~docv:"N"
              ~doc:"Processes per program." d.children (fun c children ->
                { c with Destruction.children });
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
            workers d.p (fun c p -> { c with Fault_storm.p });
            seed d.seed (fun c seed -> { c with Fault_storm.seed });
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
            workers d.p (fun c p -> { c with Fault_storm.p });
            knob Arg.float [ "w"; "window-us" ] ~docv:"US"
              ~doc:"Storm window, simulated us." d.window_us (fun c window_us ->
                { c with Fault_storm.window_us });
            seed d.seed (fun c seed -> { c with Fault_storm.seed });
          ])

(* -- the workload subcommands ---------------------------------------------- *)

(* Each extension experiment's spec is a subcommand: it runs the workload
   once, on the config the spec's knobs build over its default, and prints
   that run's row of the export as one line of compact JSON, from the
   spec's own columns. A row that reports lockdep violations exits 1. *)
let row_cmd (Spec.Spec s) =
  let run c () =
    let r = Spec.row s (c, s.run c) in
    print_endline (Json.to_string ~compact:true r);
    match Json.member r "lockdep_violations" with
    | Some (Json.Int n) when n > 0 -> exit 1
    | _ -> ()
  in
  cmd s.command
    ~doc:
      (s.doc
     ^ " Prints the run's export row (as in BENCH_results.json) as one line \
        of JSON; exits 1 if the row reports lockdep violations.")
    Term.(const run $ config s.default (s.knobs s.default))

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
            ^ String.concat ", "
                (List.map Registry.name (Lazy.force Registry.all))
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
    ([
      locks_cmd;
      faults_cmd;
      destroy_cmd;
      sweep_cmd;
      storm_cmd;
      verify_cmd;
      trace_cmd;
    ]
    @ List.map row_cmd (Lazy.force Spec.all)
    @ [ figure_cmd ])

let () = exit (Cmd.eval main_cmd)
