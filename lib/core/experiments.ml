(* One runner per unexported experiment of the evaluation (the ablations
   called out in DESIGN.md and the fault studies). Each returns structured
   rows so the benchmark harness, the CLI and the test suite all share the
   same code.

   Experiment ids (DESIGN.md): RETRY, ABL3-ABL6, ABL9, FAULTS and OBS. An
   experiment that only runs its workload (ABL1, ABL2, ABL7, ABL8, TRY,
   CLASSES, COW, FS, VERIFY) has no runner here: {!Registry} calls the
   workload. Each exported experiment, the paper's figures included, is a
   {!Spec}. *)

open Hector
open Locks
open Workloads

(* The kernel-lock algorithms compared in Figure 7: the paper plots
   "Distributed Locks" vs exponential-backoff spin locks; we show both
   modified-MCS variants. *)
let fig7_algos =
  [ Lock.Mcs_h1; Lock.Mcs_h2; Lock.Spin { max_backoff_us = 35.0 } ]

(* -- RETRY: optimistic vs pessimistic deadlock management ------------------ *)

let retries () =
  let run strategy =
    Destruction.run ~config:{ Destruction.default_config with strategy } ()
  in
  (run Hkernel.Procs.Optimistic, run Hkernel.Procs.Pessimistic)

(* -- ABL3: compare&swap release (Section 5.2) ------------------------------- *)

type abl3_row = {
  machine : string;
  algo : Lock.algo;
  uncontended_us : float;
  contended_p16_us : float;
}

let ablation_cas () =
  let measure cfg algo =
    let unc = (Uncontended.run ~cfg algo).Uncontended.pair_us in
    let con =
      (Lock_stress.run ~cfg
         ~config:
           {
             Lock_stress.default_config with
             p = 16;
             hold_us = 0.0;
             window_us = 30_000.0;
           }
         algo)
        .Lock_stress.summary
        .Measure.mean_us
    in
    (unc, con)
  in
  let hector_cfg = Config.hector in
  let cas_cfg = Config.with_cas Config.hector in
  let mk machine cfg algo =
    let uncontended_us, contended_p16_us = measure cfg algo in
    { machine; algo; uncontended_us; contended_p16_us }
  in
  [
    mk "hector(swap)" hector_cfg Lock.Mcs_h2;
    mk "hector(+cas)" cas_cfg Lock.Mcs_h2;
    mk "hector(+cas)" cas_cfg Lock.Mcs_cas;
  ]

(* -- ABL4: CLH vs MCS on non-coherent vs coherent NUMA ---------------------- *)

type abl4_row = {
  machine4 : string;
  algo4 : Lock.algo;
  contended_us : float;
}

let ablation_clh () =
  let measure cfg algo =
    (Lock_stress.run ~cfg
       ~config:
         { Lock_stress.default_config with p = 12; hold_us = 5.0;
           window_us = 10_000.0 }
       algo)
      .Lock_stress.summary
      .Measure.mean_us
  in
  List.concat_map
    (fun (name, cfg) ->
      List.map
        (fun algo ->
          { machine4 = name; algo4 = algo; contended_us = measure cfg algo })
        [ Lock.Mcs_h1; Lock.Clh ])
    [ ("hector", Config.hector); ("numachine", Config.numachine) ]

(* -- ABL5: cache-based lock primitives (Section 5.2/5.3) --------------------- *)

type abl5_row = {
  machine5 : string;
  algo5 : Lock.algo;
  pair_us : float;
  pair_cycles : float;
}

let ablation_cached_locks () =
  List.concat_map
    (fun (name, cfg) ->
      List.map
        (fun algo ->
          let r = Uncontended.run ~cfg algo in
          {
            machine5 = name;
            algo5 = algo;
            pair_us = r.Uncontended.pair_us;
            pair_cycles =
              r.Uncontended.pair_us *. float_of_int cfg.Config.mhz;
          })
        [ Lock.Spin { max_backoff_us = 35.0 }; Lock.Mcs_h2 ])
    [ ("hector", Config.hector); ("numachine", Config.numachine) ]

(* -- ABL6: spin-then-block (Section 5.3) -------------------------------------- *)

let ablation_spin_then_block () =
  List.map
    (fun algo ->
      ( algo,
        Lock_stress.run ~cfg:Config.hector
          ~config:
            {
              Lock_stress.default_config with
              p = 12;
              hold_us = 50.0;
              window_us = 20_000.0;
            }
          algo ))
    [
      Lock.Mcs_h1;
      Lock.Spin { max_backoff_us = 35.0 };
      Lock.Spin_then_block { spin_us = 10.0 };
    ]

(* -- ABL9: the queue-lock family on the modern machine ------------------------ *)

type abl9_row = {
  algo9 : Lock.algo;
  unc_us : float;
  contended12_us : float;
  space : int; (* words per lock at 16 processors *)
}

let abl9_algos =
  [
    Lock.Spin { max_backoff_us = 35.0 };
    Lock.Ticket;
    Lock.Anderson;
    Lock.Clh;
    Lock.Mcs_cas;
    Lock.Spin_then_block { spin_us = 10.0 };
  ]

let ablation_lock_family () =
  let cfg = Config.numachine in
  List.map
    (fun algo ->
      let unc = (Uncontended.run ~cfg algo).Uncontended.pair_us in
      let con =
        (Lock_stress.run ~cfg
           ~config:
             {
               Lock_stress.default_config with
               p = 12;
               hold_us = 5.0;
               window_us = 10_000.0;
             }
           algo)
          .Lock_stress.summary
          .Measure.mean_us
      in
      {
        algo9 = algo;
        unc_us = unc;
        contended12_us = con;
        space = Lock.space_words ~n_procs:16 algo;
      })
    abl9_algos

(* -- FAULTS: injected holder stalls vs recovery mechanisms --------------------- *)

type fault_row = {
  fmech : Fault_storm.mechanism;
  stall_every_us : float; (* 0 = fault-free baseline *)
  fault_ops : int;
  retained : float; (* fault_ops / the same mechanism's baseline ops *)
  recovery_mean_us : float;
  recovery_p99_us : float;
  fault_lock_timeouts : int;
  fault_reserve_timeouts : int;
  fault_gave_ups : int;
  fault_deferred : int;
  stalls : int;
}

(* One stall dose (scheduled mode, identical for every mechanism) per
   period x mechanism, plus a fault-free baseline per mechanism to express
   throughput as a retained fraction. *)
let fault_matrix () =
  let cfg = Config.hector in
  let stall_cycles = Config.cycles_of_us cfg 1000.0 in
  let run mech ~period_us =
    let fault =
      if period_us <= 0.0 then None
      else
        Some
          {
            Eventsim.Fault.disabled with
            seed = 42;
            stall_every = Config.cycles_of_us cfg period_us;
            stall_cycles;
          }
    in
    Fault_storm.run ~cfg
      ~config:{ Fault_storm.default_config with fault }
      mech
  in
  List.concat_map
    (fun mech ->
      let base = run mech ~period_us:0.0 in
      let row ~period_us (r : Fault_storm.result) =
        {
          fmech = mech;
          stall_every_us = period_us;
          fault_ops = r.Fault_storm.ops;
          retained =
            (if base.Fault_storm.ops = 0 then 0.0
             else float_of_int r.Fault_storm.ops
                  /. float_of_int base.Fault_storm.ops);
          recovery_mean_us = r.Fault_storm.recovery.Measure.mean_us;
          recovery_p99_us = r.Fault_storm.recovery.Measure.p99_us;
          fault_lock_timeouts = r.Fault_storm.lock_timeouts;
          fault_reserve_timeouts = r.Fault_storm.reserve_timeouts;
          fault_gave_ups = r.Fault_storm.rpc_gave_ups;
          fault_deferred = r.Fault_storm.deferred;
          stalls = r.Fault_storm.stalls_injected;
        }
      in
      row ~period_us:0.0 base
      :: List.map
           (fun period_us -> row ~period_us (run mech ~period_us))
           [ 4000.0; 2000.0; 1000.0 ])
    [ Fault_storm.No_timeout; Fault_storm.Timeout; Fault_storm.Bounded_retry ]

(* -- OBS: contention profile of the fault storm ---------------------------- *)

type obs_result = { obs_rows : Obs.row list; obs_storm : Fault_storm.result }

(* Station = cluster: the storm runs on a bare machine, so the natural
   cluster attribution is the HECTOR station each processor sits on. The
   dosed stall plan matches the fault matrix's middle column, giving the
   profile real contention to attribute. *)
let obs_profile () =
  let cfg = Config.hector in
  let obs =
    Obs.create
      ~cluster_of:(Config.station_of_proc cfg)
      ~n_clusters:cfg.Config.stations ~n_procs:(Config.n_procs cfg) ()
  in
  let fault =
    Some
      {
        Eventsim.Fault.disabled with
        seed = 42;
        stall_every = Config.cycles_of_us cfg 2000.0;
        stall_cycles = Config.cycles_of_us cfg 1000.0;
      }
  in
  let storm =
    Fault_storm.run ~cfg
      ~config:{ Fault_storm.default_config with fault }
      ~obs Fault_storm.Timeout
  in
  { obs_rows = Obs.profile_rows obs; obs_storm = storm }

(* -- two of the extension experiments' sweeps (see Spec) ------------------- *)

let numa_algos = Lock.Mcs_h2 :: Lock.all_numa_algos

(* SLO's offered-load sweep: comfortable, near the knee, and past it. The
   top rate exceeds the measured table capacity (~300 requests/ms for the
   default 16 servers over a 16-shard million-element table), so its tail
   percentiles are dominated by queueing; the low rate's tails stay within
   a small multiple of the service time. *)
let slo_rates = [ 150.0; 250.0; 350.0 ]
