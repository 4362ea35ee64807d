(* Tests for the workload harnesses: each runs at reduced scale and is
   checked for sane, internally consistent results. The paper-facing claims
   are the specs' claims (lib/core/spec.ml), checked by the claims suite. *)

open Eventsim
open Hector
open Locks
open Workloads

(* -- barrier ------------------------------------------------------------- *)

let test_barrier_releases_together () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let barrier = Barrier.create ~parties:4 in
  let rng = Rng.create 3 in
  let released = ref [] in
  for p = 0 to 3 do
    let ctx = Ctx.create machine ~proc:p (Rng.split rng) in
    Process.spawn eng (fun () ->
        Ctx.work ctx (100 * (p + 1));
        Barrier.wait barrier ctx;
        released := (p, Machine.now machine) :: !released)
  done;
  Engine.run eng;
  let times = List.map snd !released in
  let latest_arrival = 400 in
  List.iter
    (fun t ->
      Alcotest.(check bool) "released only after the last arrival" true
        (t >= latest_arrival))
    times;
  Alcotest.(check int) "all released" 4 (List.length times)

let test_barrier_reusable () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let barrier = Barrier.create ~parties:2 in
  let rng = Rng.create 4 in
  let rounds_done = ref 0 in
  for p = 0 to 1 do
    let ctx = Ctx.create machine ~proc:p (Rng.split rng) in
    Process.spawn eng (fun () ->
        for _ = 1 to 5 do
          Ctx.work ctx (10 + (p * 7));
          Barrier.wait barrier ctx;
          incr rounds_done
        done)
  done;
  Engine.run eng;
  Alcotest.(check int) "5 rounds x 2 parties" 10 !rounds_done

let test_barrier_rejects_zero_parties () =
  Alcotest.(check bool) "rejected" true
    (match Barrier.create ~parties:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* -- measure ---------------------------------------------------------------- *)

let test_measure_summary () =
  let stat = Stat.create "x" in
  (* 16 cycles = 1 us on HECTOR. *)
  List.iter (Stat.add stat) [ 16; 32; 48 ];
  let s = Measure.of_stat Config.hector ~label:"x" stat in
  Alcotest.(check int) "n" 3 s.Measure.n;
  Alcotest.(check (float 0.01)) "mean us" 2.0 s.Measure.mean_us;
  Alcotest.(check (float 0.01)) "min us" 1.0 s.Measure.min_us;
  Alcotest.(check (float 0.01)) "max us" 3.0 s.Measure.max_us;
  Alcotest.(check (float 0.001)) "no tail" 0.0 s.Measure.frac_above_2ms

(* -- uncontended -------------------------------------------------------------- *)

let test_uncontended_measured_matches_model () =
  List.iter
    (fun algo ->
      let r = Uncontended.run ~iters:200 algo in
      match r.Uncontended.predicted_us with
      | Some model ->
        Alcotest.(check (float 0.02))
          (Lock.algo_name algo ^ " matches static model")
          model r.Uncontended.pair_us
      | None -> ())
    Uncontended.algos

(* -- lock stress ------------------------------------------------------------- *)

let test_lock_stress_sane () =
  let r =
    Lock_stress.run
      ~config:{ Lock_stress.default_config with p = 4; window_us = 2000.0 }
      Lock.Mcs_h2
  in
  Alcotest.(check bool) "many acquisitions" true (r.Lock_stress.acquisitions > 50);
  Alcotest.(check bool) "latency positive" true
    (r.Lock_stress.summary.Measure.mean_us > 0.0);
  Alcotest.(check bool) "atomics happened" true (r.Lock_stress.atomics > 0)

let test_lock_stress_single_proc_near_uncontended () =
  let r =
    Lock_stress.run
      ~config:
        { Lock_stress.default_config with p = 1; window_us = 2000.0 }
      Lock.Mcs_h2
  in
  (* One processor: pair latency must be the uncontended 3.69us-ish. *)
  Alcotest.(check bool) "close to uncontended" true
    (r.Lock_stress.summary.Measure.mean_us < 4.0)

(* A processor count the machine cannot run is refused up front, by the
   workload's own validator (its message names the workload), not by a
   layer below it once the run has started. *)
let refuses validator run =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "%s refuses p=%d" validator p)
        true
        (match run p with
        | exception Invalid_argument m ->
          String.starts_with ~prefix:validator m
        | _ -> false))
    [ 0; 17 ]

let test_lock_stress_refuses_bad_p () =
  refuses "Lock_stress.run" (fun p ->
      Lock_stress.run ~config:{ Lock_stress.default_config with p } Lock.Mcs_h2)

(* -- independent faults --------------------------------------------------------- *)

let test_independent_faults_counts () =
  let config =
    { Independent_faults.default_config with p = 4; iters = 20 }
  in
  let r = Independent_faults.run ~config () in
  Alcotest.(check int) "one sample per fault" 80 r.Independent_faults.summary.Measure.n;
  Alcotest.(check int) "kernel counted the faults" 80 r.Independent_faults.faults;
  Alcotest.(check int) "private pages: no cross-cluster RPCs" 0
    r.Independent_faults.rpcs;
  Alcotest.(check bool) "fault latency in a sane band" true
    (r.Independent_faults.summary.Measure.mean_us > 100.0
    && r.Independent_faults.summary.Measure.mean_us < 400.0)

let test_independent_faults_refuses_bad_p () =
  refuses "Independent_faults.run" (fun p ->
      Independent_faults.run
        ~config:{ Independent_faults.default_config with p }
        ())

let test_hash_scaling_refuses_bad_p () =
  refuses "Hash_scaling.run" (fun p ->
      Hash_scaling.run ~config:{ Hash_scaling.default_config with p } ())

(* -- shared faults ----------------------------------------------------------------- *)

let test_shared_faults_single_cluster_no_rpcs () =
  let config =
    { Shared_faults.default_config with p = 4; rounds = 5; cluster_size = 16 }
  in
  let r = Shared_faults.run ~config () in
  Alcotest.(check int) "samples" (4 * 5 * config.Shared_faults.n_pages)
    r.Shared_faults.summary.Measure.n;
  Alcotest.(check int) "one cluster: no RPCs" 0 r.Shared_faults.rpcs

let test_shared_faults_cross_cluster_traffic () =
  let config =
    { Shared_faults.default_config with p = 8; rounds = 5; cluster_size = 4 }
  in
  let r = Shared_faults.run ~config () in
  Alcotest.(check bool) "RPCs happened" true (r.Shared_faults.rpcs > 0);
  Alcotest.(check bool) "replications happened" true
    (r.Shared_faults.replications > 0);
  Alcotest.(check bool) "invalidations happened" true
    (r.Shared_faults.invalidations > 0)

(* -- calibration --------------------------------------------------------------------- *)

let test_calibration_anchors () =
  let c = Calibration.run () in
  let within name lo hi v =
    Alcotest.(check bool)
      (Printf.sprintf "%s %.1f in [%.0f, %.0f]" name v lo hi)
      true
      (v >= lo && v <= hi)
  in
  (* The paper's anchors, with generous bands: 160us fault (40us locks),
     27us null RPC, 88us lookup+replicate. *)
  within "soft fault" 130.0 200.0 c.Calibration.soft_fault_us;
  within "lock overhead" 25.0 55.0 c.Calibration.lock_overhead_us;
  within "null rpc" 20.0 36.0 c.Calibration.null_rpc_us;
  within "replicate extra" 60.0 120.0 c.Calibration.replicate_extra_us

(* -- hash stress --------------------------------------------------------------------- *)

let test_hash_stress_all_modes_run () =
  List.iter
    (fun g ->
      let config = { Hash_stress.default_config with ops = 50 } in
      Alcotest.(check int)
        (Hkernel.Khash.granularity_name g ^ " samples")
        (4 * 50)
        (Hash_stress.run ~config g).Hash_stress.summary.Measure.n)
    Hkernel.Khash.[ Hybrid; Coarse; Fine ]

let test_hash_stress_space_accounting () =
  let lock_words g =
    (Hash_stress.run ~config:{ Hash_stress.default_config with ops = 10 } g)
      .Hash_stress.lock_words
  in
  Alcotest.(check int) "hybrid needs one lock word" 1
    (lock_words Hkernel.Khash.Hybrid);
  Alcotest.(check bool) "fine needs many" true
    (lock_words Hkernel.Khash.Fine > 32)

(* -- destruction storm ----------------------------------------------------------------- *)

let test_destruction_storm_consistency () =
  List.iter
    (fun strategy ->
      let config =
        {
          Destruction.default_config with
          n_programs = 3;
          children = 4;
          strategy;
        }
      in
      let r = Destruction.run ~config () in
      (* children plus the root, per program *)
      Alcotest.(check int)
        (Hkernel.Procs.strategy_name strategy ^ ": all processes destroyed")
        (3 * (4 + 1))
        r.Destruction.destroys)
    [ Hkernel.Procs.Optimistic; Hkernel.Procs.Pessimistic ]

(* -- trylock starvation ------------------------------------------------------------------ *)

let test_trylock_starvation_shape () =
  let config =
    { Trylock_starvation.default_config with window_us = 4000.0 }
  in
  let r = Trylock_starvation.run ~config () in
  Alcotest.(check bool) "attempts made" true (r.Trylock_starvation.try_attempts > 10);
  Alcotest.(check bool) "trylock starves under saturation" true
    (r.Trylock_starvation.try_success_rate < 0.2);
  Alcotest.(check int) "deferred work all completes"
    r.Trylock_starvation.deferred_posted r.Trylock_starvation.deferred_completed

let suite =
  [
    Alcotest.test_case "barrier releases together" `Quick
      test_barrier_releases_together;
    Alcotest.test_case "barrier is reusable" `Quick test_barrier_reusable;
    Alcotest.test_case "barrier rejects zero parties" `Quick
      test_barrier_rejects_zero_parties;
    Alcotest.test_case "measure summary conversion" `Quick test_measure_summary;
    Alcotest.test_case "uncontended matches the static model" `Quick
      test_uncontended_measured_matches_model;
    Alcotest.test_case "lock stress sanity" `Quick test_lock_stress_sane;
    Alcotest.test_case "lock stress, single processor" `Quick
      test_lock_stress_single_proc_near_uncontended;
    Alcotest.test_case "lock stress refuses bad processor counts" `Quick
      test_lock_stress_refuses_bad_p;
    Alcotest.test_case "independent faults accounting" `Quick
      test_independent_faults_counts;
    Alcotest.test_case "independent faults refuses bad processor counts"
      `Quick test_independent_faults_refuses_bad_p;
    Alcotest.test_case "hash scaling refuses bad processor counts" `Quick
      test_hash_scaling_refuses_bad_p;
    Alcotest.test_case "shared faults, one cluster" `Quick
      test_shared_faults_single_cluster_no_rpcs;
    Alcotest.test_case "shared faults, cross-cluster traffic" `Quick
      test_shared_faults_cross_cluster_traffic;
    Alcotest.test_case "calibration anchors near the paper's" `Quick
      test_calibration_anchors;
    Alcotest.test_case "hash stress runs in all modes" `Quick
      test_hash_stress_all_modes_run;
    Alcotest.test_case "hash stress space accounting" `Quick
      test_hash_stress_space_accounting;
    Alcotest.test_case "destruction storm consistency" `Quick
      test_destruction_storm_consistency;
    Alcotest.test_case "trylock starvation shape" `Quick
      test_trylock_starvation_shape;
  ]
