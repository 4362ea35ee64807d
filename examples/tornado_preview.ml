(* TORNADO preview: the paper's Section 5.3 redesign, measured.

   Hurricane's successor targets NUMAchine: an order of magnitude faster
   processors, hardware cache coherence, cache-based LL/SC. This example
   walks the Section 5.3 design bullets and shows each one paying off on
   the simulated modern machine:

   1. cache-friendly locks: a lock pair runs in the cache, so reducing
      lock *sharing* matters more than reducing lock *count*;
   2. lock-free leaf data: a CAS loop beats lock/update/unlock for
      single-word updates;
   3. spin-then-block: queue-lock fairness without waiting traffic;
   4. clustering still pays: bounding contention matters even with caches.

   Run with: dune exec examples/tornado_preview.exe *)

open Hector
open Locks
open Workloads

let () =
  Format.printf "TORNADO preview on NUMAchine (%a)@.@." Config.pp
    Config.numachine;

  (* 1. Lock pairs in the cache. *)
  let pair cfg =
    (Uncontended.run ~cfg Lock.Mcs_h2).Uncontended.pair_us
  in
  let hector_us = pair Config.hector and numa_us = pair Config.numachine in
  Format.printf
    "1. uncontended H2-MCS pair: HECTOR %.2f us -> NUMAchine %.3f us (%.0fx)@."
    hector_us numa_us (hector_us /. numa_us);
  Format.printf
    "   a miss costs ~%d cycles; \"10 to 20 lock operations per cache \
     miss\" (Sec 5.3)@.@."
    Config.numachine.Config.ring_latency;

  (* 2. Lock-free leaf updates. *)
  Format.printf "2. shared counter, 8 processors:@.";
  List.iter
    (fun (r : Counter_stress.result) ->
      Format.printf "   %-22s %.2f us/op (exact: %b)@."
        (Counter_stress.mode_name r.Counter_stress.mode)
        r.Counter_stress.per_op_us
        (r.Counter_stress.final_value = r.Counter_stress.expected_value))
    (Counter_stress.run_all ());
  Format.printf "@.";

  (* 3. Spin-then-block fairness without spinning. *)
  Format.printf "3. 12 processors, 50 us critical sections:@.";
  List.iter
    (fun (algo, (r : Lock_stress.result)) ->
      Format.printf "   %-14s mean %7.1f us, >2ms %4.1f%%@."
        (Lock.algo_name algo)
        r.Lock_stress.summary.Measure.mean_us
        (100.0 *. r.Lock_stress.summary.Measure.frac_above_2ms))
    (List.map
       (fun algo ->
         ( algo,
           Lock_stress.run
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
       ]);
  Format.printf "@.";

  (* 4. Clustering still pays with caches: the shared-fault sweep on the
     coherent machine keeps the same shape. *)
  Format.printf
    "4. shared faults at p=16 on NUMAchine, cluster sweep (mean us):@.   ";
  List.iter
    (fun cluster_size ->
      let r =
        Shared_faults.run ~cfg:Config.numachine
          ~config:
            {
              Shared_faults.default_config with
              p = 16;
              rounds = 10;
              cluster_size;
            }
          ()
      in
      Format.printf "c=%d: %.0f   " cluster_size
        r.Shared_faults.summary.Measure.mean_us)
    [ 1; 4; 16 ];
  Format.printf
    "@.   bounding contention \"should prove to be even more beneficial in \
     our new, larger and faster system\" (Sec 5.3)@."
