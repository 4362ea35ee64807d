(* The lock algorithms and offered loads that experiments sweep and the
   host-cost benchmark also reads (interface in experiments.mli). Every
   experiment itself is a {!Spec}. *)

open Locks

(* The kernel-lock algorithms compared in Figure 7: the paper plots
   "Distributed Locks" vs exponential-backoff spin locks; we show both
   modified-MCS variants. *)
let fig7_algos =
  [ Lock.Mcs_h1; Lock.Mcs_h2; Lock.Spin { max_backoff_us = 35.0 } ]

let numa_algos = Lock.Mcs_h2 :: Lock.all_numa_algos

(* SLO's offered-load sweep: comfortable, near the knee, and past it. The
   top rate exceeds the measured table capacity (~300 requests/ms for the
   default 16 servers over a 16-shard million-element table), so its tail
   percentiles are dominated by queueing; the low rate's tails stay within
   a small multiple of the service time. *)
let slo_rates = [ 150.0; 250.0; 350.0 ]
