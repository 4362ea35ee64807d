(** The sweeps that experiments ({!Spec}) and the host-cost benchmark
    ([perfbench/]) share. *)

open Locks

(** Figure 7's kernel-lock algorithms (both modified-MCS variants and the
    35 µs spin lock). *)
val fig7_algos : Lock.algo list

(** The algorithms NUMA-LOCKS and ABORT-STORM race: flat H2-MCS plus the
    NUMA composites. *)
val numa_algos : Lock.algo list

(** The offered loads (requests per virtual ms) SLO sweeps. *)
val slo_rates : float list
