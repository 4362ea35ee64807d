(** Text reports, one per experiment: each prints what the paper reports
    beside what the reproduction measured. *)

open Locks
open Workloads

val hr : Format.formatter -> unit
val section : Format.formatter -> string -> string -> unit

val fig4 : Format.formatter -> Experiments.fig4_row list -> unit
val uncontended : Format.formatter -> Uncontended.result list -> unit

val fig5 :
  Format.formatter ->
  name:string ->
  hold_us:float ->
  Experiments.fig5_series list ->
  unit

val starvation : Format.formatter -> Measure.summary -> unit

val fig7 :
  Format.formatter ->
  name:string ->
  xlabel:string ->
  claim:string ->
  Experiments.fig7_series list ->
  unit

val constants : Format.formatter -> Calibration.result -> unit

val retries :
  Format.formatter -> Destruction.result * Destruction.result -> unit

val ablation_granularity : Format.formatter -> Hash_stress.result list -> unit

val ablation_combining :
  Format.formatter -> Replication_storm.result * Replication_storm.result -> unit

val ablation_cas : Format.formatter -> Experiments.abl3_row list -> unit
val ablation_clh : Format.formatter -> Experiments.abl4_row list -> unit

val ablation_cached_locks :
  Format.formatter -> Experiments.abl5_row list -> unit

val ablation_spin_then_block :
  Format.formatter -> (Lock.algo * Lock_stress.result) list -> unit

val ablation_lockfree : Format.formatter -> Counter_stress.result list -> unit

val ablation_layout :
  Format.formatter -> Messaging_mix.result * Messaging_mix.result -> unit
val trylock : Format.formatter -> Trylock_starvation.result -> unit

val ablation_lock_family :
  Format.formatter -> Experiments.abl9_row list -> unit

val classes : Format.formatter -> Four_classes.result -> unit

val cow : Format.formatter -> Cow_storm.result * Cow_storm.result -> unit

val fs : Format.formatter -> File_read.result list -> unit

val fault_matrix : Format.formatter -> Experiments.fault_row list -> unit

val verify : Format.formatter -> Verify_probes.result list -> unit

val numa_locks :
  Format.formatter ->
  (Lock.algo * Numa_stress.config * Numa_stress.result) list ->
  unit

val hash_scaling :
  Format.formatter -> (Hash_scaling.config * Hash_scaling.result) list -> unit

val abort_storm : Format.formatter -> Abort_storm.result list -> unit
val crash_storm : Format.formatter -> Crash_storm.result list -> unit
val rw_scaling : Format.formatter -> Rw_scaling.result list -> unit

val obs :
  ?cfg:Hector.Config.t -> Format.formatter -> Experiments.obs_result -> unit

val slo :
  Format.formatter -> (Slo_stream.config * Slo_stream.result) list -> unit

val adaptive : Format.formatter -> Diurnal.result list -> unit
