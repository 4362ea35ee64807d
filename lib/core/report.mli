(** Text reports, one per experiment: each prints what the paper reports
    beside what the reproduction measured. The extension experiments'
    tables are {!table} over their {!Spec} columns. *)

open Locks
open Workloads

val section : Format.formatter -> string -> string -> unit

(** [table ppf ~title ~claim heads rows]: the section, then a line of column
    heads (each [(head, width)], the first left-aligned, the rest
    right-aligned) and one line per row of already padded cells. *)
val table :
  Format.formatter ->
  title:string ->
  claim:string ->
  (string * int) list ->
  string list list ->
  unit

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

val obs : Format.formatter -> Experiments.obs_result -> unit
