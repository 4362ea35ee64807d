(** Sharded hash-table scaling (experiment HASH-SCALING): a read/update mix
    over one table, comparing the single-lock [Hybrid] strategy against
    [Sharded] granularity at several shard counts, with the per-shard
    seqlock optimistic read path on or off. *)

open Locks
open Hkernel

type config = {
  p : int;
  nbins : int;
  shards : int;  (** meaningful for [Sharded] only *)
  keys_per_proc : int;
  ops : int;
  read_ratio : float;  (** fraction of ops that are read-only lookups *)
  churn_fraction : float;
      (** fraction of non-read ops that delete and re-insert their key
          (chain mutations — seqlock writer traffic) instead of updating
          in place *)
  element_work_us : float;
  think_us : float;
  granularity : Khash.granularity;
  optimistic : bool;
      (** lookups via {!Khash.lookup} (seqlock-validated unlocked probe
          under [Sharded]) vs always {!Khash.lookup_locked} *)
  lock_algo : Lock.algo;
  seed : int;
}

val default_config : config

type result = {
  shards : int;
  optimistic : bool;
      (** lookups took the seqlock read path: [config.optimistic] on a
          [Sharded] table, the only granularity that has one *)
  read_summary : Measure.summary;  (** lookup latency *)
  update_summary : Measure.summary;  (** update latency, element work excluded *)
  makespan_us : float;
  throughput_ops_ms : float;  (** completed ops per virtual millisecond *)
  optimistic_hits : int;
  optimistic_fallbacks : int;
  reserve_conflicts : int;
  atomics : int;
  obs_rows : Obs.row list;  (** per-class contention profile, when [observe] *)
}

(** [run ()] executes one configuration. [observe] installs a contention
    observer so [obs_rows] carries the per-shard profile (class
    [khash.shard<i>] / [khash.seq<i>]). Raises [Invalid_argument] unless
    [1 <= p <= Config.n_procs cfg] and [read_ratio] is in [0, 1]. *)
val run :
  ?cfg:Hector.Config.t -> ?config:config -> ?observe:bool -> unit -> result
