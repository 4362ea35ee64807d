(** Locking-granularity ablation for the hash table (experiment ABL1):
    the same independent-key workload under hybrid, coarse and fine
    locking, at cluster-bounded concurrency. *)

open Locks
open Hkernel

type config = {
  p : int;
  keys_per_proc : int;
  ops : int;
  element_work_us : float;
  think_us : float;
  shared_fraction : float;
  lock_algo : Lock.algo;
  seed : int;
}

val default_config : config

type result = {
  summary : Measure.summary;  (** per-operation latency, work excluded *)
  atomics : int;
  lock_words : int;  (** space cost of the locking strategy *)
  reserve_conflicts : int;
}

val run :
  ?cfg:Hector.Config.t -> ?config:config -> Khash.granularity -> result
