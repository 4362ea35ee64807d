(** Lock contention stress (Figure 5): [p] processors acquire/hold/release
    one lock for a fixed window of virtual time. The critical section mixes
    memory work on data beside the lock with compute, so remote spinning can
    stretch it — the second-order coupling of Section 2.1. *)

open Hector
open Locks

type config = {
  p : int;
  hold_us : float;
  think_us : float;  (** per-iteration loop bookkeeping *)
  warmup_us : float;
  window_us : float;
  seed : int;
}

val default_config : config

type result = {
  summary : Measure.summary;  (** acquisition latency, hold excluded *)
  acquisitions : int;
  lock_mem_utilization : float;  (** of the lock's home memory module *)
  atomics : int;
}

(** Raises [Invalid_argument] unless [1 <= p <= Config.n_procs cfg]. *)
val run : ?cfg:Config.t -> ?config:config -> Lock.algo -> result
