(** Cross-cluster lock contention: the Figure 5 stress pattern with the
    processors partitioned into kernel clusters and the lock built against
    that topology, plus a contention observer classifying each contended
    hand-off as cluster-local or cross-cluster. The remote fraction is
    what the NUMA-aware composites are measured on against flat MCS. *)

open Hector
open Locks

type config = {
  p : int;
  n_clusters : int;
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
  local_handoffs : int;  (** contended hand-offs inside a cluster *)
  remote_handoffs : int;  (** contended hand-offs across clusters *)
  max_wait_us : float;  (** worst single acquisition wait *)
  atomics : int;
}

val run : ?cfg:Config.t -> ?config:config -> Lock.algo -> result

(** [remote_handoffs / (local_handoffs + remote_handoffs)]; 0 if no
    hand-off was contended. *)
val remote_frac : result -> float
