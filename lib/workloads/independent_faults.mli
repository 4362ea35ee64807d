(** Independent page-fault test (Figures 6a, 7a, 7c): [p] processes walk
    private regions of local memory, each page faulted exactly once (soft
    faults), with jittered application think time between faults. The only
    lock contention is the kernel's own coarse locks. *)

open Locks

type config = {
  p : int;
  iters : int;
  cluster_size : int;
  lock_algo : Lock.algo;
  nbins : int;
  think_us : float;
  seed : int;
}

val default_config : config

type result = {
  summary : Measure.summary;
  faults : int;
  retries : int;
  rpcs : int;
  reserve_conflicts : int;
}

(** Raises [Invalid_argument] unless [1 <= p <= Config.n_procs cfg]. *)
val run : ?cfg:Hector.Config.t -> ?config:config -> unit -> result
