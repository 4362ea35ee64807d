(** Timed acquisition under a planted cross-cluster holder stall (the
    ABORT-STORM experiment).

    One processor repeatedly takes the lock and goes dark far longer than
    any waiter's deadline; every other processor attempts through
    {!Locks.Lock.try_acquire_for}. With abandonment, each timed waiter —
    at whichever level of the composite its wait happens to sit — must
    return within a bounded overshoot of its own deadline instead of
    riding out the stall, and the lock must recover (next successful
    acquisition) promptly once the holder releases. The per-cluster abort
    attribution from the contention observer checks that waiters expire
    beyond the staller's own cluster, i.e. at every level of the NUMA
    composite. *)

open Hector
open Locks

type config = {
  p : int;
  n_clusters : int;
  timeout_us : float;  (** per-attempt deadline for the timed waiters *)
  stall_us : float;  (** how long the planted holder goes dark *)
  stall_idle_us : float;  (** gap between stalls (the recovery window) *)
  hold_us : float;  (** a successful waiter's critical section *)
  think_us : float;
  window_us : float;
  seed : int;
}

val default_config : config

type result = {
  attempts : int;  (** timed acquisition attempts (staller excluded) *)
  acquisitions : int;  (** timed attempts that got the lock *)
  aborts : int;  (** timed attempts that expired and gave up *)
  fast_fails : int;
      (** of those, attempts refused before the deadline because the
          waiter's abandoned node from an earlier expiry was still
          enqueued (the timed face never enqueues twice) *)
  stalls : int;  (** planted holder stalls completed *)
  overshoot : Measure.summary;
      (** per waited-out expiry (fast-fails excluded): return time minus
          deadline, in µs *)
  max_overshoot_us : float;
  bound_ratio : float;
      (** worst (return − issue) / timeout over failed attempts — the
          "bounded multiple of the deadline" of the acceptance bound *)
  recovery : Measure.summary;
      (** per stall: release to the next successful timed acquisition *)
  obs_aborts : int;  (** observer-counted aborts, constituents included *)
  obs_repairs : int;  (** abandoned nodes reclaimed by later hand-offs *)
  remote_aborts : int;
      (** aborts attributed to clusters other than the staller's *)
  final_free : bool;  (** lock free after the final untimed drain *)
}

(** The observer class the lock reports under ("abortstorm"). *)
val obs_class : string

(** Run the storm over one algorithm. Raises [Invalid_argument] if the
    algorithm is not abortable ({!Locks.Lock.t.abortable}) or the config
    is out of range. *)
val run : ?cfg:Config.t -> ?config:config -> Lock.algo -> result
