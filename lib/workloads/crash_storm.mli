(** Fail-stop crashes planted mid-critical-section (the CRASH experiment).

    Victim processors — spread round-robin across clusters — each take
    the lock at a scheduled instant and fail-stop halfway through the
    hold, releasing nothing. Every other processor drives the lock
    through {!Locks.Lock.acquire_recoverable}, so each orphaned hold is
    detected against the machine's liveness oracle and force-released by
    whichever waiter notices first. The storm checks conservation (every
    kill recovered), legality (an installed lockdep checker sees each
    forced release as a recovery transfer, zero violations), the
    kill-to-recovery latency distribution per cluster, and quiescence
    (lock free after a final surviving-processor drain — even when the
    last corpse still holds it at window end). *)

open Hector
open Locks

type config = {
  p : int;
  n_clusters : int;
  n_kills : int;  (** victim processors, each killed once, mid-CS *)
  check_period_us : float;
      (** recoverable-acquire slice — the detector period *)
  hold_us : float;  (** a worker's critical section *)
  think_us : float;
  window_us : float;
  seed : int;
}

val default_config : config

type result = {
  algo : Lock.algo;
  kills : int;  (** planted mid-CS kills performed *)
  acquisitions : int;  (** successful worker acquisitions *)
  obs_crashes : int;  (** crashes seen by the observer *)
  obs_recoveries : int;
      (** forced releases observed; a composite reports one per
          constituent level, so this may exceed [kills] *)
  lockdep_recoveries : int;  (** checker-legalised recovery transfers *)
  lockdep_violations : int;  (** must be 0 *)
  recovery : Measure.summary;
      (** kill-to-forced-release latency over all kills, in µs *)
  by_cluster : (int * Measure.summary) list;
      (** recovery latency attributed to the dead processor's cluster *)
  final_free : bool;  (** lock free after the surviving-processor drain *)
}

(** The observer class the lock reports under ("crashstorm"). *)
val obs_class : string

(** Run the storm over one algorithm. Raises [Invalid_argument] if the
    algorithm is not recoverable ({!Locks.Lock.t.recoverable}) or the
    config is out of range. [obs], if given, is installed in place of
    the run's own untraced observer (to keep a trace, say); build it over
    the run's clustering. *)
val run :
  ?cfg:Config.t -> ?config:config -> ?obs:Obs.t -> Lock.algo -> result

(** Clusters with at least one recovery sample. *)
val clusters_hit : result -> int

(** The worst per-cluster recovery p99, in µs; 0 if nothing was recovered. *)
val worst_cluster_p99_us : result -> float
