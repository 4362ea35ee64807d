(** The diurnal load cycle (the DIURNAL experiment): load ramps
    cold → hot → cold in three equal plateaus — a same-cluster trickle
    with long think times, then every processor across every cluster with
    short think times, then the trickle again. Completed operations are
    classified into phases by completion time, so per-phase throughput
    races static lock shapes on both regimes. A Verify checker and an Obs
    observer are always installed. *)

open Hector
open Locks

type config = {
  p_hot : int;  (** processors at the daytime peak *)
  p_cold : int;  (** processors in the overnight trickle *)
  n_clusters : int;
  phase_us : float;  (** length of each of the three plateaus *)
  hold_us : float;  (** critical-section work *)
  think_cold_us : float;
  think_hot_us : float;
  algo : Lock.algo;
  seed : int;
}

(** 16 hot / 1 cold processor over 4 clusters, 1.2 ms plateaus, 1.5 µs
    holds, 5 µs cold and 3 µs hot think times, H2-MCS. *)
val default_config : config

type result = {
  algo_name : string;
  cold1_ops : int;
  hot_ops : int;
  cold2_ops : int;
  cold_throughput_ops_ms : float;  (** both cold plateaus combined *)
  hot_throughput_ops_ms : float;
  final_free : bool;
  lockdep_violations : int;  (** must be 0 *)
  obs_rows : Obs.row list;
}

(** The lock-order class the lock reports under ("diurnal"). *)
val obs_class : string

(** [obs], if given, is installed in place of the run's own untraced
    observer (to keep a trace, say); build it over the run's clustering. *)
val run :
  ?cfg:Config.t -> ?config:config -> ?obs:Obs.t -> unit -> result
