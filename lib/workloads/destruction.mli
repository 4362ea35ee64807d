(** Program-destruction storm (Section 2.5, experiment RETRY): every
    process of a program is destroyed at about the same time by different
    processors, contending on the parent descriptor's reservation. Compares
    the optimistic and pessimistic deadlock-management strategies. *)

open Hkernel

type config = {
  n_programs : int;
  children : int;
  cluster_size : int;
  strategy : Procs.strategy;
  seed : int;
}

val default_config : config

type result = {
  destroy_summary : Measure.summary;
  destroys : int;
  retries : int;
  revalidations : int;
  lost_races : int;
  total_us : float;
}

val run : ?cfg:Hector.Config.t -> ?config:config -> unit -> result
