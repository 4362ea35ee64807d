(** Copy-on-write fault storm (experiment COW, Sections 2.3 / 2.5):
    simultaneous COW breaks on the same pages under both deadlock
    strategies — retries under either, plus the pessimistic strategy's
    "page had disappeared" observations. *)

open Hkernel

type config = {
  p : int;
  n_pages : int;
  rounds : int;
  cluster_size : int;
  strategy : Procs.strategy;
  seed : int;
}

val default_config : config

type result = {
  summary : Measure.summary;
  broke : int;
  found_gone : int;
  retries : int;
}

val run : ?cfg:Hector.Config.t -> ?config:config -> unit -> result
