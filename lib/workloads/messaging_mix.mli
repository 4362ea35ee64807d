(** Data-structure-design ablation (Section 2.5, experiment ABL8): a
    message-passing storm mixed with a destruction storm over the same
    processes, under the shipped [Combined] descriptor layout versus the
    [Separate] family tree the paper wished it had used. *)

open Hkernel

type config = {
  cluster_size : int;
  senders : int;
  destroyers : int;
  messages_per_sender : int;
  victims : int;
  layout : Procs.layout;
  seed : int;
}

val default_config : config

type result = {
  sends : int;
  send_retries : int;
  destroys : int;
  destroy_retries : int;
  send_summary : Measure.summary;
  destroy_summary : Measure.summary;
}

val run : ?cfg:Hector.Config.t -> ?config:config -> unit -> result
