(** Lock-free vs locked single-word updates (Section 5.3, experiment
    ABL7): shared-counter increments by CAS retry loop versus under a
    lock, on the CAS machine. All modes produce the exact count. *)

open Locks

type mode = Lock_free | Locked of Lock.algo

val mode_name : mode -> string

type config = { p : int; ops : int; think : int; seed : int }

val default_config : config

type result = {
  per_op_us : float;
  final_value : int;
  expected_value : int;
  cas_failures : int;
  atomics : int;
}

val run : ?cfg:Hector.Config.t -> ?config:config -> mode -> result
