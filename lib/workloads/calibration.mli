(** Single-threaded probes for the paper's absolute anchors: the ~160 µs
    soft fault (~40 µs locking), the ~27 µs null RPC, and the ~88 µs
    cluster-wide lookup + descriptor replication. *)

open Hector

type result = {
  soft_fault_us : float;
  lockless_fault_us : float;
  lock_overhead_us : float;  (** soft fault minus the lockless variant *)
  null_rpc_us : float;
  replicate_fault_us : float;
  replicate_extra_us : float;  (** over a local soft fault *)
}

val run : ?cfg:Config.t -> unit -> result
