(** Machine configuration for the simulated NUMA multiprocessor.

    The [hector] preset matches the prototype in the paper: 4 stations of 4
    processor-memory modules (PMMs) on a ring, 16 MHz processors, memory
    latencies of 10/19/23 cycles (local / on-station / cross-ring), and swap
    as the only atomic primitive (costing two memory accesses). *)

type t = {
  stations : int;
  procs_per_station : int;
  mhz : int;
  local_latency : int;
  station_latency : int;
  ring_latency : int;
  mem_service : int;
  bus_service : int;
  ring_service : int;
  atomic_mem_accesses : int;
  atomic_module_overhead : int;
  has_cas : bool;
  reg_cost : int;
  branch_cost : int;
  atomic_overlap : int;
  irq_entry : int;
  irq_exit : int;
  cache_coherent : bool;
  cache_hit : int;
}

(** The paper's 16-processor HECTOR prototype. *)
val hector : t

(** Same machine with compare-and-swap and single-access atomics, for the
    Section 5.2 "advanced atomic primitives" discussion. *)
val with_cas : t -> t

(** The Section 5.3 target machine (TORNADO's NUMAchine): much faster
    processors, hardware cache coherence, cache-based CAS, and relatively
    distant memory. *)
val numachine : t

val n_procs : t -> int

(** Check invariants; returns the config or raises [Invalid_argument].
    Rejects machines with more than [Sys.int_size] processors: per-processor
    and per-cluster state is kept in one-word bitmasks. *)
val validate : t -> t

val station_of_proc : t -> int -> int
val index_in_station : t -> int -> int

(** Convert simulated cycles to microseconds at the configured clock rate. *)
val us_of_cycles : t -> int -> float

val cycles_of_us : t -> float -> int

val pp : Format.formatter -> t -> unit
