(** Open-loop sustained-request stream over a sharded million-element
    {!Hkernel.Khash}, with SLO latency percentiles (the SLO experiment).

    Requests arrive with exponential inter-arrival gaps at a fixed offered
    rate, are dispatched to a uniformly random server processor, and queue
    FIFO behind it; latency is measured arrival-to-completion, so it
    includes queueing delay — the open-loop regime where p99/p99.9 tails
    blow up as the offered rate approaches the table's capacity, which a
    closed-loop workload can never show. Always runs under a {!Verify}
    checker (zero violations required) and an {!Obs} observer. *)

open Hector
open Locks

type config = {
  p : int;  (** server processors *)
  elements : int;  (** keys pre-inserted; requests target these *)
  nbins : int;
  shards : int;
  rate_per_ms : float;  (** total offered load, requests per virtual ms *)
  requests : int;  (** arrivals generated *)
  read_ratio : float;  (** fraction of requests that are lookups *)
  element_work_us : float;  (** update work under the element *)
  lock_algo : Lock.algo;
  seed : int;
}

(** The SLO experiment's past-the-knee row (350 requests/ms), so
    [hurricane_sim slo] at its defaults prints an exported row. *)
val default_config : config

type result = {
  offered_per_ms : float;
  completed : int;  (** always [config.requests]: the stream drains *)
  read_summary : Measure.summary;  (** arrival-to-completion, reads *)
  update_summary : Measure.summary;  (** arrival-to-completion, updates *)
  makespan_us : float;
  achieved_per_ms : float;  (** completed / makespan *)
  peak_backlog : int;
      (** max requests queued (all servers) at any instant *)
  optimistic_hits : int;
  optimistic_fallbacks : int;
  atomics : int;
  lockdep_violations : int;  (** must be 0 *)
  obs_rows : Obs.row list;
}

val run : ?cfg:Config.t -> ?config:config -> unit -> result
