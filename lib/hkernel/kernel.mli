(** A simulated HURRICANE kernel instance: per-processor contexts, the
    clustering layout, and a complete set of kernel structures per cluster
    (page-descriptor hash, address-space / region / file-cache locks), plus
    the RPC layer and the memory-bound kernel-work model. *)

open Eventsim
open Hector
open Locks

type cluster_data = {
  c_id : int;
  procs : int list;
  as_lock : Lock.t;
  region_lock : Lock.t;
  fcm_lock : Lock.t;
  page_hash : Page.pdesc Khash.t;
  scratch : Cell.t array;
}

type t

(** [create machine ~cluster_size] builds a kernel. [lock_algo] backs every
    coarse kernel lock (the Figure 7 sweep); [lockless] replaces all locks
    and reserve operations with no-ops for the lock-overhead calibration
    probe; [granularity] selects the hash-table strategy. *)
val create :
  ?costs:Costs.t ->
  ?lock_algo:Lock.algo ->
  ?granularity:Khash.granularity ->
  ?lockless:bool ->
  ?nbins:int ->
  ?seed:int ->
  Machine.t ->
  cluster_size:int ->
  t

val machine : t -> Machine.t
val engine : t -> Engine.t
val clustering : t -> Clustering.t
val costs : t -> Costs.t
val rpc : t -> Rpc.t
val lock_algo : t -> Lock.algo
val lockless : t -> bool

val ctx : t -> int -> Ctx.t
val n_procs : t -> int

val cluster : t -> int -> cluster_data
val cluster_of_proc : t -> int -> int
val local_cluster : t -> Ctx.t -> cluster_data

val proc_desc_lock : t -> int -> Lock.t
val pte_lock : t -> int -> Lock.t
val pte_cell : t -> int -> Cell.t

(** Experiment counters. *)

val faults : t -> int
val fault_rpcs : t -> int
val retries : t -> int
val replications : t -> int
val invalidations : t -> int

(** Optimistic operations that fell back to the pessimistic protocol after
    exhausting their attempt budget. *)
val degradations : t -> int

val count_fault : t -> unit
val count_fault_rpc : t -> unit
val count_retry : t -> unit
val count_replication : t -> unit
val count_invalidation : t -> unit
val count_degradation : t -> unit

(** Install (or remove) a lockdep checker on the kernel's machine: every
    lock family and reserve bit reports acquisitions, releases and
    ownership transitions to it from then on. [None] restores unchecked
    execution (and identical timing — the hooks are host-side only). *)
val install_verify : t -> Verify.t option -> unit

(** Memory-bound kernel work: [cycles] of interleaved kernel-data accesses
    (mostly processor-local, partly cluster-shared) and compute. Under load
    the shared accesses queue behind lock traffic — the coupling behind the
    paper's second-order effects. *)
val kernel_work : t -> Ctx.t -> int -> unit

(** Work bound to a structure on a specific PMM (e.g. updating a page
    descriptor's words during mapping). *)
val struct_work : t -> Ctx.t -> home:int -> int -> unit

(** Spawn idle RPC-service loops on every processor not in [active]. *)
val spawn_idle_except : t -> active:int list -> unit

(** Untimed setup: create a page's master descriptor (valid for write,
    owner and sole sharer). *)
val populate_page : t -> vpage:int -> master_cluster:int -> frame:int -> unit

(** Untimed lookup of a cluster's descriptor instance: the fault path's
    location resolution, and assertions. Walks the page's bin only. *)
val find_descriptor_untimed :
  t -> cluster:int -> vpage:int -> Page.pdesc Khash.elem option
