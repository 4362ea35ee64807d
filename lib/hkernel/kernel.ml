(* The simulated HURRICANE kernel instance.

   One [t] wires together the machine, one execution context per processor,
   the clustering layout, and a complete set of kernel data structures per
   cluster (Section 2.2): the page-descriptor hash table with its coarse
   lock, a region lock, and per-processor page-table locks.

   [lock_algo] selects the algorithm backing every coarse-grained kernel
   lock — the independent/shared fault experiments (Figure 7) sweep this
   between distributed locks and exponential-backoff spin locks. *)

open Eventsim
open Hector
open Locks

type cluster_data = {
  c_id : int;
  procs : int list;
  as_lock : Lock.t; (* address space descriptor, held briefly *)
  region_lock : Lock.t; (* region list, held briefly *)
  fcm_lock : Lock.t; (* file cache manager (mapped-file metadata) *)
  page_hash : Page.pdesc Khash.t;
  scratch : Cell.t array;
      (* stand-in for the cluster's uncached kernel data: page tables,
         region lists, descriptors the padding work walks *)
}

type t = {
  machine : Machine.t;
  clustering : Clustering.t;
  costs : Costs.t;
  ctxs : Ctx.t array;
  rpc : Rpc.t;
  clusters : cluster_data array;
  proc_desc_locks : Lock.t array; (* the faulting process's descriptor *)
  pte_locks : Lock.t array; (* one per processor's page table *)
  pte_cells : Cell.t array; (* the page-table word the fault path updates *)
  local_scratch : Cell.t array; (* per-processor kernel data (page tables etc.) *)
  pmm_scratch : Cell.t array; (* stand-in words for structures homed per PMM *)
  lock_algo : Lock.algo;
  lockless : bool; (* calibration probe: skip all locks and reserve bits *)
  mutable faults : int;
  mutable fault_rpcs : int;
  mutable retries : int; (* optimistic-protocol retries *)
  mutable replications : int; (* descriptors replicated to a cluster *)
  mutable invalidations : int; (* replicas invalidated for write ownership *)
  mutable degradations : int; (* optimistic ops that fell back to pessimistic *)
}

let create ?(costs = Costs.default) ?(lock_algo = Lock.Mcs_h2)
    ?(granularity = Khash.Hybrid) ?(lockless = false) ?(nbins = 64)
    ?(seed = 1234) machine ~cluster_size =
  let n = Machine.n_procs machine in
  let clustering = Clustering.create ~n_procs:n ~cluster_size in
  let rng = Rng.create seed in
  let ctxs = Array.init n (fun p -> Ctx.create machine ~proc:p (Rng.split rng)) in
  let algo = if lockless then Lock.Null else lock_algo in
  let clusters =
    Array.init (Clustering.n_clusters clustering) (fun c ->
        let procs = Clustering.procs_of_cluster clustering c in
        let home salt =
          Clustering.home_in_cluster clustering ~cluster:c ~salt
        in
        {
          c_id = c;
          procs;
          as_lock = Lock.make machine ~home:(home 2) ~vclass:"kernel.as" algo;
          region_lock =
            Lock.make machine ~home:(home 1) ~vclass:"kernel.region" algo;
          fcm_lock = Lock.make machine ~home:(home 3) ~vclass:"kernel.fcm" algo;
          page_hash =
            Khash.create machine ~granularity ~nbins ~vname:"kernel.pages"
              ~lock_algo:algo ~homes:procs;
          scratch =
            Array.init 32 (fun i ->
                Machine.alloc machine
                  ~label:(Printf.sprintf "kdata%d.%d" c i)
                  ~home:(home i) 0);
        })
  in
  let t =
  {
    machine;
    clustering;
    costs;
    ctxs;
    rpc = Rpc.create machine ctxs costs;
    clusters;
    proc_desc_locks =
      Array.init n (fun p -> Lock.make machine ~home:p ~vclass:"kernel.pd" algo);
    pte_locks =
      Array.init n (fun p -> Lock.make machine ~home:p ~vclass:"kernel.pte" algo);
    pte_cells =
      Array.init n (fun p ->
          Machine.alloc machine ~label:(Printf.sprintf "pte%d" p) ~home:p 0);
    local_scratch =
      Array.init n (fun p ->
          Machine.alloc machine ~label:(Printf.sprintf "klocal%d" p) ~home:p 0);
    pmm_scratch =
      Array.init n (fun p ->
          Machine.alloc machine ~label:(Printf.sprintf "kpmm%d" p) ~home:p 0);
    lock_algo = algo;
    lockless;
    faults = 0;
    fault_rpcs = 0;
    retries = 0;
    replications = 0;
    invalidations = 0;
    degradations = 0;
  }
  in
  t

let machine t = t.machine
let engine t = Machine.engine t.machine
let clustering t = t.clustering
let costs t = t.costs
let rpc t = t.rpc
let lock_algo t = t.lock_algo
let lockless t = t.lockless

let ctx t p = t.ctxs.(p)
let n_procs t = Array.length t.ctxs

let cluster t c = t.clusters.(c)
let cluster_of_proc t p = Clustering.cluster_of_proc t.clustering p
let local_cluster t ctx = t.clusters.(cluster_of_proc t (Ctx.proc ctx))

let proc_desc_lock t p = t.proc_desc_locks.(p)
let pte_lock t p = t.pte_locks.(p)
let pte_cell t p = t.pte_cells.(p)

let faults t = t.faults
let fault_rpcs t = t.fault_rpcs
let retries t = t.retries
let replications t = t.replications
let invalidations t = t.invalidations
let degradations t = t.degradations

(* Install (or clear) a fault plan machine-wide: memory hot-spots at the
   machine layer, delay/loss and the reply timeout at the RPC layer. *)
let install_fault_plan t plan =
  Machine.set_fault_plan t.machine plan;
  Rpc.set_fault_plan t.rpc plan

(* Install (or remove) a lockdep checker machine-wide; every lock family
   and reserve bit reports to it from then on. *)
let install_verify t v = Machine.set_verify t.machine v

(* Kernel execution is memory-bound: the MC88100 runs with kernel data
   uncached, so padding work is charged as interleaved accesses to kernel
   data plus a few compute cycles per access. Most of that data (page
   tables, the process's own structures) is local to the executing
   processor; roughly a quarter of the accesses walk cluster-shared
   structures spread over the cluster's memory. Under load the shared part
   queues behind lock traffic at the memory modules and interconnect — the
   coupling that lets remote spinning stretch kernel operations (Section
   2.1). [cycles] is the uncontended duration.

   Iteration [i] touches a random shared word when [i land 7 = 0] (writing
   it when [i land 15 = 0]) and otherwise reads the processor's own word.
   So the seven iterations between two shared ones only read a cell on this
   processor's PMM — its writes fall on shared iterations — and run as one
   [Ctx.local_pad], which elides them exactly: an own-PMM read reserves
   nothing and its value is unused, so only an IPI or this processor's
   death can change when they end, and either wakes the chain. *)
let kernel_work t ctx cycles =
  let cd = t.clusters.(cluster_of_proc t (Ctx.proc ctx)) in
  let scratch = cd.scratch in
  let n = Array.length scratch in
  let local = t.local_scratch.(Ctx.proc ctx) in
  let deadline = Machine.now t.machine + cycles in
  let rng = Ctx.rng ctx in
  let rec step i =
    if Machine.now t.machine < deadline then begin
      if i land 7 = 0 then begin
        let c = scratch.(Rng.int rng n) in
        if i land 15 = 0 then Ctx.write ctx c i else ignore (Ctx.read ctx c);
        Ctx.work ctx 6;
        step (i + 1)
      end
      else
        let iters = 8 - (i land 7) in
        step (i + Ctx.local_pad ctx local ~work:6 ~iters ~deadline)
    end
  in
  step 1

(* Work bound to a structure homed on a particular PMM — mapping a page
   reads and writes its descriptor's words repeatedly, so those accesses
   land on the descriptor's module and queue behind whatever lock traffic
   loads it. Every fourth iteration writes; the reads between are one
   [Ctx.local_pad], elided when [home] is this processor's PMM. *)
let struct_work t ctx ~home cycles =
  let cell = t.pmm_scratch.(home) in
  let deadline = Machine.now t.machine + cycles in
  let rec step i =
    if Machine.now t.machine < deadline then begin
      if i land 3 = 0 then begin
        Ctx.write ctx cell i;
        Ctx.work ctx 6;
        step (i + 1)
      end
      else
        let iters = 4 - (i land 3) in
        step (i + Ctx.local_pad ctx cell ~work:6 ~iters ~deadline)
    end
  in
  step 1

let count_fault t = t.faults <- t.faults + 1
let count_fault_rpc t = t.fault_rpcs <- t.fault_rpcs + 1
let count_retry t = t.retries <- t.retries + 1
let count_replication t = t.replications <- t.replications + 1
let count_invalidation t = t.invalidations <- t.invalidations + 1
let count_degradation t = t.degradations <- t.degradations + 1

(* Spawn idle RPC-service loops on every processor not in [active], so RPCs
   directed at them are served. The membership test is a host-side bitset
   indexed by processor id — O(1) per context instead of scanning the
   [active] list once per processor. *)
let spawn_idle_except t ~active =
  let is_active = Array.make (Array.length t.ctxs) false in
  List.iter
    (fun p ->
      if p >= 0 && p < Array.length is_active then is_active.(p) <- true)
    active;
  Array.iter
    (fun c ->
      if not is_active.(Ctx.proc c) then
        Process.spawn (engine t) (fun () -> Ctx.idle_loop c))
    t.ctxs

(* Pre-populate a page descriptor at its master cluster (untimed setup).
   The master starts with a valid-for-write copy, itself as owner and sole
   sharer. *)
let populate_page t ~vpage ~master_cluster ~frame =
  let cd = t.clusters.(master_cluster) in
  let make home =
    let desc =
      Page.make t.machine ~home ~vpage ~frame ~master_cluster
        ~vstate:Page.st_valid_write
    in
    Machine.poke t.machine desc.Page.dir_owner (master_cluster + 1);
    Machine.poke t.machine desc.Page.dir_sharers
      (Page.sharer_bit master_cluster);
    desc
  in
  ignore (Khash.insert_untimed cd.page_hash vpage ~status0:0 ~make)

(* Untimed: the descriptor for a page in [cluster]'s page hash. *)
let find_descriptor_untimed t ~cluster ~vpage =
  Khash.find_untimed t.clusters.(cluster).page_hash vpage

(* The RPC layer's marshal/dispatch cycles are kernel code too: route them
   through the memory-bound worker. Done here (after [kernel_work] exists)
   and re-exported as the real constructor. *)
let create ?costs ?lock_algo ?granularity ?lockless ?nbins ?seed machine
    ~cluster_size =
  let t =
    create ?costs ?lock_algo ?granularity ?lockless ?nbins ?seed machine
      ~cluster_size
  in
  Rpc.set_work t.rpc (fun ctx cycles -> kernel_work t ctx cycles);
  t
