(* The simulated machine: topology, resources, timed memory operations.

   Every access from processor [p] to a cell homed on PMM [m] pays a base
   uncontended latency (10/19/23 cycles) and occupies, in order, the source
   station bus, the ring and the destination station bus (for remote
   accesses) and finally the destination memory module. Occupancies are FIFO
   {!Eventsim.Resource}s, so concurrent accesses queue — this queueing is
   the source of all second-order contention effects in the experiments.

   Atomic operations (swap / test&set) make two memory accesses on HECTOR,
   doubling both the base latency and the memory-module occupancy, exactly
   the cost the paper attributes to its locking primitive. *)

open Eventsim

type t = {
  eng : Engine.t;
  cfg : Config.t;
  mem : Resource.t array; (* one per PMM *)
  bus : Resource.t array; (* one per station *)
  ring : Resource.t;
  station : int array;
      (* per processor (and per PMM: PMM [i] sits beside processor [i]):
         its station, so an access divides nothing *)
  mutable reads : int;
  mutable writes : int;
  mutable atomics : int;
  mutable cache_hits : int;
  mutable next_id : int; (* the id the next cell allocated here takes *)
  mutable fault : Fault.t option; (* installed fault plan, for hot-spots *)
  mutable verify : Verify.t option; (* installed lockdep checker *)
  mutable obs : Obs.t option; (* installed contention observer *)
  mutable hooked : bool; (* either sink installed *)
  (* Fail-stop state. A dead processor never runs another instruction: Ctx
     parks its fiber at the next operation boundary, and peers consult
     [alive] (a host-side read, no simulated cost) to fail fast instead of
     timing out against a corpse. *)
  alive : bool array;
  killed_time : int array; (* when the processor died; -1 while alive *)
  mutable crashes : int;
  mutable restarts : int;
  mutable on_restart : (int -> unit) option;
      (* workload callback to respawn work on a revived processor (the
         fiber that died stays parked forever) *)
  watch : Engine.wait array;
      (* per processor: its last elided wait, or [no_wait] (a processor has
         at most one elided wait at a time) *)
  watch_cell : Cell.t option array; (* that wait's cell, for a local spin *)
}

(* Two arrays and a sentinel, not a [(cell, wait) option] per elision: an
   entry stored into these long-lived arrays is promoted at the next minor
   collection. *)
let no_wait =
  Engine.wait ~owner:(-1) ~even_gap:1 ~odd_gap:1 ~fire:ignore ~credit:ignore

let create eng cfg =
  let cfg = Config.validate cfg in
  let n = Config.n_procs cfg in
  {
    eng;
    cfg;
    mem = Array.init n (fun i -> Resource.create (Printf.sprintf "mem%d" i));
    bus =
      Array.init cfg.Config.stations (fun i ->
          Resource.create (Printf.sprintf "bus%d" i));
    ring = Resource.create "ring";
    station = Array.init n (Config.station_of_proc cfg);
    reads = 0;
    writes = 0;
    atomics = 0;
    cache_hits = 0;
    next_id = 1;
    fault = None;
    verify = None;
    obs = None;
    hooked = false;
    alive = Array.make n true;
    killed_time = Array.make n (-1);
    crashes = 0;
    restarts = 0;
    on_restart = None;
    watch = Array.make n no_wait;
    watch_cell = Array.make n None;
  }

let engine t = t.eng
let config t = t.cfg
let now t = Engine.now t.eng
let n_procs t = Config.n_procs t.cfg

(* -- Elided waits ------------------------------------------------------------

   A processor spinning on its own PMM reserves nothing, and a poll tick
   ({!Ctx.await}, {!Ctx.interruptible_pause}) touches no memory at all, so
   Ctx elides their iterations ({!Engine.elide}) and registers the wait
   here. An IPI to the processor or its death can end either; so can a
   mutation of a spin's cell, or a fault plan that changes its local
   latency. Each of those materialises the wait ({!Engine.materialise}).
   An ivar fill or a deadline ends a poll wait without the machine. *)

let elide_wait ?cell ?until t ~proc w ~at =
  (Option.is_none cell || Option.is_none t.fault)
  (* One elided wait per processor: a second fiber's wait on the same
     processor runs its iterations. *)
  && (not (Engine.is_elided t.watch.(proc)))
  && Engine.elide ?until t.eng w ~at
  &&
  (t.watch.(proc) <- w;
   t.watch_cell.(proc) <- cell;
   true)

let wake t ~proc = Engine.materialise t.eng t.watch.(proc)

let wake_cell t cell =
  let p = Cell.home cell in
  match t.watch_cell.(p) with
  | Some c when c == cell -> Engine.materialise t.eng t.watch.(p)
  | _ -> ()

(* Every value mutation of a cell goes through here: untimed writes, and
   the completions of timed writes and atomics. *)
let poke t cell v =
  Cell.poke cell v;
  wake_cell t cell

let settle t ~proc = Engine.settle t.eng t.watch.(proc)

let settle_all t =
  for p = 0 to Array.length t.watch - 1 do
    settle t ~proc:p
  done

let credit_reads t n = t.reads <- t.reads + n

let reads t =
  settle_all t;
  t.reads

let writes t = t.writes
let atomics t = t.atomics
let cache_hits t = t.cache_hits

(* -- hook sinks -------------------------------------------------------------

   Every lock, reserve-bit, RPC and crash report is one [Verify.event],
   delivered to the checker first (an [`Abort]-mode violation raises before
   the observer sees the event) and then to the observer. A hook site that
   builds an event tests [hooked] first, so with no sink installed it is
   one branch and allocates nothing. *)

let hooked t = t.hooked

let emit t ~proc ~now e =
  (match t.verify with Some v -> Verify.on_event v ~proc ~now e | None -> ());
  match t.obs with Some o -> Obs.on_event o ~proc ~now e | None -> ()

let set_verify t v =
  t.verify <- v;
  t.hooked <- Option.is_some t.verify || Option.is_some t.obs

let verify t = t.verify

let set_obs t o =
  t.obs <- o;
  t.hooked <- Option.is_some t.verify || Option.is_some t.obs

let obs t = t.obs

(* -- fail-stop crashes ---------------------------------------------------- *)

let proc_alive t proc = t.alive.(proc)
let killed_at t proc = t.killed_time.(proc)
let crashes t = t.crashes
let restarts t = t.restarts
let set_restart_handler t f = t.on_restart <- Some f

let revive t proc =
  if not t.alive.(proc) then begin
    t.alive.(proc) <- true;
    t.killed_time.(proc) <- -1;
    t.restarts <- t.restarts + 1;
    (match t.fault with
    | Some plan -> Fault.record_restart plan ~proc ~now:(now t)
    | None -> ());
    emit t ~proc ~now:(now t) Verify.Proc_revived;
    match t.on_restart with Some f -> f proc | None -> ()
  end

(* Kill processor [proc] now. Its fiber is not torn down here — raising
   into it would run cleanup handlers ([Fun.protect] in [with_lock]) and
   politely release everything the processor holds, which is exactly what
   a fail-stop crash must not do. Instead Ctx parks the fiber, resume
   dropped, at its next operation boundary; any events already queued for
   it fire harmlessly into that check. [restart_after] (default: the
   plan's) schedules a revival, making the crash fail-restart. *)
let kill_proc ?restart_after t proc =
  if t.alive.(proc) then begin
    t.alive.(proc) <- false;
    t.killed_time.(proc) <- now t;
    t.crashes <- t.crashes + 1;
    let restart_after =
      match restart_after with
      | Some d -> d
      | None -> ( match t.fault with Some p -> Fault.restart_after p | None -> 0)
    in
    (match t.fault with
    | Some plan -> Fault.record_crash plan ~proc ~now:(now t)
    | None -> ());
    emit t ~proc ~now:(now t) Verify.Proc_crashed;
    wake t ~proc;
    if restart_after > 0 then
      Engine.schedule_after t.eng ~delay:restart_after (fun () ->
          revive t proc)
  end

let set_fault_plan t plan =
  t.fault <- plan;
  (* A plan scales local latency, so an elided spin must see it (an elided
     poll is materialised too, harmlessly). *)
  if Option.is_some plan then
    for p = 0 to n_procs t - 1 do
      wake t ~proc:p
    done;
  (* Arm the plan's scheduled kills as engine events. Each event checks
     that this very plan is still installed when it fires, so clearing or
     replacing the plan disarms a schedule that cannot be unqueued. *)
  match plan with
  | None -> ()
  | Some p ->
      List.iter
        (fun (at, proc) ->
          if proc < n_procs t then
            Engine.schedule t.eng
              ~at:(max at (Engine.now t.eng))
              (fun () ->
                match t.fault with
                | Some q when q == p -> kill_proc t proc
                | _ -> ()))
        (Fault.crash_schedule p)

let fault_plan t = t.fault

let mem_resource t m = t.mem.(m)
let bus_resource t s = t.bus.(s)
let ring_resource t = t.ring

let check_home t home =
  if home < 0 || home >= n_procs t then
    invalid_arg (Printf.sprintf "Machine.alloc: bad home PMM %d" home)

let reserve_ids t n =
  let id = t.next_id in
  t.next_id <- id + n;
  id

let alloc t ?label ~home v =
  check_home t home;
  Cell.create ?label ~id:(reserve_ids t 1) ~home v

let alloc_reserved t ~id ~home v =
  check_home t home;
  Cell.create ~id ~home v

let us_of_cycles t c = Config.us_of_cycles t.cfg c
let cycles_of_us t us = Config.cycles_of_us t.cfg us

(* Base latency of a single memory access, before contention. *)
let base_latency t ~proc ~home =
  let cfg = t.cfg in
  if proc = home then cfg.Config.local_latency
  else if t.station.(proc) = t.station.(home) then
    cfg.Config.station_latency
  else cfg.Config.ring_latency

(* Walk the interconnect path and the memory module, reserving each FIFO
   resource in turn; return the completion time of the access. [atomic]
   read-modify-writes hold the module across both accesses plus a
   turnaround, so lock-word traffic is costlier to the module than the
   same number of plain accesses. *)
let access_finish_time t ~proc ~home ~accesses ~atomic =
  let cfg = t.cfg in
  let start = Engine.now t.eng in
  let sp = t.station.(proc) and sm = t.station.(home) in
  (* Injected hot-spot: the destination PMM may be serving at a multiple of
     its normal latency. 1 when no plan is installed or the PMM is cool, so
     the factor costs nothing when injection is off. *)
  let hot =
    match t.fault with
    | None -> 1
    | Some plan -> Fault.hotspot_factor plan ~pmm:home ~now:start
  in
  (* A processor's accesses to its own PMM go through a dedicated local
     port: the processor is sequential, so it cannot contend with itself,
     and local spinning must stay harmless — that is the property of
     distributed locks the paper builds on. Local accesses therefore pay
     the base latency but reserve no shared resource. *)
  if proc = home then start + (cfg.Config.local_latency * accesses * hot)
  else begin
  (* An atomic makes [accesses] full memory accesses, each a separate
     transaction on the buses and ring, so every occupancy scales with
     [accesses]. *)
  let path = ref start in
  if sp <> sm then begin
    path :=
      Resource.reserve t.bus.(sp) ~now:!path
        ~service:(cfg.Config.bus_service * accesses);
    path :=
      Resource.reserve t.ring ~now:!path
        ~service:(cfg.Config.ring_service * accesses);
    path :=
      Resource.reserve t.bus.(sm) ~now:!path
        ~service:(cfg.Config.bus_service * accesses)
  end
  else if proc <> home then
    path :=
      Resource.reserve t.bus.(sp) ~now:!path
        ~service:(cfg.Config.bus_service * accesses);
  let service =
    ((cfg.Config.mem_service * accesses)
    + (if atomic then cfg.Config.atomic_module_overhead else 0))
    * hot
  in
  path := Resource.reserve t.mem.(home) ~now:!path ~service;
  let base = base_latency t ~proc ~home * accesses * hot in
  Int.max !path (start + base)
  end

(* Perform one timed access and suspend until it completes. The value
   operation [op] runs at completion time, which orders conflicting
   operations by their service order at the memory module. *)
let timed_access t ~proc cell ~accesses ?(atomic = false) op =
  let finish =
    access_finish_time t ~proc ~home:(Cell.home cell) ~accesses ~atomic
  in
  Process.wait_until t.eng finish;
  op ()

(* Hardware cache coherence (Section 5.2 discussion, NUMAchine preset):
   a read hits in the local cache if the processor holds a valid copy; a
   write or atomic is cheap only if the processor already holds the line
   exclusively, and otherwise pays the full memory access and invalidates
   every other copy. Invalidation traffic itself is abstracted (zero
   occupancy); the first-order effect — misses and exclusivity transfers
   costing tens of cached operations — is what the model needs. *)

let cache_hit t = Process.pause t.eng t.cfg.Config.cache_hit

(* A read in two halves, so a waiter that spins from engine events
   ({!Ctx.spin_while}) shares this one definition. [read_start] counts the
   read and starts it: it returns the time a miss completes, or -1 for a
   coherent cache hit, which takes [cache_hit] cycles and leaves the line
   as it is. [read_finish] completes a miss at that time. *)
let read_start t ~proc cell =
  t.reads <- t.reads + 1;
  if t.cfg.Config.cache_coherent && Cell.cached_by cell proc then begin
    t.cache_hits <- t.cache_hits + 1;
    -1
  end
  else
    access_finish_time t ~proc ~home:(Cell.home cell) ~accesses:1
      ~atomic:false

let read_finish t ~proc cell =
  if t.cfg.Config.cache_coherent then begin
    (* A read copy downgrades any exclusive holder. *)
    Cell.cache_drop_exclusive cell;
    Cell.cache_fill cell proc
  end;
  Cell.peek cell

let read t ~proc cell =
  let finish = read_start t ~proc cell in
  if finish < 0 then begin
    cache_hit t;
    Cell.peek cell
  end
  else begin
    Process.wait_until t.eng finish;
    read_finish t ~proc cell
  end

let write t ~proc cell v =
  t.writes <- t.writes + 1;
  if t.cfg.Config.cache_coherent && Cell.exclusive_of cell = proc then begin
    t.cache_hits <- t.cache_hits + 1;
    cache_hit t;
    poke t cell v
  end
  else
    timed_access t ~proc cell ~accesses:1 (fun () ->
        if t.cfg.Config.cache_coherent then Cell.cache_take_exclusive cell proc;
        poke t cell v)

let fetch_and_store t ~proc cell v =
  t.atomics <- t.atomics + 1;
  if t.cfg.Config.cache_coherent && Cell.exclusive_of cell = proc then begin
    (* Cache-based atomic on an exclusively held line: close to a regular
       access. *)
    t.cache_hits <- t.cache_hits + 1;
    cache_hit t;
    let old = Cell.peek cell in
    poke t cell v;
    old
  end
  else
    timed_access t ~proc cell ~accesses:t.cfg.Config.atomic_mem_accesses
      ~atomic:true
      (fun () ->
        if t.cfg.Config.cache_coherent then Cell.cache_take_exclusive cell proc;
        let old = Cell.peek cell in
        poke t cell v;
        old)

let test_and_set t ~proc cell = fetch_and_store t ~proc cell 1

let compare_and_swap t ~proc cell ~expect ~set =
  if not t.cfg.Config.has_cas then
    failwith "Machine.compare_and_swap: machine has no compare-and-swap";
  t.atomics <- t.atomics + 1;
  if t.cfg.Config.cache_coherent && Cell.exclusive_of cell = proc then begin
    t.cache_hits <- t.cache_hits + 1;
    cache_hit t;
    if Cell.peek cell = expect then begin
      poke t cell set;
      true
    end
    else false
  end
  else
    timed_access t ~proc cell ~accesses:t.cfg.Config.atomic_mem_accesses
      ~atomic:true
      (fun () ->
        if t.cfg.Config.cache_coherent then Cell.cache_take_exclusive cell proc;
        if Cell.peek cell = expect then begin
          poke t cell set;
          true
        end
        else false)

let cpu_work t cycles = Process.pause t.eng cycles

