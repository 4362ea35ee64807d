(* Machine configuration.

   The defaults describe the HECTOR prototype used in the paper: 16 MHz
   MC88100 processors, 4 processor-memory modules (PMMs) per station bus,
   4 stations connected by a ring. Memory access costs 10 cycles on-board,
   19 on-station and 23 across the ring; the only atomic primitive is swap,
   which makes two memory accesses. *)

type t = {
  stations : int;
  procs_per_station : int;
  mhz : int;
  local_latency : int; (* cycles, processor to its own PMM *)
  station_latency : int; (* cycles, to another PMM on the same station *)
  ring_latency : int; (* cycles, to a PMM on another station *)
  mem_service : int; (* cycles a memory module is occupied per access *)
  bus_service : int; (* cycles a station bus is occupied per transfer *)
  ring_service : int; (* cycles the ring is occupied per transfer *)
  atomic_mem_accesses : int; (* swap = 2 memory accesses on HECTOR *)
  atomic_module_overhead : int;
      (* extra cycles the module stays locked across an RMW (read-modify-
         write turnaround), beyond its per-access service *)
  has_cas : bool; (* compare-and-swap available (false on HECTOR) *)
  reg_cost : int; (* cycles per register-to-register instruction *)
  branch_cost : int; (* cycles per branch instruction *)
  atomic_overlap : int;
      (* cycles of post-fetch&store instructions that overlap with the store
         phase of the swap (the MC88100 proceeds once the fetch completes) *)
  irq_entry : int; (* cycles to enter an interrupt handler *)
  irq_exit : int; (* cycles to return from an interrupt handler *)
  cache_coherent : bool; (* hardware cache coherence (Section 5.2) *)
  cache_hit : int; (* cycles for a cache hit / cached atomic *)
}

let hector =
  {
    stations = 4;
    procs_per_station = 4;
    mhz = 16;
    local_latency = 10;
    station_latency = 19;
    ring_latency = 23;
    mem_service = 9;
    bus_service = 5;
    ring_service = 7;
    atomic_mem_accesses = 2;
    atomic_module_overhead = 22;
    has_cas = false;
    reg_cost = 1;
    branch_cost = 2;
    atomic_overlap = 5;
    irq_entry = 60;
    irq_exit = 30;
    cache_coherent = false;
    cache_hit = 2;
  }

(* A hypothetical "modern" variant used by the Section 5.2 discussion:
   compare-and-swap available, single-access atomics. *)
let with_cas cfg = { cfg with has_cas = true; atomic_mem_accesses = 1 }

(* The Section 5.3 target: NUMAchine, an order of magnitude faster
   processors, hardware cache coherence and cache-based LL/SC (modelled as
   CAS). Memory is relatively much further away: a miss costs what 10-20
   cached lock operations do. *)
let numachine =
  {
    stations = 4;
    procs_per_station = 4;
    mhz = 150;
    local_latency = 40;
    station_latency = 60;
    ring_latency = 80;
    mem_service = 20;
    bus_service = 8;
    ring_service = 10;
    atomic_mem_accesses = 1;
    atomic_module_overhead = 10;
    has_cas = true;
    reg_cost = 1;
    branch_cost = 1;
    atomic_overlap = 0;
    irq_entry = 100;
    irq_exit = 60;
    cache_coherent = true;
    cache_hit = 2;
  }

let n_procs cfg = cfg.stations * cfg.procs_per_station

let validate cfg =
  if cfg.stations <= 0 then invalid_arg "Config: stations must be positive";
  if cfg.procs_per_station <= 0 then
    invalid_arg "Config: procs_per_station must be positive";
  if cfg.mhz <= 0 then invalid_arg "Config: mhz must be positive";
  if cfg.local_latency <= 0 || cfg.station_latency < cfg.local_latency
     || cfg.ring_latency < cfg.station_latency
  then invalid_arg "Config: latencies must be positive and non-decreasing";
  if cfg.atomic_mem_accesses <= 0 then
    invalid_arg "Config: atomic_mem_accesses must be positive";
  List.iter
    (fun (name, v) ->
      if v < 0 then
        invalid_arg
          (Printf.sprintf "Config: %s must not be negative (got %d)" name v))
    [
      ("mem_service", cfg.mem_service);
      ("bus_service", cfg.bus_service);
      ("ring_service", cfg.ring_service);
      ("atomic_module_overhead", cfg.atomic_module_overhead);
      ("reg_cost", cfg.reg_cost);
      ("branch_cost", cfg.branch_cost);
      ("atomic_overlap", cfg.atomic_overlap);
      ("irq_entry", cfg.irq_entry);
      ("irq_exit", cfg.irq_exit);
      ("cache_hit", cfg.cache_hit);
    ];
  (* A cache-hit spin iteration would take no simulated time: the spin
     would loop on the host forever with the clock standing still. *)
  if cfg.cache_coherent && cfg.cache_hit + cfg.branch_cost = 0 then
    invalid_arg
      "Config: a coherent machine needs cache_hit + branch_cost > 0 (a \
       cache-hit spin iteration would take no time)";
  (* Cache-coherence state ([Cell.cached_by]) and page-directory sharer
     sets ([Page.sharer_bit]) are one-word bitmasks indexed by processor
     and cluster id; [1 lsl id] is unspecified for [id >= Sys.int_size],
     so larger machines would alias silently. *)
  if n_procs cfg > Sys.int_size then
    invalid_arg
      (Printf.sprintf
         "Config: %d processors exceed the %d-bit processor bitmask \
          (Sys.int_size)"
         (n_procs cfg) Sys.int_size);
  cfg

(* Each PMM pairs one processor with one memory module, so the PMM id of a
   processor is the processor id itself. *)
let station_of_proc cfg p = p / cfg.procs_per_station
let index_in_station cfg p = p mod cfg.procs_per_station

let us_of_cycles cfg c = float_of_int c /. float_of_int cfg.mhz
let cycles_of_us cfg us = int_of_float (us *. float_of_int cfg.mhz)

let pp ppf cfg =
  Format.fprintf ppf
    "%d stations x %d procs at %d MHz (lat %d/%d/%d, svc mem=%d bus=%d \
     ring=%d)"
    cfg.stations cfg.procs_per_station cfg.mhz cfg.local_latency
    cfg.station_latency cfg.ring_latency cfg.mem_service cfg.bus_service
    cfg.ring_service
