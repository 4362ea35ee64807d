(* Sustained-request SLO stream (the SLO experiment).

   Every other workload in this directory is closed-loop: p processors
   issue an operation, wait for it, think, repeat — so the offered load
   falls automatically when the system slows down, and tail latency is
   bounded by construction. A service serving heavy user traffic is the
   opposite: requests arrive on their own clock (open loop), queue behind
   the processor that must serve them, and the latency a user sees is
   queueing delay plus service time. That is the regime where p50/p99/p99.9
   percentiles mean something, and it is the ROADMAP's million-user axis.

   The workload: a sharded {!Hkernel.Khash} pre-populated with [elements]
   keys (the headline configuration uses 10^6). Requests arrive in an open
   loop — exponential inter-arrival times at a total offered rate of
   [rate_per_ms] requests per virtual millisecond — and each is dispatched
   to a uniformly random server processor, modelling an unaware front-end.
   Each server drains its FIFO backlog: a request is a read-mostly table
   operation (optimistic seqlock lookup of a uniform key, or an in-place
   update through [with_element] with [element_work_us] of work). Latency
   is measured arrival-to-completion, so it includes time spent queued
   behind earlier requests on the same server — push the offered rate past
   the table's capacity and the p99/p99.9 climb long before the mean does.

   The run is always instrumented: a {!Verify} checker (the experiment
   requires zero violations) and an {!Obs} observer grouped by HECTOR
   station. The arrival queues are host-side request buffers (the NIC ring,
   not simulated kernel memory); every table access inside a request is
   charged through [Ctx] as usual. *)

open Eventsim
open Hector
open Locks
open Hkernel

type config = {
  p : int; (* server processors *)
  elements : int; (* keys pre-inserted; requests target these *)
  nbins : int;
  shards : int;
  rate_per_ms : float; (* total offered load, requests per virtual ms *)
  requests : int; (* arrivals generated *)
  read_ratio : float; (* fraction of requests that are lookups *)
  element_work_us : float; (* update work under the element *)
  lock_algo : Lock.algo;
  seed : int;
}

let default_config =
  {
    p = 16;
    elements = 1_000_000;
    nbins = 1 lsl 17;
    shards = 16;
    rate_per_ms = 350.0;
    requests = 4_000;
    read_ratio = 0.9;
    element_work_us = 2.0;
    lock_algo = Lock.Mcs_h2;
    seed = 31;
  }

type result = {
  offered_per_ms : float;
  completed : int; (* always [config.requests]: the stream drains *)
  read_summary : Measure.summary; (* arrival-to-completion, reads *)
  update_summary : Measure.summary; (* arrival-to-completion, updates *)
  makespan_us : float;
  achieved_per_ms : float; (* completed / makespan *)
  peak_backlog : int; (* max requests queued (all servers) at any instant *)
  optimistic_hits : int;
  optimistic_fallbacks : int;
  atomics : int;
  lockdep_violations : int; (* must be 0 *)
  obs_rows : Obs.row list;
}

type request = { t_arrival : int; is_read : bool; key : int }

let run ?(cfg = Config.hector) ?(config = default_config) () =
  if config.read_ratio < 0.0 || config.read_ratio > 1.0 then
    invalid_arg "Slo_stream.run: read_ratio out of [0,1]";
  if config.rate_per_ms <= 0.0 then
    invalid_arg "Slo_stream.run: rate_per_ms must be positive";
  if config.requests <= 0 then
    invalid_arg "Slo_stream.run: requests must be positive";
  if config.elements <= 0 then
    invalid_arg "Slo_stream.run: elements must be positive";
  if config.p <= 0 || config.p > Config.n_procs cfg then
    invalid_arg "Slo_stream.run: p out of range for the machine";
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let verify = Verify.create ~n_procs:(Config.n_procs cfg) () in
  Machine.set_verify machine (Some verify);
  let n_stations =
    let m = ref 0 in
    for proc = 0 to Config.n_procs cfg - 1 do
      m := max !m (Config.station_of_proc cfg proc)
    done;
    !m + 1
  in
  let obs =
    Obs.create
      ~cluster_of:(Config.station_of_proc cfg)
      ~n_clusters:n_stations ~n_procs:(Config.n_procs cfg) ()
  in
  Machine.set_obs machine (Some obs);
  let homes = List.init config.p (fun i -> i) in
  let table =
    Khash.create machine ~granularity:Khash.Sharded ~nbins:config.nbins
      ~shards:config.shards ~vname:"slo" ~lock_algo:config.lock_algo ~homes
  in
  for k = 0 to config.elements - 1 do
    ignore (Khash.insert_untimed table k ~status0:0 ~make:(fun _ -> ()))
  done;
  let rng0 = Rng.create config.seed in
  let rng_arrival = Rng.split rng0 in
  (* Open-loop arrival plan, generated up front so every server knows how
     many requests it owes before the engine starts (clean termination
     without sentinels). Exponential inter-arrival gaps at the offered
     rate; dispatch is uniformly random over the servers. *)
  let mean_gap_cycles =
    float_of_int (Config.cycles_of_us cfg (1000.0 /. config.rate_per_ms))
  in
  let assigned = Array.make config.p 0 in
  let plan =
    let t = ref 0.0 in
    Array.init config.requests (fun _ ->
        let u = Rng.float rng_arrival in
        t := !t +. (-.log (1.0 -. u) *. mean_gap_cycles);
        let server = Rng.int rng_arrival config.p in
        let is_read = Rng.float rng_arrival < config.read_ratio in
        let key = Rng.int rng_arrival config.elements in
        assigned.(server) <- assigned.(server) + 1;
        (int_of_float !t, server, is_read, key))
  in
  let queues = Array.init config.p (fun _ -> Queue.create ()) in
  let parked : (unit -> unit) option array = Array.make config.p None in
  let backlog = ref 0 in
  let peak_backlog = ref 0 in
  Array.iter
    (fun (at, server, is_read, key) ->
      Engine.schedule eng ~at (fun () ->
          Queue.add { t_arrival = at; is_read; key } queues.(server);
          incr backlog;
          if !backlog > !peak_backlog then peak_backlog := !backlog;
          match parked.(server) with
          | Some resume ->
            parked.(server) <- None;
            resume ()
          | None -> ()))
    plan;
  let read_stat = Stat.create "slo-read" in
  let update_stat = Stat.create "slo-update" in
  let work = Config.cycles_of_us cfg config.element_work_us in
  for proc = 0 to config.p - 1 do
    let ctx = Ctx.create machine ~proc (Rng.split rng0) in
    Process.spawn eng (fun () ->
        let served = ref 0 in
        while !served < assigned.(proc) do
          match Queue.take_opt queues.(proc) with
          | None -> Process.suspend (fun k -> parked.(proc) <- Some k)
          | Some req ->
            decr backlog;
            (if req.is_read then begin
               let r = Khash.lookup table ctx req.key in
               assert (r <> None);
               Stat.add read_stat (Machine.now machine - req.t_arrival)
             end
             else begin
               let r =
                 Khash.with_element table ctx req.key (fun _ ->
                     Ctx.work ctx work)
               in
               assert (r <> None);
               Stat.add update_stat (Machine.now machine - req.t_arrival)
             end);
            incr served
        done)
  done;
  Engine.run eng;
  Verify.finish verify ~now:(Machine.now machine);
  assert (!backlog = 0);
  Array.iter (fun q -> assert (Queue.is_empty q)) queues;
  let makespan_us = Config.us_of_cycles cfg (Machine.now machine) in
  {
    offered_per_ms = config.rate_per_ms;
    completed = Stat.count read_stat + Stat.count update_stat;
    read_summary = Measure.of_stat cfg ~label:"slo-read" read_stat;
    update_summary = Measure.of_stat cfg ~label:"slo-update" update_stat;
    makespan_us;
    achieved_per_ms =
      (if makespan_us > 0.0 then
         float_of_int config.requests /. (makespan_us /. 1000.0)
       else 0.0);
    peak_backlog = !peak_backlog;
    optimistic_hits = Khash.optimistic_hits table;
    optimistic_fallbacks = Khash.optimistic_fallbacks table;
    atomics = Machine.atomics machine;
    lockdep_violations = Verify.violation_count verify;
    obs_rows = Obs.profile_rows obs;
  }
