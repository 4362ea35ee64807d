(* The benchmark's drivers: the SHARED-FAULTS, NUMA-LOCKS and SLO workload
   programs, rebuilt here from the public functions of each layer so the
   benchmark can time set-up and [Engine.run] apart, count each layer's
   work, and open trace spans around the calls.

   Each driver returns the experiment's own result record
   ([Shared_faults.result], [Numa_stress.result], [Slo_stream.result]),
   built exactly as the workload module builds it; the benchmark's tests
   check that it equals the workload's [run] for the same config. The
   extra bookkeeping (host clock reads, span sites, latency samples) is
   host-side only and never touches simulated time. *)

open Eventsim
open Hector
open Locks
open Hkernel
open Workloads

let cfg = Config.hector
let now = Unix.gettimeofday

(* What one cell measured besides its simulated result. *)
type metrics = {
  setup_s : float;  (** Engine.create through the last spawn *)
  run_s : float;  (** inside Engine.run *)
  build_s : float;  (** the part of set-up spent building Khash tables *)
  minor_words : float;  (** allocated inside Engine.run *)
  counts : (string * int) list;  (** exact layer counts *)
  samples : (string * int list) list;  (** simulated latencies, cycles *)
  problems : string list;  (** broken workload invariants *)
}

type 'r cell = { result : 'r; m : metrics }

let cell_span tr =
  Span.enter tr ~name:"cell" ~parent:(-1) ~req:(-1) ~tid:0 ~fiber:false ~sim:0

let setup_span tr ~root =
  Span.enter tr ~name:"setup" ~parent:root ~req:(-1) ~tid:0 ~fiber:false
    ~sim:0

(* [Engine.run] under the host clock and the GC counters. Fibers parent
   their spans on [!run_span], which is set before the first event. *)
let timed_run tr eng ~root ~run_span =
  run_span :=
    Span.enter tr ~name:"engine.run" ~parent:root ~req:(-1) ~tid:0
      ~fiber:false ~sim:0;
  let words0 = Gc.minor_words () in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now () in
  Engine.run eng;
  let run_s = now () -. t0 in
  let words = Gc.minor_words () -. words0 in
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  Span.leave tr !run_span ~sim:(Engine.now eng);
  Span.leave tr root ~sim:(Engine.now eng);
  Span.advance tr ~sim_end:(Engine.now eng);
  ( run_s,
    words,
    [
      ("eventsim.events", Engine.events_executed eng);
      ("eventsim.major_collections", majors);
    ] )

let hector_counts machine =
  let q = ref (Resource.queued_cycles (Machine.ring_resource machine)) in
  for i = 0 to Machine.n_procs machine - 1 do
    q := !q + Resource.queued_cycles (Machine.mem_resource machine i)
  done;
  for s = 0 to cfg.Config.stations - 1 do
    q := !q + Resource.queued_cycles (Machine.bus_resource machine s)
  done;
  [
    ( "hector.mem_ops",
      Machine.reads machine + Machine.writes machine + Machine.atomics machine
    );
    ("hector.queued_sim_cycles", !q);
  ]

(* A lockdep checker and a contention observer, as the SLO and NUMA-LOCKS
   experiments install them; the fault sweep runs without them. *)
let install_hooks machine ~cluster_of ~n_clusters =
  let n_procs = Config.n_procs cfg in
  let verify = Verify.create ~n_procs () in
  Machine.set_verify machine (Some verify);
  let obs = Obs.create ~cluster_of ~n_clusters ~n_procs () in
  Machine.set_obs machine (Some obs);
  (verify, obs)

let handoff_counts rows =
  let l, r =
    List.fold_left
      (fun (l, r) (row : Obs.row) ->
        ( l + row.Obs.total.Obs.handoffs_local,
          r + row.Obs.total.Obs.handoffs_remote ))
      (0, 0) rows
  in
  [ ("locks.local_handoffs", l); ("locks.remote_handoffs", r) ]

let lock_checks locks =
  let acqs = List.fold_left (fun a (l : Lock.t) -> a + !(l.Lock.acquires)) 0 locks in
  ( [ ("locks.acquisitions", acqs) ],
    List.filter_map
      (fun (l : Lock.t) ->
        if l.Lock.is_free () then None
        else Some (Printf.sprintf "lock %s held at the end" l.Lock.name))
      locks )

(* -- SHARED-FAULTS (Figure 7d) ---------------------------------------------- *)

let fault_cell ?trace:tr ~hooks (config : Shared_faults.config) =
  let open Shared_faults in
  let root = cell_span tr in
  let t0 = now () in
  let sp = setup_span tr ~root in
  let eng = Span.phase tr ~parent:sp "engine.create" Engine.create in
  let machine =
    Span.phase tr ~parent:sp "machine.create" (fun () -> Machine.create eng cfg)
  in
  let obs =
    if hooks then begin
      let c =
        Clustering.create ~n_procs:(Config.n_procs cfg)
          ~cluster_size:config.cluster_size
      in
      let _, obs =
        install_hooks machine ~cluster_of:(Clustering.cluster_of_proc c)
          ~n_clusters:(Clustering.n_clusters c)
      in
      Some obs
    end
    else None
  in
  let kernel =
    Span.phase tr ~parent:sp "kernel.create" (fun () ->
        Kernel.create machine ~cluster_size:config.cluster_size
          ~lock_algo:config.lock_algo ~seed:config.seed)
  in
  Span.phase tr ~parent:sp "kernel.populate_page" (fun () ->
      for j = 0 to config.n_pages - 1 do
        Kernel.populate_page kernel ~vpage:(vpage_of j) ~master_cluster:0
          ~frame:(vpage_of j)
      done);
  let active = List.init config.p (fun p -> p) in
  let stat = Stat.create "shared" in
  let run_span = ref (-1) in
  Span.phase tr ~parent:sp "spawn" (fun () ->
      Kernel.spawn_idle_except kernel ~active;
      let barrier = Barrier.create ~parties:config.p in
      List.iter
        (fun proc ->
          let ctx = Kernel.ctx kernel proc in
          let op name ~req f =
            let s =
              Span.enter tr ~name ~parent:!run_span ~req ~tid:proc ~fiber:true
                ~sim:(Machine.now machine)
            in
            f ();
            Span.leave tr s ~sim:(Machine.now machine)
          in
          Process.spawn eng (fun () ->
              for round = 1 to config.rounds do
                (* One request id per processor, round and phase. *)
                let req = 2 * ((proc * config.rounds) + round) in
                for j = 0 to config.n_pages - 1 do
                  let vpage = vpage_of j in
                  let t0 = Machine.now machine in
                  let s =
                    Span.enter tr ~name:"memmgr.fault" ~parent:!run_span ~req
                      ~tid:proc ~fiber:true ~sim:t0
                  in
                  Memmgr.fault kernel ctx ~vpage ~write:true;
                  let t1 = Machine.now machine in
                  Span.leave tr s ~sim:t1;
                  Stat.add stat (t1 - t0)
                done;
                op "barrier.wait" ~req (fun () -> Barrier.wait barrier ctx);
                for j = 0 to config.n_pages - 1 do
                  op "memmgr.unmap" ~req:(req + 1) (fun () ->
                      Memmgr.unmap kernel ctx ~vpage:(vpage_of j))
                done;
                op "barrier.wait" ~req:(req + 1) (fun () ->
                    Barrier.wait barrier ctx)
              done;
              (* Finished workers keep serving incoming RPCs. *)
              Ctx.idle_loop ctx))
        active);
  Span.leave tr sp ~sim:0;
  let setup_s = now () -. t0 in
  let run_s, minor_words, engine_counts = timed_run tr eng ~root ~run_span in
  let clusters =
    List.init
      (Clustering.n_clusters (Kernel.clustering kernel))
      (Kernel.cluster kernel)
  in
  let reserve_conflicts =
    List.fold_left
      (fun acc c -> acc + Khash.reserve_conflicts c.Kernel.page_hash)
      0 clusters
  in
  let result =
    {
      summary =
        Measure.of_stat cfg ~label:(Lock.algo_name config.lock_algo) stat;
      faults = Kernel.faults kernel;
      retries = Kernel.retries kernel;
      rpcs = Rpc.calls (Kernel.rpc kernel);
      replications = Kernel.replications kernel;
      invalidations = Kernel.invalidations kernel;
      reserve_conflicts;
    }
  in
  let lock_count, busy =
    lock_checks
      (List.concat_map
         (fun c ->
           [
             c.Kernel.as_lock;
             c.Kernel.region_lock;
             c.Kernel.fcm_lock;
             Khash.coarse_lock c.Kernel.page_hash;
           ])
         clusters
      @ List.concat
          (List.init (Kernel.n_procs kernel) (fun p ->
               [ Kernel.proc_desc_lock kernel p; Kernel.pte_lock kernel p ])))
  in
  let expected = config.p * config.rounds * config.n_pages in
  let problems =
    (if result.faults <> expected || Stat.count stat <> expected then
       [
         Printf.sprintf "faults %d (timed %d), expected p*rounds*pages = %d"
           result.faults (Stat.count stat) expected;
       ]
     else [])
    @ busy
  in
  {
    result;
    m =
      {
        setup_s;
        run_s;
        build_s = 0.0;
        minor_words;
        counts =
          engine_counts @ hector_counts machine @ lock_count
          @ (match obs with
            | Some o -> handoff_counts (Obs.profile_rows o)
            | None -> [])
          @ [
              ("hkernel.faults", result.faults);
              ("hkernel.rpcs", result.rpcs);
              ("hkernel.retries", result.retries);
              ("hkernel.replications", result.replications);
              ("hkernel.invalidations", result.invalidations);
              ("hkernel.reserve_conflicts", result.reserve_conflicts);
            ];
        samples = [ ("hkernel.fault", Stat.to_list stat) ];
        problems;
      };
  }

(* -- NUMA-LOCKS ------------------------------------------------------------- *)

(* The lock's profiling class in [Numa_stress]; a composite's constituents
   report under "<class>.local" / "<class>.global" and stay out of the
   hand-off accounting. *)
let obs_class = "numa"

let numa_cell ?trace:tr ~hooks (config : Numa_stress.config) algo =
  let open Numa_stress in
  let root = cell_span tr in
  let t0 = now () in
  let sp = setup_span tr ~root in
  let eng = Span.phase tr ~parent:sp "engine.create" Engine.create in
  let machine =
    Span.phase tr ~parent:sp "machine.create" (fun () -> Machine.create eng cfg)
  in
  let clustering =
    Clustering.create ~n_procs:config.p
      ~cluster_size:((config.p + config.n_clusters - 1) / config.n_clusters)
  in
  let obs =
    if hooks then
      (* The experiment installs only the observer. *)
      let obs =
        Obs.create
          ~cluster_of:(Clustering.cluster_of_proc clustering)
          ~n_clusters:(Clustering.n_clusters clustering)
          ~n_procs:(Config.n_procs cfg) ()
      in
      Machine.set_obs machine (Some obs);
      Some obs
    else None
  in
  let lock =
    Span.phase tr ~parent:sp "lock.make" (fun () ->
        Lock.make machine ~home:0 ~vclass:obs_class
          ~topo:(Clustering.topo clustering) algo)
  in
  let hold = Config.cycles_of_us cfg config.hold_us in
  let think = Config.cycles_of_us cfg config.think_us in
  let warmup = Config.cycles_of_us cfg config.warmup_us in
  let t_end = warmup + Config.cycles_of_us cfg config.window_us in
  let stat = Stat.create (Lock.algo_name algo) in
  let waits = Stat.create "wait" in
  let data = Array.init 8 (fun i -> Machine.alloc machine ~home:0 i) in
  let rng = Rng.create config.seed in
  let acquisitions = ref 0 in
  let run_span = ref (-1) in
  Span.phase tr ~parent:sp "spawn" (fun () ->
      for proc = 0 to config.p - 1 do
        let ctx = Ctx.create machine ~proc (Rng.split rng) in
        Process.spawn eng (fun () ->
            let rec loop n =
              if Machine.now machine < t_end then begin
                (* One request id per acquisition: acquire and release. *)
                let req = (n * config.p) + proc in
                let t0 = Machine.now machine in
                let s =
                  Span.enter tr ~name:"lock.acquire" ~parent:!run_span ~req
                    ~tid:proc ~fiber:true ~sim:t0
                in
                lock.Lock.acquire ctx;
                let t_in = Machine.now machine in
                Span.leave tr s ~sim:t_in;
                if hold > 0 then begin
                  let accesses = max 1 (hold / 40) in
                  for i = 1 to accesses do
                    let c = data.(i land 7) in
                    if i land 1 = 0 then ignore (Ctx.read ctx c)
                    else Ctx.write ctx c i;
                    Ctx.work ctx 14
                  done;
                  let spent = Machine.now machine - t_in in
                  if spent < hold then Ctx.work ctx (hold - spent)
                end;
                let t_out = Machine.now machine in
                let s =
                  Span.enter tr ~name:"lock.release" ~parent:!run_span ~req
                    ~tid:proc ~fiber:true ~sim:t_out
                in
                lock.Lock.release ctx;
                let t_done = Machine.now machine in
                Span.leave tr s ~sim:t_done;
                if t0 >= warmup then begin
                  incr acquisitions;
                  Stat.add stat (t_done - t0 - (t_out - t_in));
                  Stat.add waits (t_in - t0)
                end;
                if think > 0 then
                  Ctx.work ctx
                    ((think / 2) + Rng.int (Ctx.rng ctx) (max 1 think));
                loop (n + 1)
              end
            in
            loop 0)
      done);
  Span.leave tr sp ~sim:0;
  let setup_s = now () -. t0 in
  let run_s, minor_words, engine_counts = timed_run tr eng ~root ~run_span in
  let rows = match obs with Some o -> Obs.profile_rows o | None -> [] in
  let local_handoffs, remote_handoffs, max_wait_cycles =
    match
      List.find_opt (fun (r : Obs.row) -> r.Obs.row_class = obs_class) rows
    with
    | Some r ->
      ( r.Obs.total.Obs.handoffs_local,
        r.Obs.total.Obs.handoffs_remote,
        r.Obs.total.Obs.max_wait_cycles )
    | None -> (0, 0, 0)
  in
  let result =
    {
      summary = Measure.of_stat cfg ~label:(Lock.algo_name algo) stat;
      acquisitions = !acquisitions;
      local_handoffs;
      remote_handoffs;
      max_wait_us = Config.us_of_cycles cfg max_wait_cycles;
      atomics = Machine.atomics machine;
    }
  in
  let lock_count, busy = lock_checks [ lock ] in
  {
    result;
    m =
      {
        setup_s;
        run_s;
        build_s = 0.0;
        minor_words;
        counts =
          engine_counts @ hector_counts machine @ lock_count
          @ [
              ("locks.local_handoffs", local_handoffs);
              ("locks.remote_handoffs", remote_handoffs);
            ];
        samples = [ ("locks.wait", Stat.to_list waits) ];
        problems =
          (if !acquisitions = 0 then [ "no acquisition in the window" ] else [])
          @ busy;
      };
  }

(* -- SLO -------------------------------------------------------------------- *)

type request = { t_arrival : int; is_read : bool; key : int; id : int }

let slo_cell ?trace:tr ~hooks (config : Slo_stream.config) =
  let open Slo_stream in
  let root = cell_span tr in
  let t0 = now () in
  let sp = setup_span tr ~root in
  let eng = Span.phase tr ~parent:sp "engine.create" Engine.create in
  let machine =
    Span.phase tr ~parent:sp "machine.create" (fun () -> Machine.create eng cfg)
  in
  let hooks =
    if hooks then begin
      let n_stations =
        let m = ref 0 in
        for proc = 0 to Config.n_procs cfg - 1 do
          m := max !m (Config.station_of_proc cfg proc)
        done;
        !m + 1
      in
      Some
        (install_hooks machine ~cluster_of:(Config.station_of_proc cfg)
           ~n_clusters:n_stations)
    end
    else None
  in
  let homes = List.init config.p (fun i -> i) in
  let b0 = now () in
  let table =
    Span.phase tr ~parent:sp "khash.create" (fun () ->
        Khash.create machine ~granularity:Khash.Sharded ~nbins:config.nbins
          ~shards:config.shards ~vname:"slo" ~lock_algo:config.lock_algo ~homes)
  in
  Span.phase tr ~parent:sp "khash.insert_untimed" (fun () ->
      for k = 0 to config.elements - 1 do
        ignore (Khash.insert_untimed table k ~status0:0 ~make:(fun _ -> ()))
      done);
  let build_s = now () -. b0 in
  let rng0 = Rng.create config.seed in
  let rng_arrival = Rng.split rng0 in
  let mean_gap_cycles =
    float_of_int (Config.cycles_of_us cfg (1000.0 /. config.rate_per_ms))
  in
  let assigned = Array.make config.p 0 in
  let plan =
    Span.phase tr ~parent:sp "arrival_plan" (fun () ->
        let t = ref 0.0 in
        Array.init config.requests (fun _ ->
            let u = Rng.float rng_arrival in
            t := !t +. (-.log (1.0 -. u) *. mean_gap_cycles);
            let server = Rng.int rng_arrival config.p in
            let is_read = Rng.float rng_arrival < config.read_ratio in
            let key = Rng.int rng_arrival config.elements in
            assigned.(server) <- assigned.(server) + 1;
            (int_of_float !t, server, is_read, key)))
  in
  let queues = Array.init config.p (fun _ -> Queue.create ()) in
  let parked : (unit -> unit) option array = Array.make config.p None in
  let backlog = ref 0 in
  let peak_backlog = ref 0 in
  let read_stat = Stat.create "slo-read" in
  let update_stat = Stat.create "slo-update" in
  let queue_stat = Stat.create "slo-queue" in
  let service_stat = Stat.create "slo-service" in
  let work = Config.cycles_of_us cfg config.element_work_us in
  let run_span = ref (-1) in
  Span.phase tr ~parent:sp "spawn" (fun () ->
      Array.iteri
        (fun id (at, server, is_read, key) ->
          Engine.schedule eng ~at (fun () ->
              Queue.add { t_arrival = at; is_read; key; id } queues.(server);
              incr backlog;
              if !backlog > !peak_backlog then peak_backlog := !backlog;
              match parked.(server) with
              | Some resume ->
                parked.(server) <- None;
                resume ()
              | None -> ()))
        plan;
      for proc = 0 to config.p - 1 do
        let ctx = Ctx.create machine ~proc (Rng.split rng0) in
        Process.spawn eng (fun () ->
            let served = ref 0 in
            while !served < assigned.(proc) do
              match Queue.take_opt queues.(proc) with
              | None -> Process.suspend (fun k -> parked.(proc) <- Some k)
              | Some req ->
                decr backlog;
                let t_deq = Machine.now machine in
                Span.record tr ~name:"slo.queue_wait" ~parent:!run_span
                  ~req:req.id ~tid:proc ~sim_start:req.t_arrival ~sim_end:t_deq;
                Stat.add queue_stat (t_deq - req.t_arrival);
                (if req.is_read then begin
                   let s =
                     Span.enter tr ~name:"khash.lookup" ~parent:!run_span
                       ~req:req.id ~tid:proc ~fiber:true ~sim:t_deq
                   in
                   let r = Khash.lookup table ctx req.key in
                   Span.leave tr s ~sim:(Machine.now machine);
                   assert (r <> None);
                   Stat.add read_stat (Machine.now machine - req.t_arrival)
                 end
                 else begin
                   let s =
                     Span.enter tr ~name:"khash.with_element" ~parent:!run_span
                       ~req:req.id ~tid:proc ~fiber:true ~sim:t_deq
                   in
                   let r =
                     Khash.with_element table ctx req.key (fun _ ->
                         Ctx.work ctx work)
                   in
                   Span.leave tr s ~sim:(Machine.now machine);
                   assert (r <> None);
                   Stat.add update_stat (Machine.now machine - req.t_arrival)
                 end);
                Stat.add service_stat (Machine.now machine - t_deq);
                incr served
            done)
      done);
  Span.leave tr sp ~sim:0;
  let setup_s = now () -. t0 in
  let run_s, minor_words, engine_counts = timed_run tr eng ~root ~run_span in
  let violations =
    match hooks with
    | Some (verify, _) ->
      Verify.finish verify ~now:(Machine.now machine);
      Verify.violation_count verify
    | None -> 0
  in
  let makespan_us = Config.us_of_cycles cfg (Machine.now machine) in
  let result =
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
      lockdep_violations = violations;
      obs_rows =
        (match hooks with Some (_, obs) -> Obs.profile_rows obs | None -> []);
    }
  in
  let lock_count, busy =
    lock_checks (List.init (Khash.shards table) (Khash.shard_lock table))
  in
  let problems =
    (if result.completed <> config.requests then
       [
         Printf.sprintf "%d of %d requests completed" result.completed
           config.requests;
       ]
     else [])
    @ (if violations <> 0 then
         [ Printf.sprintf "%d lockdep violations" violations ]
       else [])
    @ (if !backlog <> 0 || Array.exists (fun q -> not (Queue.is_empty q)) queues
       then [ Printf.sprintf "backlog %d left at the end" !backlog ]
       else [])
    @ busy
  in
  {
    result;
    m =
      {
        setup_s;
        run_s;
        build_s;
        minor_words;
        counts =
          engine_counts @ hector_counts machine @ lock_count
          @ handoff_counts result.obs_rows
          @ [
              ("khash.optimistic_hits", result.optimistic_hits);
              ("khash.optimistic_fallbacks", result.optimistic_fallbacks);
            ];
        samples =
          [
            ("slo.queue", Stat.to_list queue_stat);
            ("slo.service", Stat.to_list service_stat);
          ];
        problems;
      };
  }
