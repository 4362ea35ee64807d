(* Read-mostly page-descriptor lookups (the RW-SCALING experiment).

   HURRICANE's answer to read-mostly data is per-cluster replication
   through the combining tree; the RW lock family answers with per-cluster
   reader indicators. This workload races the candidates over the same
   job: [p] processors across [n_clusters] clusters doing a read/write mix
   over one page descriptor at 95/99/99.9% read ratios.

   - [Mutex]: every access behind one exclusive lock — the baseline every
     writer-serialising [Lock.algo] is stuck at: readers queue like
     writers, read parallelism is 1 by construction.
   - [Rw_lock]: the {!Locks.Rwlock} family — readers CAS their own
     cluster's indicator (or a single central word for the [centralised]
     baseline) and proceed in parallel; writers sweep.
   - [Seqlock_style]: the PR 5 optimistic path — readers sample/validate a
     sequence word and retry through a locked fallback; writers mutate
     under an exclusive lock.
   - [Replicated]: the HURRICANE-shaped comparator — one replica of the
     descriptor per cluster; readers load their local replica unlocked,
     writers take the exclusive lock and store through every replica (the
     update broadcast standing in for invalidation+refault).

   A Verify checker and an Obs observer are always installed: the RW smoke
   gate asserts zero lockdep violations and reader parallelism > 1, so
   both facts come from instrumentation, not trust. Read-section
   concurrency is additionally tracked host-side for every style (peak
   concurrent readers inside the data access), which is what separates the
   read-parallel styles from any exclusive lock. *)

open Eventsim
open Hector
open Hkernel
open Locks

type style =
  | Mutex of Lock.algo
  | Rw_lock of { writer : Lock.algo; policy : Rwlock.policy; centralised : bool }
  | Seqlock_style of { writer : Lock.algo }
  | Replicated of { writer : Lock.algo }

let style_name = function
  | Mutex a -> "mutex-" ^ Lock.algo_name a
  | Rw_lock { writer; policy; centralised } ->
    Lock.algo_name (Lock.Rw { writer; policy; centralised })
  | Seqlock_style { writer } -> "seqlock+" ^ Lock.algo_name writer
  | Replicated { writer } -> "repl+" ^ Lock.algo_name writer

type config = {
  p : int;
  n_clusters : int;
  ops : int; (* per processor *)
  read_ratio : float;
  read_work_us : float; (* work inside the read section *)
  write_work_us : float; (* work inside the write section *)
  think_us : float; (* work between operations *)
  style : style;
  seed : int;
}

let default_config =
  {
    p = 8;
    n_clusters = 2;
    ops = 200;
    read_ratio = 0.99;
    read_work_us = 2.0;
    write_work_us = 4.0;
    think_us = 1.0;
    style =
      Rw_lock
        {
          writer = Lock.c_mcs_mcs;
          policy = Rwlock.Writer_blocking;
          centralised = false;
        };
    seed = 31;
  }

type result = {
  read_summary : Measure.summary;
  write_summary : Measure.summary;
  makespan_us : float;
  throughput_ops_ms : float; (* all completed ops per virtual ms *)
  read_throughput_ops_ms : float; (* completed reads per virtual ms *)
  reads_done : int;
  writes_done : int;
  peak_readers : int; (* host-tracked concurrent read sections *)
  read_remote : int; (* RW styles: remote read-path indicator ops *)
  seq_aborts : int; (* seqlock style: optimistic aborts *)
  lockdep_violations : int;
  obs_rows : Obs.row list;
}

let obs_class = "rw"

let run ?(cfg = Config.hector) ?(config = default_config) ?obs () =
  if config.read_ratio < 0.0 || config.read_ratio > 1.0 then
    invalid_arg "Rw_scaling.run: read_ratio out of [0,1]";
  if config.n_clusters <= 0 || config.n_clusters > config.p then
    invalid_arg "Rw_scaling.run: n_clusters out of range";
  if config.p > Config.n_procs cfg then
    invalid_arg "Rw_scaling.run: p exceeds the machine";
  let needs_cas =
    match config.style with
    | Rw_lock _ -> true
    | Mutex a | Seqlock_style { writer = a } | Replicated { writer = a } ->
      Lock.needs_cas a
  in
  let cfg =
    if needs_cas && not cfg.Config.has_cas then Config.with_cas cfg else cfg
  in
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let clustering =
    Clustering.create ~n_procs:config.p
      ~cluster_size:((config.p + config.n_clusters - 1) / config.n_clusters)
  in
  (* Total over every machine processor, not just the [p] the workload
     uses: lock constructors home per-cluster state by sweeping the whole
     machine. Idle processors fold onto the active prefix, which leaves
     each cluster's lowest (= home) processor unchanged. *)
  let topo =
    let cl = Clustering.cluster_of_proc clustering in
    Lock_core.topo ~n_clusters:(Clustering.n_clusters clustering)
      ~cluster_of:(fun p -> cl (p mod config.p))
  in
  let verify = Verify.create ~n_procs:(Config.n_procs cfg) () in
  Machine.set_verify machine (Some verify);
  let obs =
    match obs with
    | Some o -> o
    | None ->
      Obs.create
        ~cluster_of:(Clustering.cluster_of_proc clustering)
        ~n_clusters:(Clustering.n_clusters clustering)
        ~n_procs:(Config.n_procs cfg) ()
  in
  Machine.set_obs machine (Some obs);
  (* The descriptor word every style guards; homed with the lock. *)
  let desc = Machine.alloc machine ~label:"pagedesc" ~home:0 1 in
  (* Style-specific state. *)
  let rw =
    match config.style with
    | Rw_lock { writer; policy; centralised } ->
      Some (Lock.make_rw machine ~vclass:obs_class ~topo ~policy ~centralised writer)
    | _ -> None
  in
  let mutex =
    match config.style with
    | Mutex a -> Some (Lock.make machine ~vclass:obs_class ~topo a)
    | Seqlock_style { writer } | Replicated { writer } ->
      Some (Lock.make machine ~vclass:(obs_class ^ ".writer") ~topo writer)
    | Rw_lock _ -> None
  in
  let seqlock =
    match config.style with
    | Seqlock_style _ -> Some (Seqlock.create machine ~vclass:obs_class ())
    | _ -> None
  in
  let replicas =
    match config.style with
    | Replicated _ ->
      (* One replica per cluster, homed at the cluster's lowest proc. *)
      let homes = Array.make config.n_clusters 0 in
      for p = config.p - 1 downto 0 do
        homes.(Clustering.cluster_of_proc clustering p) <- p
      done;
      Some
        (Array.init config.n_clusters (fun c ->
             Machine.alloc machine
               ~label:(Printf.sprintf "pagedesc.rep%d" c)
               ~home:homes.(c) 1))
    | _ -> None
  in
  let read_work = Config.cycles_of_us cfg config.read_work_us in
  let write_work = Config.cycles_of_us cfg config.write_work_us in
  let think = Config.cycles_of_us cfg config.think_us in
  let read_stat = Stat.create "read" in
  let write_stat = Stat.create "write" in
  let reads_done = ref 0 and writes_done = ref 0 in
  let inside = ref 0 and peak = ref 0 in
  let enter () =
    incr inside;
    if !inside > !peak then peak := !inside
  in
  let leave () = decr inside in
  (* The data access every read performs, bracketed by the host-side
     concurrency gauge. *)
  let read_body ctx cell =
    enter ();
    let v = Ctx.read ctx cell in
    if read_work > 0 then Ctx.work ctx read_work;
    leave ();
    v
  in
  let do_read ctx =
    match config.style with
    | Mutex _ ->
      let m = Option.get mutex in
      m.Lock.acquire ctx;
      ignore (read_body ctx desc);
      m.Lock.release ctx
    | Rw_lock _ ->
      let l = Option.get rw in
      Rwlock.acquire_read l ctx;
      ignore (read_body ctx desc);
      Rwlock.release_read l ctx
    | Seqlock_style _ ->
      let s = Option.get seqlock in
      let m = Option.get mutex in
      let rec attempt () =
        let seq = Seqlock.read_begin s ctx in
        if seq >= 0 then begin
          let v = read_body ctx desc in
          if not (Seqlock.read_validate s ctx seq) then attempt () else ignore v
        end
        else begin
          (* Writer inside: locked fallback, like Khash.lookup. *)
          m.Lock.acquire ctx;
          ignore (read_body ctx desc);
          m.Lock.release ctx
        end
      in
      attempt ()
    | Replicated _ ->
      let reps = Option.get replicas in
      ignore (read_body ctx reps.(Clustering.cluster_of_proc clustering (Ctx.proc ctx)))
  in
  let do_write ctx i =
    match config.style with
    | Mutex _ ->
      let m = Option.get mutex in
      m.Lock.acquire ctx;
      Ctx.write ctx desc i;
      if write_work > 0 then Ctx.work ctx write_work;
      m.Lock.release ctx
    | Rw_lock _ ->
      let l = Option.get rw in
      Rwlock.acquire l ctx;
      Ctx.write ctx desc i;
      if write_work > 0 then Ctx.work ctx write_work;
      Rwlock.release l ctx
    | Seqlock_style _ ->
      let s = Option.get seqlock in
      let m = Option.get mutex in
      m.Lock.acquire ctx;
      Seqlock.with_write s ctx (fun () ->
          Ctx.write ctx desc i;
          if write_work > 0 then Ctx.work ctx write_work);
      m.Lock.release ctx
    | Replicated _ ->
      let reps = Option.get replicas in
      let m = Option.get mutex in
      m.Lock.acquire ctx;
      (* The update broadcast: one store per cluster replica, the traffic
         replication trades for its local reads. *)
      Array.iter (fun r -> Ctx.write ctx r i) reps;
      if write_work > 0 then Ctx.work ctx write_work;
      m.Lock.release ctx
  in
  let rng0 = Rng.create config.seed in
  for proc = 0 to config.p - 1 do
    let ctx = Ctx.create machine ~proc (Rng.split rng0) in
    Process.spawn eng (fun () ->
        let rng = Ctx.rng ctx in
        for i = 1 to config.ops do
          if think > 0 then
            Ctx.work ctx ((think / 2) + Rng.int rng (max 1 think));
          if Rng.float rng < config.read_ratio then begin
            let t0 = Machine.now machine in
            do_read ctx;
            incr reads_done;
            Stat.add read_stat (Machine.now machine - t0 - read_work)
          end
          else begin
            let t0 = Machine.now machine in
            do_write ctx ((proc * config.ops) + i);
            incr writes_done;
            Stat.add write_stat (Machine.now machine - t0 - write_work)
          end
        done)
  done;
  Engine.run eng;
  Verify.finish verify ~now:(Machine.now machine);
  (match rw with Some l -> assert (Rwlock.is_free l) | None -> ());
  let makespan_us = Config.us_of_cycles cfg (Machine.now machine) in
  let per_ms total =
    if makespan_us > 0.0 then float_of_int total /. (makespan_us /. 1000.0)
    else 0.0
  in
  {
    read_summary = Measure.of_stat cfg ~label:"read" read_stat;
    write_summary = Measure.of_stat cfg ~label:"write" write_stat;
    makespan_us;
    throughput_ops_ms = per_ms (!reads_done + !writes_done);
    read_throughput_ops_ms = per_ms !reads_done;
    reads_done = !reads_done;
    writes_done = !writes_done;
    peak_readers = !peak;
    read_remote = (match rw with Some l -> Rwlock.read_remote l | None -> 0);
    seq_aborts =
      (match seqlock with Some s -> Seqlock.read_aborts s | None -> 0);
    lockdep_violations = Verify.violation_count verify;
    obs_rows = Obs.profile_rows obs;
  }
