(* The diurnal load cycle (the DIURNAL experiment).

   The paper hand-picked a lock shape per subsystem because no single
   shape wins across load regimes; this workload makes the regime change
   *within one run*. Load ramps cold -> hot -> cold in three equal
   plateaus: a couple of same-cluster processors with long think times
   (the overnight trickle, where a test&set lock is unbeatable), then
   every processor across every cluster hammering with short think times
   (the daytime peak, where hand-offs are mostly remote and a NUMA
   composite wins), then the trickle again.

   Completed operations are classified into phases by completion time, so
   per-phase throughput races the static shapes on both regimes — the
   acceptance pin is that no one shape wins both phases.

   A Verify checker and an Obs observer are always installed: every run
   is gated on zero lockdep violations, and the observer's profile rows
   go out with the result. *)

open Eventsim
open Hector
open Hkernel
open Locks

type config = {
  p_hot : int; (* processors at the daytime peak *)
  p_cold : int; (* processors in the overnight trickle *)
  n_clusters : int;
  phase_us : float; (* length of each of the three plateaus *)
  hold_us : float; (* critical-section work *)
  think_cold_us : float; (* think time between trickle operations *)
  think_hot_us : float; (* think time between peak operations *)
  algo : Lock.algo;
  seed : int;
}

let default_config =
  {
    p_hot = 16;
    p_cold = 1;
    n_clusters = 4;
    phase_us = 1200.0;
    hold_us = 1.5;
    think_cold_us = 5.0;
    think_hot_us = 3.0;
    algo = Lock.Mcs_h2;
    seed = 42;
  }

type result = {
  algo_name : string;
  cold1_ops : int; (* completed in the first cold plateau *)
  hot_ops : int;
  cold2_ops : int;
  cold_throughput_ops_ms : float; (* both cold plateaus combined *)
  hot_throughput_ops_ms : float;
  final_free : bool;
  lockdep_violations : int;
  obs_rows : Obs.row list;
}

let obs_class = "diurnal"

let run ?(cfg = Config.hector) ?(config = default_config) ?obs () =
  if config.p_cold <= 0 || config.p_cold > config.p_hot then
    invalid_arg "Diurnal.run: p_cold out of range";
  if config.n_clusters <= 0 || config.n_clusters > config.p_hot then
    invalid_arg "Diurnal.run: n_clusters out of range";
  if config.p_hot > Config.n_procs cfg then
    invalid_arg "Diurnal.run: p_hot exceeds the machine";
  if config.phase_us <= 0.0 then invalid_arg "Diurnal.run: phase_us <= 0";
  let cfg =
    if Lock.needs_cas config.algo && not cfg.Config.has_cas then
      Config.with_cas cfg
    else cfg
  in
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let clustering =
    Clustering.create ~n_procs:config.p_hot
      ~cluster_size:
        ((config.p_hot + config.n_clusters - 1) / config.n_clusters)
  in
  (* Total over every machine processor (idle ones fold onto the active
     prefix), as the other clustered workloads do. *)
  let topo =
    let cl = Clustering.cluster_of_proc clustering in
    Lock_core.topo ~n_clusters:(Clustering.n_clusters clustering)
      ~cluster_of:(fun p -> cl (p mod config.p_hot))
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
  let lock = Lock.make machine ~vclass:obs_class ~topo config.algo in
  let phase = Config.cycles_of_us cfg config.phase_us in
  let hold = Config.cycles_of_us cfg config.hold_us in
  let think_cold = Config.cycles_of_us cfg config.think_cold_us in
  let think_hot = Config.cycles_of_us cfg config.think_hot_us in
  let cold1_ops = ref 0 and hot_ops = ref 0 and cold2_ops = ref 0 in
  let record_completion now =
    if now < phase then incr cold1_ops
    else if now < 2 * phase then incr hot_ops
    else incr cold2_ops
  in
  (* The protected state: a handful of words homed beside the lock, as in
     [Numa_stress] — the critical section is data traffic, not pure
     compute, so its cost depends on where the holder sits relative to
     the data's home station and the regime change is visible in the
     memory system, not only in the queue. *)
  let data = Array.init 8 (fun i -> Machine.alloc machine ~home:0 i) in
  let cs_accesses = 4 in
  let critical_section ctx =
    let t_in = Machine.now machine in
    for i = 1 to cs_accesses do
      let c = data.(i land 7) in
      if i land 1 = 0 then ignore (Ctx.read ctx c) else Ctx.write ctx c i;
      Ctx.work ctx 6
    done;
    let spent = Machine.now machine - t_in in
    if spent < hold then Ctx.work ctx (hold - spent)
  in
  let think_for ctx rng think =
    if think > 0 then Ctx.work ctx ((think / 2) + Rng.int rng (max 1 think))
  in
  let one_op ctx rng ~think =
    think_for ctx rng think;
    lock.Lock.acquire ctx;
    critical_section ctx;
    lock.Lock.release ctx;
    record_completion (Machine.now machine)
  in
  let rng0 = Rng.create config.seed in
  (* The trickle processors run all three plateaus; their think time is
     what makes the first and last cold. *)
  for proc = 0 to config.p_cold - 1 do
    let ctx = Ctx.create machine ~proc (Rng.split rng0) in
    Process.spawn eng (fun () ->
        let rng = Ctx.rng ctx in
        while Machine.now machine < 3 * phase do
          let think =
            let now = Machine.now machine in
            if now >= phase && now < 2 * phase then think_hot else think_cold
          in
          one_op ctx rng ~think
        done)
  done;
  (* The peak processors sleep through the first plateau, hammer through
     the second, and stop. They acquire through the timed face with the
     phase edge as the deadline: daytime work abandoned at dusk must not
     leave a saturated queue draining into the night — without the
     deadline, the overhang of waiters stuck inside a blocking acquire
     pollutes the second cold plateau for every algorithm (worst for
     test&set, whose saturated hand-offs are slowest). *)
  for proc = config.p_cold to config.p_hot - 1 do
    let ctx = Ctx.create machine ~proc (Rng.split rng0) in
    Process.spawn eng (fun () ->
        let rng = Ctx.rng ctx in
        Ctx.work ctx (phase - Machine.now machine);
        let deadline = 2 * phase in
        while Machine.now machine < deadline do
          think_for ctx rng think_hot;
          if
            Machine.now machine < deadline
            && lock.Lock.try_acquire_for ctx ~deadline
          then begin
            critical_section ctx;
            lock.Lock.release ctx;
            record_completion (Machine.now machine)
          end
        done)
  done;
  Engine.run eng;
  Verify.finish verify ~now:(Machine.now machine);
  let phase_ms = config.phase_us /. 1000.0 in
  {
    algo_name = lock.Lock.name;
    cold1_ops = !cold1_ops;
    hot_ops = !hot_ops;
    cold2_ops = !cold2_ops;
    cold_throughput_ops_ms =
      float_of_int (!cold1_ops + !cold2_ops) /. (2.0 *. phase_ms);
    hot_throughput_ops_ms = float_of_int !hot_ops /. phase_ms;
    final_free = lock.Lock.is_free ();
    lockdep_violations = Verify.violation_count verify;
    obs_rows = Obs.profile_rows obs;
  }
