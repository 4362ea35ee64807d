(* Cross-cluster lock contention (the NUMA-LOCKS experiment).

   The Figure 5 stress pattern — [p] processors hammering one lock for a
   window of virtual time — but with the processors partitioned into
   kernel clusters ({!Hkernel.Clustering}) and the lock built against that
   topology ([Lock.make ~topo]), so NUMA-aware algorithms can keep
   hand-offs inside a cluster. A contention observer attributes every
   contended hand-off as cluster-local or cross-cluster; the remote
   fraction is the quantity the composites (Cohort/HMCS/CNA) exist to
   drive down, and what this workload compares against flat MCS.

   The critical section touches data homed beside the lock, as in
   [Lock_stress]: cross-cluster hand-offs therefore also drag the data's
   cache/memory traffic across stations, which is what stretches the mean
   under remote hand-off churn. *)

open Eventsim
open Hector
open Hkernel
open Locks

type config = {
  p : int;
  n_clusters : int;
  hold_us : float;
  think_us : float; (* per-iteration measurement-loop bookkeeping *)
  warmup_us : float;
  window_us : float;
  seed : int;
}

let default_config =
  {
    p = 16;
    n_clusters = 4;
    hold_us = 0.0;
    think_us = 3.0;
    warmup_us = 200.0;
    window_us = 20_000.0;
    seed = 7;
  }

type result = {
  summary : Measure.summary; (* acquisition latency, hold excluded *)
  acquisitions : int;
  local_handoffs : int; (* contended hand-offs inside a cluster *)
  remote_handoffs : int; (* contended hand-offs across clusters *)
  max_wait_us : float; (* worst single acquisition wait *)
  atomics : int;
}

(* The lock's top-level activity is profiled under this class; a cohort's
   constituents report under "<class>.local" / "<class>.global" and are
   deliberately excluded from the hand-off accounting (a global-lock
   hand-off inside the composite would otherwise be counted twice). *)
let obs_class = "numa"

let run ?(cfg = Config.hector) ?(config = default_config) algo =
  if config.n_clusters <= 0 || config.n_clusters > config.p then
    invalid_arg "Numa_stress.run: n_clusters out of range";
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let clustering =
    Clustering.create ~n_procs:config.p
      ~cluster_size:((config.p + config.n_clusters - 1) / config.n_clusters)
  in
  let obs =
    Obs.create
      ~cluster_of:(Clustering.cluster_of_proc clustering)
      ~n_clusters:(Clustering.n_clusters clustering)
      ~n_procs:(Config.n_procs cfg) ()
  in
  Machine.set_obs machine (Some obs);
  let lock =
    Lock.make machine ~home:0 ~vclass:obs_class
      ~topo:(Clustering.topo clustering) algo
  in
  let hold = Config.cycles_of_us cfg config.hold_us in
  let think = Config.cycles_of_us cfg config.think_us in
  let warmup = Config.cycles_of_us cfg config.warmup_us in
  let t_end = warmup + Config.cycles_of_us cfg config.window_us in
  let stat = Stat.create (Lock.algo_name algo) in
  let data = Array.init 8 (fun i -> Machine.alloc machine ~home:0 i) in
  let rng = Rng.create config.seed in
  let acquisitions = ref 0 in
  for proc = 0 to config.p - 1 do
    let ctx = Ctx.create machine ~proc (Rng.split rng) in
    Process.spawn eng (fun () ->
        let rec loop () =
          if Machine.now machine < t_end then begin
            let t0 = Machine.now machine in
            lock.Lock.acquire ctx;
            let t_in = Machine.now machine in
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
            lock.Lock.release ctx;
            let t_done = Machine.now machine in
            if t0 >= warmup then begin
              incr acquisitions;
              Stat.add stat (t_done - t0 - (t_out - t_in))
            end;
            if think > 0 then
              Ctx.work ctx ((think / 2) + Rng.int (Ctx.rng ctx) (max 1 think));
            loop ()
          end
        in
        loop ())
  done;
  Engine.run eng;
  let local_handoffs, remote_handoffs, max_wait_cycles =
    match
      List.find_opt
        (fun (r : Obs.row) -> r.Obs.row_class = obs_class)
        (Obs.profile_rows obs)
    with
    | Some r ->
      ( r.Obs.total.Obs.handoffs_local,
        r.Obs.total.Obs.handoffs_remote,
        r.Obs.total.Obs.max_wait_cycles )
    | None -> (0, 0, 0)
  in
  {
    summary = Measure.of_stat cfg ~label:(Lock.algo_name algo) stat;
    acquisitions = !acquisitions;
    local_handoffs;
    remote_handoffs;
    max_wait_us = Config.us_of_cycles cfg max_wait_cycles;
    atomics = Machine.atomics machine;
  }

let remote_frac r =
  let total = r.local_handoffs + r.remote_handoffs in
  if total = 0 then 0.0
  else float_of_int r.remote_handoffs /. float_of_int total
