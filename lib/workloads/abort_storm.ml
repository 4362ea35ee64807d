(* Abort storm: timed acquisition under a planted cross-cluster holder
   stall (the ABORT-STORM experiment).

   One processor — cluster 0's proc 0 — periodically takes the lock with a
   plain acquire and then goes dark for [stall_us], far longer than any
   waiter's patience: a crashed or preempted holder as seen from every
   other cluster. All other processors hammer the same lock through the
   timed face ([Lock.try_acquire_for]) with a [timeout_us] deadline per
   attempt. Under an unbounded protocol every one of them would be stuck
   for the whole stall; with HMCS-T-style abandonment each must return
   [false] within a bounded overshoot of its own deadline — waiters
   sharing the holder's cluster expire at the local level, cluster heads
   blocked on the root expire at the root level, and a cohort's waiters
   expire inside either constituent. The single absolute deadline is the
   per-level budget: however many levels the attempt climbed, the sum of
   the level waits is bounded by it.

   What the storm measures, per algorithm:

   - the overshoot distribution — how far past its deadline each failed
     attempt returned (the abandonment protocol's latency bound; an
     unbounded protocol has no such number);
   - the worst return-to-timeout ratio, the "bounded multiple" of the
     acceptance criterion;
   - recovery — the time from each stall's release to the next successful
     timed acquisition by any waiter (abandoned queue state must not
     wedge the lock once the holder comes back);
   - the abort and abandoned-node-repair counts the contention observer
     attributes per cluster, which is how the cross-NUMA claim is checked:
     clusters other than the staller's must show aborts too, i.e. waiters
     time out at every level of the composite, not just beside the holder.

   The stall is planted directly (the holder spins [Ctx.work] inside the
   critical section) rather than via a [Fault] plan: the experiment needs
   the stall attributed to a known cluster at a known time, and the
   holder's own acquisitions excluded from the timed-attempt counts.

   After the measurement window every processor, staller included, runs
   one plain acquire/release: abandoned nodes left by expiring waiters
   are repaired at grant time, so a final untimed pass through every
   cluster drains them and the lock must end free ([final_free]). *)

open Eventsim
open Hector
open Hkernel
open Locks

type config = {
  p : int;
  n_clusters : int;
  timeout_us : float;  (* per-attempt deadline for the timed waiters *)
  stall_us : float;  (* how long the planted holder goes dark *)
  stall_idle_us : float;  (* gap between stalls (the recovery window) *)
  hold_us : float;  (* a successful waiter's critical section *)
  think_us : float;
  window_us : float;
  seed : int;
}

let default_config =
  {
    p = 16;
    n_clusters = 4;
    timeout_us = 150.0;
    stall_us = 1_500.0;
    stall_idle_us = 1_500.0;
    hold_us = 2.0;
    think_us = 5.0;
    window_us = 20_000.0;
    seed = 13;
  }

type result = {
  attempts : int;  (* timed acquisition attempts (staller excluded) *)
  acquisitions : int;  (* timed attempts that got the lock *)
  aborts : int;  (* timed attempts that expired and gave up *)
  fast_fails : int;
      (* of those, attempts refused before the deadline: the waiter's
         abandoned node from an earlier expiry was still enqueued, so the
         timed face fails instantly rather than enqueue twice *)
  stalls : int;  (* planted holder stalls completed *)
  overshoot : Measure.summary;
      (* per waited-out expiry (fast-fails excluded): return time minus
         deadline *)
  max_overshoot_us : float;
  bound_ratio : float;
      (* worst (return - issue) / timeout over failed attempts: the
         "bounded multiple of the deadline" of the acceptance bound *)
  recovery : Measure.summary;
      (* per stall: release to the next successful timed acquisition *)
  obs_aborts : int;  (* observer-counted aborts, constituents included *)
  obs_repairs : int;  (* abandoned nodes reclaimed by later hand-offs *)
  remote_aborts : int;
      (* aborts attributed to clusters other than the staller's: timed
         waiters expiring beyond the holder's own cluster *)
  final_free : bool;  (* lock free after the final untimed drain *)
}

(* The lock's top-level activity is profiled under this class; a cohort's
   constituents report under "<class>.local" / "<class>.global" (their
   aborts are folded into [obs_aborts] but not [remote_aborts], which
   reads only the top-level row). *)
let obs_class = "abortstorm"

let run ?(cfg = Config.hector) ?(config = default_config) algo =
  if config.n_clusters <= 0 || config.n_clusters > config.p then
    invalid_arg "Abort_storm.run: n_clusters out of range";
  if config.p < 2 then invalid_arg "Abort_storm.run: need a staller and a waiter";
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let clustering =
    Clustering.create ~n_procs:config.p
      ~cluster_size:((config.p + config.n_clusters - 1) / config.n_clusters)
  in
  let cluster_of = Clustering.cluster_of_proc clustering in
  let obs =
    Obs.create ~cluster_of
      ~n_clusters:(Clustering.n_clusters clustering)
      ~n_procs:(Config.n_procs cfg) ()
  in
  Machine.set_obs machine (Some obs);
  let lock =
    Lock.make machine ~home:0 ~vclass:obs_class
      ~topo:(Clustering.topo clustering) algo
  in
  if not lock.Lock.abortable then
    invalid_arg
      (Printf.sprintf "Abort_storm.run: %s is not abortable"
         (Lock.algo_name algo));
  let timeout = Config.cycles_of_us cfg config.timeout_us in
  let stall = Config.cycles_of_us cfg config.stall_us in
  let stall_idle = Config.cycles_of_us cfg config.stall_idle_us in
  let hold = Config.cycles_of_us cfg config.hold_us in
  let think = Config.cycles_of_us cfg config.think_us in
  let t_end = Config.cycles_of_us cfg config.window_us in
  let rng = Rng.create config.seed in
  let ctxs =
    Array.init config.p (fun proc -> Ctx.create machine ~proc (Rng.split rng))
  in
  let attempts = ref 0 in
  let acquisitions = ref 0 in
  let aborts = ref 0 in
  let fast_fails = ref 0 in
  let over_stat = Stat.create (Lock.algo_name algo) in
  let max_overshoot = ref 0 in
  let bound_ratio = ref 0.0 in
  let releases_rev = ref [] in
  let entries_rev = ref [] in
  (* The planted staller: plain acquire, go dark, release, idle. Its own
     acquisitions never enter the timed-attempt counts. *)
  Process.spawn eng (fun () ->
      let ctx = ctxs.(0) in
      let rec loop () =
        if Machine.now machine < t_end then begin
          lock.Lock.acquire ctx;
          Ctx.work ctx stall;
          lock.Lock.release ctx;
          releases_rev := Machine.now machine :: !releases_rev;
          Ctx.interruptible_pause ctx stall_idle;
          loop ()
        end
      in
      loop ();
      (* Final drain pass (see header). *)
      lock.Lock.acquire ctx;
      Ctx.work ctx 20;
      lock.Lock.release ctx);
  (* Timed waiters on every processor and (therefore) in every cluster. *)
  for proc = 1 to config.p - 1 do
    let ctx = ctxs.(proc) in
    Process.spawn eng (fun () ->
        let rec loop () =
          if Machine.now machine < t_end then begin
            incr attempts;
            let issue = Machine.now machine in
            let deadline = issue + timeout in
            if lock.Lock.try_acquire_for ctx ~deadline then begin
              incr acquisitions;
              entries_rev := Machine.now machine :: !entries_rev;
              if hold > 0 then Ctx.work ctx hold;
              lock.Lock.release ctx
            end
            else begin
              incr aborts;
              let ret = Machine.now machine in
              if ret < deadline then incr fast_fails
              else begin
                let overshoot = ret - deadline in
                Stat.add over_stat overshoot;
                if overshoot > !max_overshoot then max_overshoot := overshoot;
                let ratio =
                  float_of_int (ret - issue) /. float_of_int (max 1 timeout)
                in
                if ratio > !bound_ratio then bound_ratio := ratio
              end
            end;
            if think > 0 then
              Ctx.work ctx ((think / 2) + Rng.int (Ctx.rng ctx) (max 1 think));
            loop ()
          end
        in
        loop ();
        lock.Lock.acquire ctx;
        Ctx.work ctx 20;
        lock.Lock.release ctx)
  done;
  Engine.run eng;
  let label = Lock.algo_name algo in
  let recovery_stat = Stat.create label in
  (* Per stall release, time to the next successful timed acquisition:
     both lists are in nondecreasing event order. *)
  let entries = ref (List.rev !entries_rev) in
  List.iter
    (fun release ->
      let rec skip () =
        match !entries with
        | e :: rest when e < release ->
          entries := rest;
          skip ()
        | _ -> ()
      in
      skip ();
      match !entries with
      | e :: _ -> Stat.add recovery_stat (e - release)
      | [] -> ())
    (List.rev !releases_rev);
  let rows = Obs.profile_rows obs in
  let obs_aborts, obs_repairs =
    List.fold_left
      (fun (a, r) (row : Obs.row) ->
        (a + row.Obs.total.Obs.aborts, r + row.Obs.total.Obs.abandon_repairs))
      (0, 0) rows
  in
  let remote_aborts =
    match
      List.find_opt (fun (r : Obs.row) -> r.Obs.row_class = obs_class) rows
    with
    | Some r ->
      List.fold_left
        (fun acc (c, (cells : Obs.cells)) ->
          if c <> cluster_of 0 then acc + cells.Obs.aborts else acc)
        0 r.Obs.by_cluster
    | None -> 0
  in
  {
    attempts = !attempts;
    acquisitions = !acquisitions;
    aborts = !aborts;
    fast_fails = !fast_fails;
    stalls = List.length !releases_rev;
    overshoot = Measure.of_stat cfg ~label over_stat;
    max_overshoot_us = Config.us_of_cycles cfg !max_overshoot;
    bound_ratio = !bound_ratio;
    recovery = Measure.of_stat cfg ~label recovery_stat;
    obs_aborts;
    obs_repairs;
    remote_aborts;
    final_free = lock.Lock.is_free ();
  }
