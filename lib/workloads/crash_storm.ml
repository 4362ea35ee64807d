(* Crash storm: fail-stop processor crashes planted mid-critical-section
   (the CRASH experiment).

   A set of victim processors — spread round-robin across clusters so
   every cluster sees kills when the count allows — each take the lock at
   a scheduled instant, get halfway through a critical section, and
   fail-stop ([Machine.kill_proc] on themselves; the fiber parks at its
   next operation boundary, releasing nothing). Every other processor
   hammers the same lock through {!Locks.Lock.acquire_recoverable}: timed
   acquisition slices with a dead-holder {!Locks.Lock.recover} between
   them, so each orphaned hold is detected and force-released by whichever
   waiter notices first. Ticket — recoverable but not abortable — takes
   the same storm through its in-spin dead-holder check.

   The kills are planted directly rather than drawn from a [Fault] plan:
   mid-critical-section death is the adversarial case (a rate- or
   schedule-driven kill usually lands in think time), and the experiment
   wants each kill attributed to a known cluster at a known time. The
   rate/schedule machinery is exercised by the fault tests instead.

   What the storm measures, per algorithm:

   - conservation: every planted kill orphans one hold, and every orphan
     is recovered — observer recoveries must reach the kill count (a
     composite may exceed it: each constituent's forced release reports);
   - the recovery-latency distribution, kill to forced release, overall
     and attributed to the dead processor's cluster ({!Obs.crash_rows});
   - legality: an installed lockdep checker must see every forced release
     as a legal recovery transfer (recoveries counted, zero violations);
   - liveness: after the window every surviving processor runs one
     recoverable acquire/release — the storm must reach quiescence with
     the lock free ([final_free]), even when the last kill's corpse still
     holds it at window end. *)

open Eventsim
open Hector
open Hkernel
open Locks

type config = {
  p : int;
  n_clusters : int;
  n_kills : int;  (* victim processors, each killed once, mid-CS *)
  check_period_us : float;  (* recoverable-acquire slice (detector period) *)
  hold_us : float;  (* a worker's critical section *)
  think_us : float;
  window_us : float;
  seed : int;
}

let default_config =
  {
    p = 16;
    n_clusters = 4;
    n_kills = 6;
    check_period_us = 25.0;
    hold_us = 2.0;
    think_us = 5.0;
    window_us = 20_000.0;
    seed = 17;
  }

type result = {
  kills : int;  (* planted mid-CS kills performed *)
  acquisitions : int;  (* successful worker acquisitions *)
  obs_crashes : int;  (* crashes seen by the observer *)
  obs_recoveries : int;  (* forced releases, constituents included *)
  lockdep_recoveries : int;  (* checker-legalised recovery transfers *)
  lockdep_violations : int;  (* must be 0: recovery is not a protocol hole *)
  recovery : Measure.summary;  (* kill-to-forced-release latency, all kills *)
  by_cluster : (int * Measure.summary) list;
      (* recovery latency attributed to the dead processor's cluster *)
  final_free : bool;  (* lock free after the surviving-processor drain *)
}

let obs_class = "crashstorm"

let run ?(cfg = Config.hector) ?(config = default_config) ?obs algo =
  if config.n_clusters <= 0 || config.n_clusters > config.p then
    invalid_arg "Crash_storm.run: n_clusters out of range";
  if config.n_kills < 1 || config.n_kills > config.p - 1 then
    invalid_arg "Crash_storm.run: n_kills must leave a survivor";
  if config.check_period_us <= 0.0 then
    invalid_arg "Crash_storm.run: check_period_us must be positive";
  (* Ticket/Anderson need compare&swap; upgrade the configuration for
     exactly those algorithms so the rest of the family still runs on the
     paper's swap-only machine. *)
  let cfg =
    if Lock.needs_cas algo && not cfg.Config.has_cas then Config.with_cas cfg
    else cfg
  in
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let clustering =
    Clustering.create ~n_procs:config.p
      ~cluster_size:((config.p + config.n_clusters - 1) / config.n_clusters)
  in
  let cluster_of = Clustering.cluster_of_proc clustering in
  let n_clusters = Clustering.n_clusters clustering in
  let obs =
    match obs with
    | Some o -> o
    | None ->
      Obs.create ~cluster_of ~n_clusters ~n_procs:(Config.n_procs cfg) ()
  in
  Machine.set_obs machine (Some obs);
  let verify = Verify.create ~mode:`Record ~n_procs:(Config.n_procs cfg) () in
  Machine.set_verify machine (Some verify);
  let lock =
    Lock.make machine ~home:0 ~vclass:obs_class
      ~topo:(Clustering.topo clustering) algo
  in
  if not lock.Lock.recoverable then
    invalid_arg
      (Printf.sprintf "Crash_storm.run: %s is not recoverable"
         (Lock.algo_name algo));
  let check_period = max 1 (Config.cycles_of_us cfg config.check_period_us) in
  let hold = Config.cycles_of_us cfg config.hold_us in
  let think = Config.cycles_of_us cfg config.think_us in
  let t_end = Config.cycles_of_us cfg config.window_us in
  let rng = Rng.create config.seed in
  let ctxs =
    Array.init config.p (fun proc -> Ctx.create machine ~proc (Rng.split rng))
  in
  (* Victims: round-robin across clusters, each cluster's highest-numbered
     processor not yet chosen — kills land in as many clusters as the kill
     count allows. Processor 0 never dies; it anchors the final drain. *)
  let victims =
    let pool = Array.make n_clusters [] in
    for proc = 1 to config.p - 1 do
      pool.(cluster_of proc) <- proc :: pool.(cluster_of proc)
    done;
    let sel = ref [] in
    let n = ref 0 in
    let progress = ref true in
    while !n < config.n_kills && !progress do
      progress := false;
      for c = 0 to n_clusters - 1 do
        if !n < config.n_kills then
          match pool.(c) with
          | v :: rest ->
            pool.(c) <- rest;
            sel := v :: !sel;
            incr n;
            progress := true
          | [] -> ()
      done
    done;
    Array.of_list (List.rev !sel)
  in
  let n_kills = Array.length victims in
  let is_victim = Array.make config.p false in
  Array.iter (fun v -> is_victim.(v) <- true) victims;
  let kills = ref 0 in
  let acquisitions = ref 0 in
  (* Each victim sleeps until its scheduled instant — kills spaced evenly
     through the window — then dies halfway through a hold. The doomed
     acquisition itself is recoverable: an earlier victim's corpse may
     still own the lock when a later victim wants in. *)
  Array.iteri
    (fun k victim ->
      let ctx = ctxs.(victim) in
      Process.spawn eng (fun () ->
          let at = t_end * (k + 1) / (n_kills + 1) in
          let delay = at - Machine.now machine in
          if delay > 0 then Ctx.interruptible_pause ctx delay;
          Lock.acquire_recoverable ~check_period lock ctx;
          if hold > 1 then Ctx.work ctx (hold / 2);
          incr kills;
          Machine.kill_proc machine victim;
          (* Parks here — the release below it never runs. *)
          Ctx.work ctx 1;
          lock.Lock.release ctx))
    victims;
  (* Workers on every surviving processor, in every cluster. *)
  for proc = 0 to config.p - 1 do
    if not is_victim.(proc) then begin
      let ctx = ctxs.(proc) in
      Process.spawn eng (fun () ->
          let rec loop () =
            if Machine.now machine < t_end then begin
              Lock.acquire_recoverable ~check_period lock ctx;
              incr acquisitions;
              if hold > 0 then Ctx.work ctx hold;
              lock.Lock.release ctx;
              if think > 0 then
                Ctx.work ctx ((think / 2) + Rng.int (Ctx.rng ctx) (max 1 think));
              loop ()
            end
          in
          loop ();
          (* Final drain: the last kill's corpse may hold the lock with no
             timed waiter left to notice, so the drain must itself run the
             detector — and a victim's doomed acquisition may still be in
             flight past the window under heavy contention, so wait for
             every planted kill first or quiescence could leave the lock
             with an unrecovered corpse. *)
          while !kills < n_kills do
            Ctx.work ctx check_period
          done;
          Lock.acquire_recoverable ~check_period lock ctx;
          Ctx.work ctx 20;
          lock.Lock.release ctx)
    end
  done;
  Engine.run eng;
  let label = Lock.algo_name algo in
  let crash_rows = Obs.crash_rows obs in
  let all_stat = Stat.create label in
  let by_cluster =
    List.filter_map
      (fun (r : Obs.crash_row) ->
        if r.Obs.cr_latencies = [] then None
        else begin
          let s = Stat.create (Printf.sprintf "%s.c%d" label r.Obs.cr_cluster) in
          List.iter
            (fun l ->
              Stat.add s l;
              Stat.add all_stat l)
            r.Obs.cr_latencies;
          Some (r.Obs.cr_cluster, Measure.of_stat cfg ~label:(Stat.name s) s)
        end)
      crash_rows
  in
  {
    kills = !kills;
    acquisitions = !acquisitions;
    obs_crashes = Obs.crashes_observed obs;
    obs_recoveries = Obs.recoveries_observed obs;
    lockdep_recoveries = Verify.recoveries verify;
    lockdep_violations = Verify.violation_count verify;
    recovery = Measure.of_stat cfg ~label all_stat;
    by_cluster;
    final_free = lock.Lock.is_free ();
  }

let clusters_hit r = List.length r.by_cluster

let worst_cluster_p99_us r =
  List.fold_left (fun acc (_, s) -> Float.max acc s.Measure.p99_us) 0.0
    r.by_cluster
