(* Sharded hash-table scaling (the HASH-SCALING experiment).

   The hybrid table of ABL1 still funnels every operation through one
   coarse lock; hierarchical clustering bounds the processors behind it,
   but within a cluster the lock is the ceiling. This workload measures
   the two mechanisms PR 5 adds to lift it:

   - [Sharded] granularity: the bin array split over per-shard coarse
     locks homed on distinct PMMs, so independent operations stop
     serialising (and stop hammering one memory module);
   - the per-shard seqlock read path: read-only lookups probe the chain
     unlocked and validate, paying a pair of loads instead of a lock
     acquire/release.

   [p] processors run a read/update mix over a pre-populated table:
   lookups target the whole key space (so readers collide with writers),
   updates target the processor's own keys through [Khash.with_element].
   Reported: lookup and update latency, whole-run throughput, and the
   optimistic hit/fallback split. Compare [Hybrid] against [Sharded] at
   several shard counts, with the optimistic path on and off. *)

open Eventsim
open Hector
open Locks
open Hkernel

type config = {
  p : int;
  nbins : int;
  shards : int; (* meaningful for [Sharded] only *)
  keys_per_proc : int;
  ops : int; (* operations per processor *)
  read_ratio : float; (* fraction of ops that are read-only lookups *)
  churn_fraction : float;
  (* fraction of non-read ops that delete and re-insert their key instead
     of updating in place: chain mutations, i.e. seqlock writer traffic *)
  element_work_us : float; (* work done while holding an element *)
  think_us : float; (* work between operations *)
  granularity : Khash.granularity;
  optimistic : bool; (* lookups via {!Khash.lookup} vs {!Khash.lookup_locked} *)
  lock_algo : Lock.algo;
  seed : int;
}

let default_config =
  {
    p = 8;
    nbins = 64;
    shards = 4;
    keys_per_proc = 16;
    ops = 150;
    read_ratio = 0.9;
    churn_fraction = 0.3;
    element_work_us = 5.0;
    think_us = 10.0;
    granularity = Khash.Sharded;
    optimistic = true;
    lock_algo = Lock.Mcs_h2;
    seed = 23;
  }

type result = {
  shards : int;
  optimistic : bool; (* only [Sharded] has the seqlock read path *)
  read_summary : Measure.summary; (* lookup latency *)
  update_summary : Measure.summary; (* with_element latency, work excluded *)
  makespan_us : float;
  throughput_ops_ms : float; (* completed ops per virtual millisecond *)
  optimistic_hits : int;
  optimistic_fallbacks : int;
  reserve_conflicts : int;
  atomics : int;
  obs_rows : Obs.row list; (* per-class profile, when [observe] *)
}

let run ?(cfg = Config.hector) ?(config = default_config) ?(observe = false) ()
    =
  if config.p < 1 || config.p > Config.n_procs cfg then
    invalid_arg
      (Printf.sprintf "Hash_scaling.run: p must be in 1..%d (got %d)"
         (Config.n_procs cfg) config.p);
  if config.read_ratio < 0.0 || config.read_ratio > 1.0 then
    invalid_arg "Hash_scaling.run: read_ratio out of [0,1]";
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let obs =
    if observe then begin
      let o =
        Obs.create
          ~cluster_of:(fun _ -> 0)
          ~n_clusters:1 ~n_procs:(Config.n_procs cfg) ()
      in
      Machine.set_obs machine (Some o);
      Some o
    end
    else None
  in
  let homes = List.init (Machine.n_procs machine) (fun i -> i) in
  let table =
    Khash.create machine ~granularity:config.granularity ~nbins:config.nbins
      ~shards:config.shards ~lock_algo:config.lock_algo ~homes
  in
  let n_keys = config.p * config.keys_per_proc in
  let key ~proc ~j = (config.keys_per_proc * proc) + j in
  for proc = 0 to config.p - 1 do
    for j = 0 to config.keys_per_proc - 1 do
      ignore
        (Khash.insert_untimed table (key ~proc ~j) ~status0:0 ~make:(fun _ -> ()))
    done
  done;
  let work = Config.cycles_of_us cfg config.element_work_us in
  let think = Config.cycles_of_us cfg config.think_us in
  let read_stat = Stat.create "lookup" in
  let update_stat = Stat.create "update" in
  let lookup =
    if config.optimistic then Khash.lookup else Khash.lookup_locked
  in
  let rng0 = Rng.create config.seed in
  for proc = 0 to config.p - 1 do
    let ctx = Ctx.create machine ~proc (Rng.split rng0) in
    Process.spawn eng (fun () ->
        let rng = Ctx.rng ctx in
        for _ = 1 to config.ops do
          if think > 0 then
            Ctx.work ctx ((think / 2) + Rng.int rng (max 1 think));
          if Rng.float rng < config.read_ratio then begin
            (* Read-only lookup of any key: readers roam the whole table,
               colliding with writers on every shard. A key can be absent
               mid-churn; the lookup's answer is still consistent. *)
            let k = Rng.int rng n_keys in
            let t0 = Machine.now machine in
            ignore (lookup table ctx k);
            Stat.add read_stat (Machine.now machine - t0)
          end
          else begin
            let k = key ~proc ~j:(Rng.int rng config.keys_per_proc) in
            if Rng.float rng < config.churn_fraction then begin
              (* Churn: delete the element and re-insert the key — the
                 chain mutations that drive the seqlock's writer side.
                 Our own keys are only ever written by us, so the
                 reservation must succeed. *)
              let t0 = Machine.now machine in
              (match Khash.reserve_existing table ctx k with
              | None -> assert false
              | Some _ -> ());
              let removed = Khash.remove table ctx k in
              assert removed;
              ignore (Khash.insert table ctx k ~make:(fun _ -> ()));
              Stat.add update_stat (Machine.now machine - t0)
            end
            else begin
              (* Update in place: element work under the granularity's
                 protection. *)
              let t0 = Machine.now machine in
              let r =
                Khash.with_element table ctx k (fun _ -> Ctx.work ctx work)
              in
              assert (r <> None);
              Stat.add update_stat (Machine.now machine - t0 - work)
            end
          end
        done)
  done;
  Engine.run eng;
  let makespan = Machine.now machine in
  let total_ops = config.p * config.ops in
  let makespan_us = Config.us_of_cycles cfg makespan in
  {
    shards = Khash.shards table;
    optimistic = config.optimistic && config.granularity = Khash.Sharded;
    read_summary = Measure.of_stat cfg ~label:"lookup" read_stat;
    update_summary = Measure.of_stat cfg ~label:"update" update_stat;
    makespan_us;
    throughput_ops_ms =
      (if makespan_us > 0.0 then float_of_int total_ops /. (makespan_us /. 1000.)
       else 0.0);
    optimistic_hits = Khash.optimistic_hits table;
    optimistic_fallbacks = Khash.optimistic_fallbacks table;
    reserve_conflicts = Khash.reserve_conflicts table;
    atomics = Machine.atomics machine;
    obs_rows = (match obs with Some o -> Obs.profile_rows o | None -> []);
  }
