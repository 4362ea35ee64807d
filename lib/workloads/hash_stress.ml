(* Hash-table locking-granularity ablation (experiment ABL1).

   Section 2.4 claims the hybrid strategy achieves, for concurrent
   independent requests, performance comparable to a pure fine-grained
   design — while a pure coarse-grained design serialises everything. This
   workload drives [p] processors through [Khash.with_element] on disjoint
   keys (plus a configurable fraction of shared-key operations) under all
   three granularities and reports latency, atomic-operation counts and the
   number of lock words each design needs. *)

open Eventsim
open Hector
open Locks
open Hkernel

type config = {
  p : int;
  keys_per_proc : int;
  ops : int; (* operations per processor *)
  element_work_us : float; (* work done while holding the element *)
  think_us : float; (* work between operations *)
  shared_fraction : float; (* chance an op targets a key of processor 0 *)
  lock_algo : Lock.algo;
  seed : int;
}

(* Defaults model one cluster's table at the paper's optimal cluster size:
   hierarchical clustering is what bounds the processors hitting a table,
   and the hybrid-vs-fine equivalence claim is made in that regime. *)
let default_config =
  {
    p = 4;
    keys_per_proc = 8;
    ops = 200;
    element_work_us = 10.0;
    think_us = 40.0;
    shared_fraction = 0.0;
    lock_algo = Lock.Mcs_h2;
    seed = 17;
  }

type result = {
  summary : Measure.summary;
  atomics : int;
  lock_words : int; (* space: coarse = 1; fine = bins + elements *)
  reserve_conflicts : int;
}

let run ?(cfg = Config.hector) ?(config = default_config) granularity =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let homes = List.init (Machine.n_procs machine) (fun i -> i) in
  let table =
    Khash.create machine ~granularity ~nbins:64 ~lock_algo:config.lock_algo
      ~homes
  in
  let key ~proc ~j = (1000 * proc) + j in
  for proc = 0 to config.p - 1 do
    for j = 0 to config.keys_per_proc - 1 do
      ignore (Khash.insert_untimed table (key ~proc ~j) ~status0:0 ~make:(fun _ -> ()))
    done
  done;
  let work = Config.cycles_of_us cfg config.element_work_us in
  let think = Config.cycles_of_us cfg config.think_us in
  let stat = Stat.create (Khash.granularity_name granularity) in
  let rng0 = Rng.create config.seed in
  for proc = 0 to config.p - 1 do
    let ctx = Ctx.create machine ~proc (Rng.split rng0) in
    Process.spawn eng (fun () ->
        let rng = Ctx.rng ctx in
        for _ = 1 to config.ops do
          if think > 0 then
            Ctx.work ctx ((think / 2) + Rng.int rng (max 1 think));
          let target_proc =
            if
              config.shared_fraction > 0.0
              && Rng.float rng < config.shared_fraction
            then 0
            else proc
          in
          let j = Rng.int rng config.keys_per_proc in
          let t0 = Machine.now machine in
          let r =
            Khash.with_element table ctx (key ~proc:target_proc ~j) (fun _ ->
                Ctx.work ctx work)
          in
          assert (r <> None);
          Stat.add stat (Machine.now machine - t0 - work)
        done)
  done;
  Engine.run eng;
  let lock_words =
    match granularity with
    | Khash.Hybrid | Khash.Coarse -> 1
    | Khash.Sharded -> Khash.shards table
    | Khash.Fine -> 64 + Khash.size table
  in
  {
    summary =
      Measure.of_stat cfg ~label:(Khash.granularity_name granularity) stat;
    atomics = Machine.atomics machine;
    lock_words;
    reserve_conflicts = Khash.reserve_conflicts table;
  }
