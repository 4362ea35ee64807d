(* Lock-free vs locked single-word updates (Section 5.3, experiment ABL7).

   [p] processors each add to one shared counter [ops] times. The lock-free
   version is a CAS retry loop; the locked versions take a lock around a
   read-modify-write. On a cache-coherent CAS machine (NUMAchine preset)
   the lock-free version saves both the lock words and half the coherence
   transfers; the experiment reports throughput and correctness (the final
   count is exact in all versions). *)

open Eventsim
open Hector
open Locks

type mode = Lock_free | Locked of Lock.algo

let mode_name = function
  | Lock_free -> "lock-free"
  | Locked algo -> "locked(" ^ Lock.algo_name algo ^ ")"

type config = { p : int; ops : int; think : int; seed : int }

let default_config = { p = 8; ops = 100; think = 60; seed = 41 }

type result = {
  per_op_us : float;
  final_value : int;
  expected_value : int;
  cas_failures : int;
  atomics : int;
}

let run ?(cfg = Config.numachine) ?(config = default_config) mode =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let counter = Lockfree.make_counter machine ~home:0 0 in
  let lock =
    match mode with
    | Lock_free -> None
    | Locked algo -> Some (Lock.make machine ~home:0 algo)
  in
  let rng = Rng.create config.seed in
  for proc = 0 to config.p - 1 do
    let ctx = Ctx.create machine ~proc (Rng.split rng) in
    Process.spawn eng (fun () ->
        for _ = 1 to config.ops do
          (match lock with
          | None -> ignore (Lockfree.counter_incr counter ctx)
          | Some l ->
            l.Lock.acquire ctx;
            let v = Ctx.read ctx (Lockfree.counter_cell counter) in
            Ctx.write ctx (Lockfree.counter_cell counter) (v + 1);
            l.Lock.release ctx);
          if config.think > 0 then
            Ctx.work ctx (1 + Rng.int (Ctx.rng ctx) config.think)
        done)
  done;
  Engine.run eng;
  let total = Engine.now eng in
  let n_ops = config.p * config.ops in
  {
    per_op_us = Config.us_of_cycles cfg total /. float_of_int n_ops;
    final_value = Lockfree.counter_value counter;
    expected_value = n_ops;
    cas_failures = Lockfree.counter_cas_failures counter;
    atomics = Machine.atomics machine;
  }
