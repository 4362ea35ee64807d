(* Uncontended lock latency (Section 4.1.1).

   A single processor acquires and releases a local lock in a tight loop;
   the reported figure is the time per iteration, which — as in the paper's
   measurements — includes the measurement loop itself (counter update,
   branch, timer bookkeeping). *)

open Eventsim
open Hector
open Locks

(* Cycles of loop bookkeeping per iteration of the measurement loop. *)
let loop_overhead = 18

type result = {
  algo : Lock.algo;
  pair_us : float; (* measured lock+unlock+loop time *)
  predicted_us : float option; (* static model, where one exists *)
}

let model_algo = function
  | Lock.Mcs_original -> Some Instr_model.Mcs_original
  | Lock.Mcs_h1 -> Some Instr_model.Mcs_h1
  | Lock.Mcs_h2 -> Some Instr_model.Mcs_h2
  | Lock.Spin _ -> Some Instr_model.Spin
  | Lock.Mcs_cas | Lock.Null | Lock.Clh | Lock.Ticket | Lock.Anderson
  | Lock.Spin_then_block _ | Lock.Cohort _ | Lock.Hmcs _ | Lock.Cna _
  | Lock.Rw _ ->
    None

let run ?(cfg = Config.hector) ?(iters = 2000) algo =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let lock = Lock.make machine ~home:0 algo in
  let ctx = Ctx.create machine ~proc:0 (Rng.create 99) in
  let total = ref 0 in
  Process.spawn eng (fun () ->
      for _ = 1 to iters do
        let t0 = Machine.now machine in
        lock.Lock.acquire ctx;
        lock.Lock.release ctx;
        Ctx.work ctx loop_overhead;
        total := !total + (Machine.now machine - t0)
      done);
  Engine.run eng;
  {
    algo;
    pair_us = Config.us_of_cycles cfg !total /. float_of_int iters;
    predicted_us =
      Option.map
        (fun a ->
          Config.us_of_cycles cfg (Instr_model.predicted_cycles cfg a + loop_overhead))
        (model_algo algo);
  }

let algos =
  [ Lock.Mcs_original; Lock.Mcs_h1; Lock.Mcs_h2;
    Lock.Spin { max_backoff_us = 35.0 } ]

let run_all ?cfg ?iters () = List.map (fun a -> run ?cfg ?iters a) algos
