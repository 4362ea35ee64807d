(* Lock contention stress (Figure 5).

   [p] processors repeatedly acquire and release the same lock, holding it
   for [hold_us] of critical-section work. The critical section is partly
   memory work on data co-located with the lock — that coupling is what lets
   remote spinning stretch the holder's critical section (the second-order
   effect of Section 2.1). The run is time-bounded: all processors contend
   for the whole measurement window, so unfairness shows up as a latency
   tail rather than an early exit.

   Reported latency is acquisition time: from the start of the acquire to
   lock entry, plus the release (the paper's "response time" of a
   lock/unlock pair under contention), excluding the critical section. *)

open Eventsim
open Hector
open Locks

type config = {
  p : int;
  hold_us : float;
  think_us : float; (* per-iteration measurement-loop bookkeeping *)
  warmup_us : float;
  window_us : float;
  seed : int;
}

let default_config =
  {
    p = 16;
    hold_us = 0.0;
    think_us = 3.0;
    warmup_us = 200.0;
    window_us = 20_000.0;
    seed = 7;
  }

type result = {
  summary : Measure.summary;
  acquisitions : int;
  lock_mem_utilization : float; (* of the lock's home memory module *)
  atomics : int;
}

let run ?(cfg = Config.hector) ?(config = default_config) algo =
  if config.p < 1 || config.p > Config.n_procs cfg then
    invalid_arg
      (Printf.sprintf "Lock_stress.run: p must be in 1..%d (got %d)"
         (Config.n_procs cfg) config.p);
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let lock = Lock.make machine ~home:0 algo in
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
              (* The critical section touches the protected data (which
                 lives beside the lock) roughly every 40 cycles. *)
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
            (* Loop bookkeeping between iterations (timer read, counter
               update) — local work, jittered. *)
            if think > 0 then
              Ctx.work ctx ((think / 2) + Rng.int (Ctx.rng ctx) (max 1 think));
            loop ()
          end
        in
        loop ())
  done;
  Engine.run eng;
  let horizon = Engine.now eng in
  {
    summary = Measure.of_stat cfg ~label:(Lock.algo_name algo) stat;
    acquisitions = !acquisitions;
    lock_mem_utilization =
      Resource.utilization (Machine.mem_resource machine 0) ~horizon;
    atomics = Machine.atomics machine;
  }
