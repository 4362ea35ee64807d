(* Spin-then-block lock (Section 5.3).

   TORNADO's direction: a more process-oriented kernel where waiters spin
   only briefly and then block, yielding the processor. In the simulation,
   "blocking" parks the waiting process on the lock's wait list (no events,
   no memory traffic) until a releaser hands the lock over and wakes it.

   The fast path is a test&set, so the uncontended cost matches a spin
   lock; the block path adds a wake-up hand-off latency but removes all
   spinning traffic — the right trade once critical sections are long or
   processors have other work to run. *)

open Eventsim
open Hector

type waiter = { proc : int; resume : unit -> unit; granted : bool ref }

type t = {
  flag : Cell.t; (* 0 free, 1 held *)
  spin_cycles : int; (* how long to spin before blocking *)
  waiters : waiter Queue.t;
  machine : Machine.t;
  mutable acquisitions : int;
  mutable blocks : int; (* waiters that gave up spinning *)
  mutable handoffs : int; (* releases that woke a blocked waiter *)
  vcls : Verify.lock_class;
  vid : int;
}

let create ?(home = 0) ?(spin_us = 5.0) ?(vclass = "stb") machine =
  {
    flag = Machine.alloc machine ~label:"stb" ~home 0;
    spin_cycles = Config.cycles_of_us (Machine.config machine) spin_us;
    waiters = Queue.create ();
    machine;
    acquisitions = 0;
    blocks = 0;
    handoffs = 0;
    vcls = Verify.lock_class vclass;
    vid = Machine.fresh_lock_id machine;
  }

let flag t = t.flag
let acquisitions t = t.acquisitions
let blocks t = t.blocks
let handoffs t = t.handoffs
let is_held t = Cell.peek t.flag <> 0

let acquire t ctx =
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait (t.vcls, t.vid));
  let deadline = Machine.now t.machine + t.spin_cycles in
  let rec spin delay =
    if Ctx.test_and_set ctx t.flag = 0 then begin
      Ctx.instr ctx ~reg:1 ~br:2 ();
      t.acquisitions <- t.acquisitions + 1;
      if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid))
    end
    else if Machine.now t.machine < deadline then begin
      Ctx.instr ctx ~reg:1 ~br:1 ();
      Ctx.work ctx delay;
      spin (min (delay * 2) 64)
    end
    else block ()
  and block () =
    (* Block: enqueue and deschedule. The releaser transfers ownership
       directly (the flag stays 1), so no thundering herd on wake-up. *)
    t.blocks <- t.blocks + 1;
    Ctx.work ctx 30 (* enqueue + context-switch entry *);
    (* The holder may have released during that entry work — and a releaser
       that finds an empty wait list just clears the flag, so sleeping now
       would be forever. The check and the enqueue are one host-atomic step
       against release's pop-or-clear, so one side always sees the other. *)
    if Cell.peek t.flag = 0 then spin 8
    else begin
      let granted = ref false in
      Process.suspend (fun resume ->
          Queue.push { proc = Ctx.proc ctx; resume; granted } t.waiters);
      Ctx.work ctx 30 (* context-switch exit *);
      if !granted then begin
        (* Woken with the lock already ours. *)
        t.acquisitions <- t.acquisitions + 1;
        if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid))
      end
      else
        (* Spurious wake: our enqueue raced a clearing release (the swap
           applies at its completion instant, after the releaser's empty
           check). The lock is free; retry — the spin phase is spent, so
           this either wins the test&set or blocks again properly. *)
        spin 8
    end
  in
  spin 8

(* Single test&set attempt, never blocking. (Deliberately does not count
   towards [acquisitions], which tracks the blocking-path statistics.) *)
let try_acquire t ctx =
  if Ctx.test_and_set ctx t.flag = 0 then begin
    if Ctx.hooked ctx then Ctx.emit ctx (Verify.Try_acquired (t.vcls, t.vid));
    true
  end
  else false

let release t ctx =
  (* Hook first: both branches below can transfer the lock (the clearing
     swap, or the hand-off whose wake-up work suspends us while the woken
     waiter runs), so an observer must order our release before the
     successor's acquisition. *)
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Released (t.vcls, t.vid));
  if Queue.is_empty t.waiters then begin
    ignore (Ctx.fetch_and_store ctx t.flag 0);
    Ctx.instr ctx ~br:1 ();
    (* A waiter may have enqueued while the clearing swap was in flight (it
       applies at completion time, after the empty check above). The lock
       is free now, so nobody may stay parked: wake them ungranted — they
       re-contend from the spin loop. *)
    while not (Queue.is_empty t.waiters) do
      let w = Queue.pop t.waiters in
      Engine.schedule_after (Machine.engine t.machine) ~delay:0 w.resume
    done
  end
  else begin
    (* Direct hand-off: the flag stays held; wake the first waiter. *)
    let w = Queue.pop t.waiters in
    w.granted := true;
    t.handoffs <- t.handoffs + 1;
    Ctx.work ctx 20 (* wake-up IPI / scheduler insertion *);
    Engine.schedule_after (Machine.engine t.machine) ~delay:0 w.resume;
    Ctx.instr ctx ~br:1 ()
  end

(* Blocking hands the processor to the scheduler: there is no waiter state
   to retract and wakeup is the scheduler's promise, so the timed face
   blocks; a dead holder's parked waiters are beyond the lock's reach. *)
module Core = struct
  type nonrec t = t

  let acquire = acquire
  let release = release
  let try_acquire = try_acquire

  let try_acquire_for t ctx ~deadline:_ =
    acquire t ctx;
    true

  let abortable _ = false
  let recover _ _ = false
  let recoverable _ = false
  let is_free t = not (is_held t)
  let waiters t = not (Queue.is_empty t.waiters)
  let acquisitions = acquisitions
  let vclass t = t.vcls
  let vid t = t.vid
end
