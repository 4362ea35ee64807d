(* Planted-violation probes for the lockdep checker.

   Each probe builds a tiny workload that commits exactly one class of
   locking error on purpose — an inverted acquisition order, a leaked
   reserve bit, a reserve wait inside an interrupt handler, a holder that
   stalls forever, a true ABBA deadlock — runs it under a checker, and
   reports whether the checker caught it. [Clean] runs a fault-free storm
   under the same checker and must report zero violations: the probes
   establish both directions, that the checker fires on every planted
   class and that it stays silent on correct code.

   The two watchdog probes ([Stalled_holder], [Deadlock]) would spin to
   the event budget without the checker; with it they terminate with a
   structured {!Verify.Violation} carrying a per-processor dump — the
   property the watchdog exists for. *)

open Eventsim
open Hector
open Locks

type probe =
  | Abba
  | Leak
  | Interrupt_spin
  | Stalled_holder
  | Deadlock
  | Aborted_waiter
  | Dead_owner
  | Clean

let probe_name = function
  | Abba -> "abba-order"
  | Leak -> "reserve-leak"
  | Interrupt_spin -> "interrupt-spin"
  | Stalled_holder -> "stalled-holder"
  | Deadlock -> "deadlock"
  | Aborted_waiter -> "aborted-waiter"
  | Dead_owner -> "dead-owner"
  | Clean -> "clean"

let all =
  [
    Abba;
    Leak;
    Interrupt_spin;
    Stalled_holder;
    Deadlock;
    Aborted_waiter;
    Dead_owner;
    Clean;
  ]

type result = {
  probe : probe;
  expected : Verify.kind option; (* [None]: no violation expected *)
  violations : int; (* all violations recorded *)
  hits : int; (* violations of the expected kind *)
  aborted : bool; (* run terminated by the watchdog raising *)
  ok : bool; (* planted class caught, or clean run silent *)
  first : string; (* first violation, for display *)
}

let expected_kind = function
  | Abba -> Some Verify.Order_cycle
  | Leak -> Some Verify.Reserve_leak
  | Interrupt_spin -> Some Verify.Interrupt_wait
  | Stalled_holder -> Some Verify.Stall
  | Deadlock -> Some Verify.Deadlock_cycle
  | Aborted_waiter -> None
  | Dead_owner -> None
  | Clean -> None

let setup () =
  let cfg = Config.hector in
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let rng = Rng.create 7 in
  let ctxs =
    Array.init (Config.n_procs cfg) (fun proc ->
        Ctx.create machine ~proc (Rng.split rng))
  in
  let v = Verify.create ~n_procs:(Config.n_procs cfg) () in
  Machine.set_verify machine (Some v);
  (eng, machine, ctxs, v)

(* Both orders are exercised, but staggered so they never overlap: the
   inversion is only *possible*, never strikes. The order graph must
   report it anyway — that is the point of checking orderings rather than
   waiting for the unlucky interleaving. *)
let run_abba () =
  let eng, machine, ctxs, v = setup () in
  let a = Mcs.create ~home:0 ~vclass:"probe.A" machine in
  let b = Mcs.create ~home:1 ~vclass:"probe.B" machine in
  Process.spawn eng (fun () ->
      let ctx = ctxs.(0) in
      Mcs.acquire a ctx;
      Mcs.acquire b ctx;
      Ctx.work ctx 200;
      Mcs.release b ctx;
      Mcs.release a ctx);
  Process.spawn_at eng ~at:50_000 (fun () ->
      let ctx = ctxs.(1) in
      Mcs.acquire b ctx;
      Mcs.acquire a ctx;
      Ctx.work ctx 200;
      Mcs.release a ctx;
      Mcs.release b ctx);
  Engine.run eng;
  Verify.finish v ~now:(Engine.now eng);
  (v, false)

let run_leak () =
  let eng, machine, ctxs, v = setup () in
  let word = Machine.alloc machine ~label:"probe.leak" ~home:0 0 in
  Process.spawn eng (fun () ->
      let ctx = ctxs.(0) in
      let got = Reserve.try_reserve ~cls:(Verify.lock_class "probe.leak") ctx word in
      assert got;
      Ctx.work ctx 500
      (* ... and the clear is forgotten. *));
  Engine.run eng;
  Verify.finish v ~now:(Engine.now eng);
  (v, false)

let run_interrupt_spin () =
  let eng, machine, ctxs, v = setup () in
  let word = Machine.alloc machine ~label:"probe.irq" ~home:0 0 in
  let cls = Verify.lock_class "probe.irq" in
  Process.spawn eng (fun () ->
      let ctx = ctxs.(0) in
      let got = Reserve.try_reserve ~cls ctx word in
      assert got;
      (* An interrupt handler must fail with Would_deadlock instead of
         waiting (Section 2.3); this one spins. The owner clears shortly
         after, so the run still terminates — the violation is the wait
         itself, not a hang. *)
      Ctx.post_ipi ctxs.(1) (fun tctx ->
          let bo = Backoff.create ~max_cycles:100 () in
          Reserve.spin_until_clear ~cls tctx bo word);
      Ctx.interruptible_pause ctx 2_000;
      Reserve.clear ctx word);
  Process.spawn eng (fun () -> Ctx.idle_loop ctxs.(1));
  Engine.run eng;
  Verify.finish v ~now:(Engine.now eng);
  (v, false)

let run_stalled_holder () =
  let eng, machine, ctxs, v = setup () in
  let word = Machine.alloc machine ~label:"probe.stall" ~home:0 0 in
  let cls = Verify.lock_class "probe.stall" in
  Process.spawn eng (fun () ->
      let ctx = ctxs.(0) in
      let got = Reserve.try_reserve ~cls ctx word in
      assert got
      (* The holder's process ends here — a crashed or preempted holder.
         Nothing will ever clear the bit. *));
  Process.spawn_at eng ~at:1_000 (fun () ->
      let ctx = ctxs.(1) in
      let bo = Backoff.create ~max_cycles:200 () in
      (* Unbounded spin: without the watchdog this never returns. *)
      Reserve.spin_until_clear ~cls ctx bo word);
  Verify.watchdog ~period:5_000 ~stall_limit:50_000 v eng;
  let aborted =
    match Engine.run eng with
    | () -> false
    | exception Verify.Violation _ -> true
  in
  (v, aborted)

let run_deadlock () =
  let eng, machine, ctxs, v = setup () in
  let a = Mcs.create ~home:0 ~vclass:"probe.DA" machine in
  let b = Mcs.create ~home:1 ~vclass:"probe.DB" machine in
  let grab first second ctx =
    Mcs.acquire first ctx;
    Ctx.interruptible_pause ctx 1_000;
    (* By now the other processor holds [second]: a true ABBA deadlock. *)
    Mcs.acquire second ctx;
    Mcs.release second ctx;
    Mcs.release first ctx
  in
  Process.spawn eng (fun () -> grab a b ctxs.(0));
  Process.spawn eng (fun () -> grab b a ctxs.(1));
  Verify.watchdog ~period:5_000 v eng;
  let aborted =
    match Engine.run eng with
    | () -> false
    | exception Verify.Violation _ -> true
  in
  (v, aborted)

(* The negative twin of [Deadlock]: the same ABBA shape, but the inner
   acquisitions are timed — each waiter's deadline expires, it abandons,
   retreats (releasing its outer lock) and retries. The run self-resolves,
   so the checker must report NOTHING: timed waits record no order edges
   (an abortable waiter can never be the permanently-waiting side of a
   deadlock), the cycle detector skips timed frames, and the watchdog must
   not count a bounded, expiring wait as a stall. A checker without those
   rules reports a phantom Order_cycle or Deadlock_cycle here. *)
let run_aborted_waiter () =
  let eng, machine, ctxs, v = setup () in
  let a = Mcs.create ~home:0 ~vclass:"probe.TA" machine in
  let b = Mcs.create ~home:1 ~vclass:"probe.TB" machine in
  let grab first second ~backoff ctx =
    Mcs.acquire first ctx;
    Ctx.interruptible_pause ctx 1_000;
    (* By now the other processor holds [second]: with untimed inner
       acquisitions this is the [Deadlock] probe. *)
    let rec attempt () =
      if not (Mcs.acquire_with_timeout second ctx ~timeout:20_000) then begin
        (* Deadline expired: retreat — release what we hold so the other
           side can finish — and retry after an (asymmetric) pause. *)
        Mcs.release first ctx;
        Ctx.interruptible_pause ctx backoff;
        Mcs.acquire first ctx;
        attempt ()
      end
    in
    attempt ();
    Ctx.work ctx 200;
    Mcs.release second ctx;
    Mcs.release first ctx
  in
  Process.spawn eng (fun () -> grab a b ~backoff:2_000 ctxs.(0));
  Process.spawn eng (fun () -> grab b a ~backoff:8_000 ctxs.(1));
  Verify.watchdog ~period:5_000 v eng;
  let aborted =
    match Engine.run eng with
    | () -> false
    | exception Verify.Violation _ -> true
  in
  ignore machine;
  (v, aborted)

(* The second negative probe, for the crash path: the holder fail-stops
   mid-critical-section and a survivor force-releases the corpse's hold
   exactly as [Lock.acquire_recoverable]'s detector does. The checker saw
   the crash ([Verify.Proc_crashed]), so the foreign release must be
   legalised as a recovery transfer — [ok] demands zero violations AND a
   recorded recovery, so a checker that silently dropped the crash
   bookkeeping (reporting nothing but transferring nothing) still fails. *)
let run_dead_owner () =
  let eng, machine, ctxs, v = setup () in
  let l = Mcs.create ~home:0 ~vclass:"probe.dead" machine in
  Process.spawn eng (fun () ->
      let ctx = ctxs.(0) in
      Mcs.acquire l ctx;
      (* A hold far past every deadline below: the kill lands mid-way. *)
      Ctx.work ctx 1_000_000);
  Process.spawn_at eng ~at:500 (fun () ->
      let ctx = ctxs.(1) in
      Machine.kill_proc machine 0;
      (* The detector loop [Lock.acquire_recoverable] runs, inlined: timed
         slices, and on each expiry a recovery pass against the oracle. *)
      let rec go () =
        if not (Mcs.acquire_with_timeout l ctx ~timeout:2_000) then begin
          ignore (Mcs.recover l ctx);
          go ()
        end
      in
      go ();
      Ctx.work ctx 200;
      Mcs.release l ctx);
  Engine.run eng;
  Verify.finish v ~now:(Engine.now eng);
  (v, false)

(* A fault-free storm is real concurrent traffic over every checked
   mechanism — MCS (timed and plain), reserve bits, RPC; the checker must
   stay silent on it. *)
let run_clean () =
  let v = Verify.create ~n_procs:(Config.n_procs Config.hector) () in
  let config =
    {
      Fault_storm.default_config with
      window_us = 5_000.0;
      stall_every_us = 0.0;
    }
  in
  let (_ : Fault_storm.result) =
    Fault_storm.run ~config ~verify:v Fault_storm.Timeout
  in
  (v, false)

let run probe =
  let v, aborted =
    match probe with
    | Abba -> run_abba ()
    | Leak -> run_leak ()
    | Interrupt_spin -> run_interrupt_spin ()
    | Stalled_holder -> run_stalled_holder ()
    | Deadlock -> run_deadlock ()
    | Aborted_waiter -> run_aborted_waiter ()
    | Dead_owner -> run_dead_owner ()
    | Clean -> run_clean ()
  in
  let expected = expected_kind probe in
  let violations = Verify.violation_count v in
  let hits =
    match expected with None -> 0 | Some k -> Verify.count_kind v k
  in
  let ok =
    match expected with
    | None ->
      violations = 0
      && (probe <> Dead_owner || Verify.recoveries v > 0)
    | Some _ -> hits > 0
  in
  let first =
    match Verify.violations v with
    | [] -> ""
    | viol :: _ -> Format.asprintf "%a" Verify.pp_violation viol
  in
  { probe; expected; violations; hits; aborted; ok; first }

let run_all () = List.map run all

let expected_name r =
  match r.expected with None -> "none" | Some k -> Verify.kind_name k
