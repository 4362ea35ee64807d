(* Crash-injection tests: the fail-stop machinery (liveness oracle, fiber
   parking, fail-restart revival), crash-recoverable locking across the
   whole family (qcheck safety under planted mid-CS kills), the
   CRASH-STORM acceptance facts, structure repair (shard locks, seqlock
   roll-forward, orphaned reserve bits), the RPC dead-target outcome, the
   unified kind-tagged fault log, and the zero-cost-when-off identities. *)

open Eventsim
open Hector
open Hkernel
open Locks
open Workloads

(* Every algorithm in the capability table whose built instance can repair
   a dead holder ([Lock.t.recoverable]): the whole family except
   Spin_then_block (blocked waiters belong to the scheduler) and Null.
   Ticket is here despite being non-abortable — its waiters run the
   dead-holder check inside their own spin. *)
let recoverable_algos = Test_lock_family.algos_where (fun l -> l.Lock.recoverable)

(* -- the fail-stop machinery ------------------------------------------------- *)

let test_fail_stop_parks () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  Alcotest.(check bool) "alive at start" true (Machine.proc_alive machine 3);
  Alcotest.(check int) "not killed" (-1) (Machine.killed_at machine 3);
  let ctx = Ctx.create machine ~proc:3 (Rng.create 1) in
  let progressed = ref 0 in
  Process.spawn eng (fun () ->
      Ctx.work ctx 10;
      incr progressed;
      (* The kill lands inside this sleep; the in-flight operation
         completes, and the *next* operation boundary parks the fiber. *)
      Ctx.work ctx 10_000;
      incr progressed;
      Ctx.work ctx 10;
      incr progressed);
  Engine.schedule eng ~at:50 (fun () -> Machine.kill_proc machine 3);
  Engine.run eng;
  Alcotest.(check int) "parked at the next boundary" 2 !progressed;
  Alcotest.(check bool) "oracle sees the death" false
    (Machine.proc_alive machine 3);
  Alcotest.(check int) "killed_at recorded" 50 (Machine.killed_at machine 3);
  Alcotest.(check int) "crash counted" 1 (Machine.crashes machine)

let test_fail_restart_revives () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let reborn = ref (-1) in
  Machine.set_restart_handler machine (fun proc -> reborn := proc);
  Engine.schedule eng ~at:10 (fun () ->
      Machine.kill_proc ~restart_after:90 machine 5);
  Engine.run eng;
  Alcotest.(check bool) "alive again" true (Machine.proc_alive machine 5);
  Alcotest.(check int) "killed_at cleared" (-1) (Machine.killed_at machine 5);
  Alcotest.(check int) "restart counted" 1 (Machine.restarts machine);
  Alcotest.(check int) "handler told which processor" 5 !reborn

(* -- recoverable locking: qcheck safety under planted mid-CS kills ----------- *)

(* Drive [p] processors through recoverable acquisitions while [n_kills]
   victims each fail-stop once, mid-critical-section, at a random
   iteration. Invariants checked:
   - mutual exclusion modulo recovery: an acquirer may only find the
     previous occupant still "inside" if that occupant is dead;
   - conservation: completed critical sections equal the non-killed
     iterations exactly; every successful acquisition is either a win or
     a planted kill;
   - eventual progress: every survivor's final recoverable acquire goes
     through even when the last corpse still holds the lock (a wedged
     hand-off shows up as an engine deadlock, caught by the wrapper);
   - a fully free lock at quiescence. *)
let crash_stress ~algo ~p ~n_kills ~iters ~hold ~think ~seed =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.numachine in
  let lock = Lock.make machine algo in
  assert lock.Lock.recoverable;
  let rng = Rng.create seed in
  let occupant = ref (-1) in
  let excl = ref true in
  let wins = ref 0 in
  let kills = ref 0 in
  let expected_wins = ref 0 in
  for proc = 0 to p - 1 do
    let ctx = Ctx.create machine ~proc (Rng.split rng) in
    (* Victims are procs 1..n_kills; proc 0 always survives to drain. *)
    let kill_at =
      if proc >= 1 && proc <= n_kills then 1 + Rng.int rng iters else -1
    in
    expected_wins :=
      !expected_wins + (if kill_at < 0 then iters + 1 else kill_at - 1);
    Process.spawn eng (fun () ->
        let r = Ctx.rng ctx in
        for i = 1 to iters do
          Lock.acquire_recoverable ~check_period:500 lock ctx;
          if !occupant >= 0 && Machine.proc_alive machine !occupant then
            excl := false;
          occupant := proc;
          if hold > 0 then Ctx.work ctx (1 + Rng.int r hold);
          if i = kill_at then begin
            incr kills;
            Machine.kill_proc machine proc;
            (* Parks here: the release below never runs. *)
            Ctx.work ctx 1
          end;
          occupant := -1;
          incr wins;
          lock.Lock.release ctx;
          if think > 0 then Ctx.work ctx (1 + Rng.int r think)
        done;
        (* Eventual progress: survivors must still get in, recovering the
           last corpse themselves if need be. A victim's doomed acquisition
           may land after every survivor's loop has finished (random think
           times), so wait for all planted kills first — only a processor
           that outlives the last corpse can observe the free-at-quiescence
           invariant. Victims never reach this point: they park mid-loop. *)
        while !kills < n_kills do
          Ctx.work ctx 500
        done;
        Lock.acquire_recoverable ~check_period:500 lock ctx;
        if !occupant >= 0 && Machine.proc_alive machine !occupant then
          excl := false;
        occupant := proc;
        Ctx.work ctx 5;
        occupant := -1;
        incr wins;
        lock.Lock.release ctx)
  done;
  Engine.run eng;
  !excl
  && !kills = n_kills
  && !wins = !expected_wins
  && !(lock.Lock.acquires) = !wins + !kills
  && Machine.crashes machine = n_kills
  && lock.Lock.is_free ()

(* Regression: a qcheck-found input where CLH wedged. Two survivors both
   ended up inside [recover]'s free-lock pump (their timed nodes were
   abandoned in the queue) when the last victim acquired and fail-stopped
   mid-critical-section — with every survivor pumping, no one was left to
   run dead-holder recovery, and both pumps spun on the corpse's locked
   node until the event budget blew. The pump is now a dead-aware rescuer
   of last resort (clh.ml [rescue_dead_holder]). *)
let test_clh_pump_rescue () =
  Alcotest.(check bool) "CLH survives the all-survivors-pumping kill" true
    (crash_stress ~algo:Lock.Clh ~p:4 ~n_kills:2 ~iters:6 ~hold:7 ~think:30
       ~seed:4315)

(* Regression: qcheck-found inputs where Adaptive(CNA) failed [release]'s
   holder assertion. [Adaptive.recover] cleared [t.holder] after the
   shape's recover returned, but that recover suspends while it forces the
   hand-off, and the successor validated and registered itself in between;
   the stale clear then wiped the successor's registration. *)
let test_adaptive_recover_keeps_successor () =
  List.iter
    (fun (p, n_kills, hold, seed) ->
      Alcotest.(check bool)
        (Printf.sprintf "Adaptive p=%d n_kills=%d hold=%d seed=%d" p n_kills
           hold seed)
        true
        (crash_stress ~algo:Lock.adaptive ~p ~n_kills ~iters:6 ~hold ~think:30
           ~seed))
    [ (6, 1, 26, 7549); (4, 1, 24, 5506) ]

let prop_crash_safety =
  QCheck.Test.make
    ~name:"every recoverable Lock.algo: safety under planted mid-CS kills"
    ~count:25
    QCheck.(
      quad (int_range 2 8) (int_range 1 3) (int_range 0 60) (int_range 0 10000))
    (fun (p, n_kills, hold, seed) ->
      let n_kills = min n_kills (p - 1) in
      List.for_all
        (fun algo ->
          match
            crash_stress ~algo ~p ~n_kills ~iters:6 ~hold ~think:30 ~seed
          with
          | ok -> ok
          | exception _ -> false)
        recoverable_algos)

(* -- the CRASH-STORM acceptance ---------------------------------------------- *)

let test_crash_storm () =
  let config =
    { Crash_storm.default_config with Crash_storm.window_us = 6000.0 }
  in
  List.iter
    (fun algo ->
      let r = Crash_storm.run ~config algo in
      let name = Lock.algo_name algo in
      Alcotest.(check int)
        (name ^ " kills planted")
        config.Crash_storm.n_kills r.Crash_storm.kills;
      Alcotest.(check int)
        (name ^ " observer saw every crash")
        r.Crash_storm.kills r.Crash_storm.obs_crashes;
      Alcotest.(check bool)
        (name ^ " every kill recovered")
        true
        (r.Crash_storm.obs_recoveries >= r.Crash_storm.kills);
      Alcotest.(check bool)
        (name ^ " lockdep legalised the forced releases")
        true
        (r.Crash_storm.lockdep_recoveries >= r.Crash_storm.kills);
      Alcotest.(check int)
        (name ^ " lockdep violations")
        0 r.Crash_storm.lockdep_violations;
      Alcotest.(check bool)
        (name ^ " latency sample per kill")
        true
        (r.Crash_storm.recovery.Measure.n >= r.Crash_storm.kills);
      Alcotest.(check bool)
        (name ^ " kills span clusters")
        true
        (List.length r.Crash_storm.by_cluster >= 2);
      Alcotest.(check bool)
        (name ^ " workers kept acquiring")
        true
        (r.Crash_storm.acquisitions > 0);
      Alcotest.(check bool)
        (name ^ " free after the surviving drain")
        true r.Crash_storm.final_free)
    (Lock.Mcs_h2 :: Lock.Clh :: Lock.Ticket :: Lock.all_numa_algos)

(* -- structure repair: khash shard, seqlock, reserve bits -------------------- *)

let test_khash_crash_repair () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let t =
    Khash.create ~granularity:Khash.Sharded ~nbins:16 ~shards:4
      ~lock_algo:Lock.Mcs_original ~homes:[ 0; 4; 8; 12 ] machine
  in
  for k = 0 to 9 do
    ignore (Khash.insert_untimed t k ~status0:0 ~make:(fun _ -> ()))
  done;
  let key = 5 in
  let s = Khash.shard_of_key t key in
  let rng = Rng.create 3 in
  let ctx1 = Ctx.create machine ~proc:1 (Rng.split rng) in
  let ctx0 = Ctx.create machine ~proc:0 (Rng.split rng) in
  let reserved = ref None in
  Process.spawn eng (fun () ->
      (* Take a reservation, the shard lock, and open a write section —
         then die holding all three. *)
      (match Khash.reserve_existing t ctx1 key with
      | Some e -> reserved := Some e
      | None -> ());
      let lk = Khash.shard_lock t s in
      lk.Lock.acquire ctx1;
      Seqlock.write_begin (Khash.seqlock t s) ctx1;
      Machine.kill_proc machine 1;
      Ctx.work ctx1 1);
  let repairs = ref 0 in
  Process.spawn eng (fun () ->
      Ctx.work ctx0 5_000 (* let processor 1 die first *);
      repairs := Khash.recover t ctx0;
      (* The table is fully usable again: the element re-reserves. *)
      match Khash.reserve_existing t ctx0 key with
      | Some e -> Khash.release_reserve ctx0 e
      | None -> Alcotest.fail "key vanished during repair");
  Engine.run eng;
  Alcotest.(check int) "three repairs: seqlock, shard lock, reserve bit" 3
    !repairs;
  Alcotest.(check bool) "sequence word even again" false
    (Seqlock.write_in_progress (Khash.seqlock t s));
  Alcotest.(check int) "seqlock repair counted" 1
    (Seqlock.repairs (Khash.seqlock t s));
  Alcotest.(check int) "a repair is not a completed write" 0
    (Seqlock.writes (Khash.seqlock t s));
  Alcotest.(check bool) "shard lock free" true
    ((Khash.shard_lock t s).Lock.is_free ());
  match !reserved with
  | None -> Alcotest.fail "reservation never taken"
  | Some e ->
    Alcotest.(check bool) "reserve bit swept" false
      (Reserve.write_reserved e.Khash.status);
    Alcotest.(check int) "owner bookkeeping cleared" (-1) e.Khash.reserver

let test_repair_noops_on_the_living () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let sq = Seqlock.create machine () in
  let status = Machine.alloc machine ~label:"h0" ~home:0 0 in
  let rng = Rng.create 9 in
  let ctx0 = Ctx.create machine ~proc:0 (Rng.split rng) in
  let ctx1 = Ctx.create machine ~proc:1 (Rng.split rng) in
  Process.spawn eng (fun () ->
      ignore (Reserve.try_reserve ctx0 status);
      Seqlock.write_begin sq ctx0;
      Ctx.work ctx0 1_000;
      Seqlock.write_end sq ctx0);
  Process.spawn eng (fun () ->
      Ctx.work ctx1 100;
      (* A live writer mid-section is not a crash. *)
      Alcotest.(check bool) "no roll on a live writer" false
        (Seqlock.recover_write sq ctx1);
      Alcotest.(check bool) "no sweep of a live owner" false
        (Reserve.clear_orphan ctx1 status ~dead:0);
      Ctx.work ctx1 2_000;
      (* After a clean write_end there is nothing to roll. *)
      Alcotest.(check bool) "no roll after clean end" false
        (Seqlock.recover_write sq ctx1);
      Alcotest.(check bool) "no sweep without an owner" false
        (Reserve.clear_orphan ctx1 status ~dead:(-1)));
  Engine.run eng;
  Alcotest.(check int) "no repairs counted" 0 (Seqlock.repairs sq);
  Alcotest.(check bool) "reservation intact" true (Reserve.write_reserved status)

(* -- RPC: dead targets are a distinct, terminal outcome ---------------------- *)

let test_rpc_dead_target_upfront () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let rng = Rng.create 11 in
  let ctxs =
    Array.init 16 (fun p -> Ctx.create machine ~proc:p (Rng.split rng))
  in
  let rpc = Rpc.create machine ctxs Costs.default in
  Machine.kill_proc machine 8;
  let got = ref None in
  Process.spawn eng (fun () ->
      got := Some (Rpc.call rpc ctxs.(0) ~target:8 (fun _ -> Rpc.Ok 1)));
  Engine.run eng;
  Alcotest.(check bool) "refused up front" true (!got = Some Rpc.Dead_target);
  Alcotest.(check int) "counted" 1 (Rpc.dead_targets rpc)

let test_rpc_dead_target_on_resend () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let rng = Rng.create 12 in
  let ctxs =
    Array.init 16 (fun p -> Ctx.create machine ~proc:p (Rng.split rng))
  in
  let rpc = Rpc.create machine ctxs Costs.default in
  let plan = Fault.create { Fault.disabled with reply_timeout = 2_000 } in
  Rpc.set_fault_plan rpc (Some plan);
  Process.spawn eng (fun () -> Ctx.idle_loop ctxs.(8));
  let got = ref None in
  Process.spawn eng (fun () ->
      got :=
        Some
          (Rpc.call rpc ctxs.(0) ~target:8 (fun tc ->
               (* The server dies mid-service: no reply ever comes. The
                  caller's resend finds the corpse and gives up with the
                  terminal outcome rather than resending forever. *)
               Ctx.work tc 50;
               Machine.kill_proc machine 8;
               Ctx.work tc 1;
               Rpc.Ok 1)));
  Engine.run eng;
  Alcotest.(check bool) "resend detected the corpse" true
    (!got = Some Rpc.Dead_target);
  Alcotest.(check int) "counted once" 1 (Rpc.dead_targets rpc)

(* -- the unified fault log --------------------------------------------------- *)

let test_unified_fault_log () =
  let t =
    Fault.create
      { Fault.disabled with stall_every = 100; stall_cycles = 5 }
  in
  ignore (Fault.draw_stall t ~site:2 ~now:100);
  Fault.record_crash t ~proc:3 ~now:250;
  Fault.record_restart t ~proc:3 ~now:400;
  ignore (Fault.draw_stall t ~site:2 ~now:500);
  let log = Fault.log t in
  Alcotest.(check (list (pair string int)))
    "chronological, every kind tagged"
    [ ("stall", 100); ("crash", 250); ("restart", 400); ("stall", 500) ]
    (List.map
       (fun (e : Fault.event) -> (Fault.kind_name e.Fault.kind, e.Fault.time))
       log);
  Alcotest.(check (list int))
    "where: site / processor" [ 2; 3; 3; 2 ]
    (List.map (fun (e : Fault.event) -> e.Fault.where) log);
  Alcotest.(check int) "crash counted" 1 (Fault.crashes_injected t);
  Alcotest.(check int) "restart counted" 1 (Fault.restarts_injected t);
  (* A restart undoes adversity rather than adding it. *)
  Alcotest.(check int) "total excludes restarts" 3 (Fault.total_injected t)

(* -- zero cost when off ------------------------------------------------------ *)

(* The crash machinery must not perturb existing plans: a crash schedule
   makes no Rng draws, and [draw_crash] with a zero rate makes none
   either, so the stall stream replays bit-for-bit. *)
let test_crash_plan_rng_identity () =
  let base =
    { Fault.disabled with seed = 5; stall_rate = 0.5; stall_cycles = 10 }
  in
  let trace ?(interleave_crash_draws = false) cfg =
    let t = Fault.create cfg in
    List.init 200 (fun i ->
        if interleave_crash_draws then ignore (Fault.draw_crash t);
        Fault.draw_stall t ~site:0 ~now:i <> None)
  in
  Alcotest.(check bool) "a crash schedule makes no draws" true
    (trace base = trace { base with crash_at = [ (50, 3) ] });
  Alcotest.(check bool) "zero-rate crash draws make no draws" true
    (trace base = trace ~interleave_crash_draws:true base)

let suite =
  [
    Alcotest.test_case "fail-stop parks the fiber, oracle reports it" `Quick
      test_fail_stop_parks;
    Alcotest.test_case "fail-restart revives through the handler" `Quick
      test_fail_restart_revives;
    Qc.to_alcotest prop_crash_safety;
    Alcotest.test_case "CLH pump rescues a dead holder" `Quick
      test_clh_pump_rescue;
    Alcotest.test_case "Adaptive recover keeps a successor's registration"
      `Quick test_adaptive_recover_keeps_successor;
    Alcotest.test_case "crash storm: recovery conservation per algorithm"
      `Quick test_crash_storm;
    Alcotest.test_case "khash repair: shard lock, seqlock, reserve bit" `Quick
      test_khash_crash_repair;
    Alcotest.test_case "repair no-ops on the living" `Quick
      test_repair_noops_on_the_living;
    Alcotest.test_case "RPC dead target refused up front" `Quick
      test_rpc_dead_target_upfront;
    Alcotest.test_case "RPC dead target detected on resend" `Quick
      test_rpc_dead_target_on_resend;
    Alcotest.test_case "unified kind-tagged fault log" `Quick
      test_unified_fault_log;
    Alcotest.test_case "crash machinery makes no Rng draws when off" `Quick
      test_crash_plan_rng_identity;
  ]
