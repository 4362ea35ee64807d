(* Abort-injection property tests: every abortable [Lock.algo] must keep
   its invariants when timed attempts with random (often hopeless)
   deadlines are mixed into the traffic — mutual exclusion, conservation
   of completed acquires, no lost successor signals (every processor's
   final *untimed* acquire must still go through, so an abandonment that
   swallowed a hand-off shows up as an engine deadlock), and a fully free
   lock at quiescence. A separate case runs the ABORT-STORM workload and
   checks its acceptance facts: bounded return past the deadline, aborts
   attributed beyond the staller's cluster, prompt recovery. *)

open Eventsim
open Hector
open Locks
open Workloads

(* Every algorithm whose timed face can actually abandon (the composing
   layer knows: [Lock.t.abortable]); built per-machine since abortability
   is a static property of the algo. *)
let abortable_algos =
  [
    Lock.Spin { max_backoff_us = 35.0 };
    Lock.Mcs_original;
    Lock.Mcs_h1;
    Lock.Mcs_h2;
    Lock.Mcs_cas;
    Lock.Clh;
    Lock.Anderson;
  ]
  @ Lock.all_numa_algos
  (* The morphing lock rides along: every abandonment path must stay safe
     across drains and mid-flight morphs. *)
  @ [ Lock.adaptive ]

(* Drive [p] processors through a random mix of timed and untimed
   acquisitions. Timeouts are drawn from [0, timeout_cycles): zero-deadline
   attempts must fail fast with no side effect; short ones abandon
   mid-queue at either tree level of the composites. Each processor ends
   with one untimed acquire/release: if any abandonment lost a successor
   signal or stranded root ownership, that acquire never returns and the
   event budget trips (caught as [false] by the property wrapper). *)
let abort_stress ~algo ~p ~iters ~hold ~think ~timeout_cycles ~seed =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.numachine in
  let lock = Lock.make machine algo in
  assert lock.Lock.abortable;
  let inside = ref 0 and peak = ref 0 in
  let wins = ref 0 and aborts = ref 0 in
  let rng = Rng.create seed in
  for proc = 0 to p - 1 do
    let ctx = Ctx.create machine ~proc (Rng.split rng) in
    Process.spawn eng (fun () ->
        let r = Ctx.rng ctx in
        for _ = 1 to iters do
          let got =
            if Rng.int r 4 > 0 then begin
              (* 3 in 4 attempts are timed, many with hopeless deadlines. *)
              let timeout = Rng.int r timeout_cycles in
              lock.Lock.try_acquire_for ctx
                ~deadline:(Machine.now machine + timeout)
            end
            else begin
              lock.Lock.acquire ctx;
              true
            end
          in
          if got then begin
            incr inside;
            peak := max !peak !inside;
            if hold > 0 then Ctx.work ctx hold;
            decr inside;
            incr wins;
            lock.Lock.release ctx
          end
          else incr aborts;
          if think > 0 then Ctx.work ctx (1 + Rng.int r think)
        done;
        (* Eventual acquisition: the untimed face must still work after
           arbitrary abandonment, and collects any leftover marked nodes. *)
        lock.Lock.acquire ctx;
        incr inside;
        peak := max !peak !inside;
        Ctx.work ctx 5;
        decr inside;
        incr wins;
        lock.Lock.release ctx)
  done;
  Engine.run eng;
  !peak = 1
  && !wins + !aborts = ((iters + 1) * p)
  && !(lock.Lock.acquires) = !wins
  && lock.Lock.is_free ()

let prop_abort_safety =
  QCheck.Test.make
    ~name:"every abortable Lock.algo: safety under random aborts" ~count:25
    QCheck.(
      quad (int_range 2 8) (int_range 0 60)
        (int_range 1 4000)
        (int_range 0 10000))
    (fun (p, hold, timeout_cycles, seed) ->
      List.for_all
        (fun algo ->
          match
            abort_stress ~algo ~p ~iters:6 ~hold ~think:30 ~timeout_cycles
              ~seed
          with
          | ok -> ok
          | exception _ -> false)
        abortable_algos)

(* The tentpole acceptance, as a plain test per NUMA composite: under a
   planted cross-cluster holder stall, expired waiters return within a
   bounded multiple of their deadline, aborts happen beyond the staller's
   own cluster, abandoned nodes are repaired, and the drained lock ends
   free. *)
let test_abort_storm_bounded () =
  let config =
    { Abort_storm.default_config with Abort_storm.window_us = 6000.0 }
  in
  List.iter
    (fun algo ->
      let r = Abort_storm.run ~config algo in
      let name = Lock.algo_name algo in
      Alcotest.(check bool) (name ^ " stalled") true (r.Abort_storm.stalls > 0);
      Alcotest.(check bool) (name ^ " aborted") true (r.Abort_storm.aborts > 0);
      Alcotest.(check bool)
        (name ^ " aborts beyond the staller's cluster")
        true
        (r.Abort_storm.remote_aborts > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s bounded return (ratio %.2f)" name
           r.Abort_storm.bound_ratio)
        true
        (r.Abort_storm.bound_ratio < 8.0);
      Alcotest.(check bool)
        (name ^ " observer saw the aborts")
        true
        (r.Abort_storm.obs_aborts > 0);
      Alcotest.(check bool)
        (name ^ " free after drain")
        true r.Abort_storm.final_free)
    (Lock.Mcs_h2 :: Lock.all_numa_algos)

(* Zero and negative deadlines: an attempt whose budget is already gone
   must fail fast without touching the lock — on every abortable algo,
   even while the lock is held by someone else. *)
let test_zero_deadline_fail_fast () =
  List.iter
    (fun algo ->
      let eng = Engine.create () in
      let machine = Machine.create eng Config.numachine in
      let lock = Lock.make machine algo in
      let name = Lock.algo_name algo in
      let ctx0 = Ctx.create machine ~proc:0 (Rng.create 1) in
      let ctx1 = Ctx.create machine ~proc:1 (Rng.create 2) in
      Process.spawn eng (fun () ->
          lock.Lock.acquire ctx0;
          Ctx.work ctx0 500;
          lock.Lock.release ctx0);
      Process.spawn eng (fun () ->
          Process.pause eng 50;
          let now = Machine.now machine in
          Alcotest.(check bool)
            (name ^ " zero deadline fails") false
            (lock.Lock.try_acquire_for ctx1 ~deadline:now);
          Alcotest.(check bool)
            (name ^ " past deadline fails") false
            (lock.Lock.try_acquire_for ctx1 ~deadline:(now - 100)));
      Engine.run eng;
      Alcotest.(check bool) (name ^ " free at end") true (lock.Lock.is_free ()))
    abortable_algos

let suite =
  [
    Qc.to_alcotest prop_abort_safety;
    Alcotest.test_case "abort storm: bounded abandonment per composite"
      `Quick test_abort_storm_bounded;
    Alcotest.test_case "zero/negative deadline fails fast" `Quick
      test_zero_deadline_fail_fast;
  ]
