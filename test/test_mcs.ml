(* Tests for the MCS distributed lock: all three variants, the queue-repair
   protocol, FIFO fairness, TryLock variants and abandoned-node garbage
   collection. Property tests explore random schedules (processor counts,
   critical-section lengths, think times) and check the safety and liveness
   invariants on each. *)

open Eventsim
open Hector
open Locks

let make ?(cfg = Config.hector) () =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let ctx p = Ctx.create machine ~proc:p (Rng.create (300 + p)) in
  (eng, machine, ctx)

let variants = [ Mcs.Original; Mcs.H1; Mcs.H2 ]

(* Drive [p] processors through [iters] acquire/work/release cycles and
   check mutual exclusion plus completion. Returns the lock for further
   checks. *)
let stress ?(cfg = Config.hector) ~variant ~p ~iters ~hold ~think ~seed () =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let lock = Mcs.create ~variant ~home:0 machine in
  let inside = ref 0 and peak = ref 0 and completed = ref 0 in
  let rng = Rng.create seed in
  for proc = 0 to p - 1 do
    let ctx = Ctx.create machine ~proc (Rng.split rng) in
    Process.spawn eng (fun () ->
        for _ = 1 to iters do
          Mcs.acquire lock ctx;
          incr inside;
          peak := max !peak !inside;
          if hold > 0 then Ctx.work ctx hold;
          decr inside;
          Mcs.release lock ctx;
          if think > 0 then
            Ctx.work ctx (1 + Rng.int (Ctx.rng ctx) think)
        done;
        completed := !completed + iters)
  done;
  Engine.run eng;
  Alcotest.(check int) "mutual exclusion" 1 !peak;
  Alcotest.(check int) "all iterations completed" (p * iters) !completed;
  Alcotest.(check bool) "free at quiescence" true (Mcs.is_free lock);
  lock

let test_uncontended_basic () =
  List.iter
    (fun variant -> ignore (stress ~variant ~p:1 ~iters:50 ~hold:0 ~think:0 ~seed:1 ()))
    variants

let test_contended_all_variants () =
  List.iter
    (fun variant ->
      let lock = stress ~variant ~p:8 ~iters:30 ~hold:40 ~think:20 ~seed:2 () in
      Alcotest.(check int)
        (Mcs.variant_name variant ^ " acquisitions")
        240 (Mcs.acquisitions lock))
    variants

let test_h2_repairs_under_contention () =
  let lock = stress ~variant:Mcs.H2 ~p:8 ~iters:30 ~hold:0 ~think:0 ~seed:3 () in
  (* H2 skips the successor check, so contended releases must repair. *)
  Alcotest.(check bool) "repairs happened" true (Mcs.repairs lock > 0)

let test_fifo_fairness () =
  (* With long holds, waiters enqueue in a known order and must be served
     in that order. *)
  let eng, machine, ctx = make () in
  let lock = Mcs.create ~variant:Mcs.H1 ~home:0 machine in
  let order = ref [] in
  (* Proc 0 takes the lock first and holds it long enough for 1..5 to
     enqueue at staggered times. *)
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Mcs.acquire lock c;
      Ctx.work c 2000;
      Mcs.release lock c);
  for p = 1 to 5 do
    Process.spawn eng (fun () ->
        let c = ctx p in
        Process.pause eng (100 * p);
        Mcs.acquire lock c;
        order := p :: !order;
        Ctx.work c 50;
        Mcs.release lock c)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO service order" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_holder_tracking () =
  let eng, machine, ctx = make () in
  let lock = Mcs.create ~variant:Mcs.H2 ~home:0 machine in
  Process.spawn eng (fun () ->
      let c = ctx 4 in
      Alcotest.(check (option int)) "nobody" None (Mcs.holder_proc lock);
      Mcs.acquire lock c;
      Alcotest.(check (option int)) "holder is 4" (Some 4) (Mcs.holder_proc lock);
      Mcs.release lock c;
      Alcotest.(check (option int)) "free" None (Mcs.holder_proc lock));
  Engine.run eng

let test_trylock_v1 () =
  let eng, machine, ctx = make () in
  let lock = Mcs.create ~variant:Mcs.H2 ~home:0 ~track_in_use:true machine in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      (* Free lock: v1 acquires. *)
      Alcotest.(check bool) "free -> true" true (Mcs.try_acquire_v1 lock c);
      Mcs.release lock c);
  Engine.run eng;
  (* Lock held by proc 1; proc 1's own node is in use, so an "interrupt" on
     proc 1 must refuse, while proc 2 would wait (and get it). *)
  let eng2 = Engine.create () in
  let machine2 = Machine.create eng2 Config.hector in
  let lock2 = Mcs.create ~variant:Mcs.H2 ~home:0 ~track_in_use:true machine2 in
  let c1 = Ctx.create machine2 ~proc:1 (Rng.create 1) in
  let c2 = Ctx.create machine2 ~proc:2 (Rng.create 2) in
  Process.spawn eng2 (fun () ->
      Mcs.acquire lock2 c1;
      (* Interrupt handler on the holder's processor. *)
      Alcotest.(check bool) "holder's proc -> refused" false
        (Mcs.try_acquire_v1 lock2 c1);
      Mcs.release lock2 c1);
  Process.spawn eng2 (fun () ->
      Process.pause eng2 5;
      Alcotest.(check bool) "other proc -> waits and wins" true
        (Mcs.try_acquire_v1 lock2 c2);
      Mcs.release lock2 c2);
  Engine.run eng2;
  Alcotest.(check bool) "v1 failure counted" true (Mcs.try_failures lock2 > 0)

let test_trylock_v2_free_lock () =
  let eng, machine, ctx = make () in
  let lock = Mcs.create ~variant:Mcs.H2 ~home:0 machine in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Alcotest.(check bool) "free -> acquired" true (Mcs.try_acquire_v2 lock c);
      Alcotest.(check bool) "held" true (Mcs.is_held lock);
      Mcs.release lock c;
      Alcotest.(check bool) "free" true (Mcs.is_free lock));
  Engine.run eng

let test_trylock_v2_abandons_and_gc () =
  let eng, machine, ctx = make () in
  let lock = Mcs.create ~variant:Mcs.H2 ~home:0 machine in
  let tried = ref false in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Mcs.acquire lock c;
      Ctx.work c 500;
      Mcs.release lock c);
  Process.spawn eng (fun () ->
      let c = ctx 1 in
      Process.pause eng 50;
      (* Held: the attempt fails, leaving the interrupt node queued. *)
      Alcotest.(check bool) "held -> failed" false (Mcs.try_acquire_v2 lock c);
      tried := true;
      (* A retry before GC must refuse immediately (node still queued). *)
      Alcotest.(check bool) "node busy -> refused" false
        (Mcs.try_acquire_v2 lock c));
  Engine.run eng;
  Alcotest.(check bool) "attempt ran" true !tried;
  Alcotest.(check int) "abandoned node collected" 1 (Mcs.gc_count lock);
  Alcotest.(check bool) "lock free after GC" true (Mcs.is_free lock)

let test_trylock_v2_node_reusable_after_gc () =
  let eng, machine, ctx = make () in
  let lock = Mcs.create ~variant:Mcs.H2 ~home:0 machine in
  Process.spawn eng (fun () ->
      let c0 = ctx 0 in
      Mcs.acquire lock c0;
      Ctx.work c0 300;
      Mcs.release lock c0);
  Process.spawn eng (fun () ->
      let c1 = ctx 1 in
      Process.pause eng 50;
      Alcotest.(check bool) "fails while held" false (Mcs.try_acquire_v2 lock c1);
      (* Wait for the holder to release (which GCs the node). *)
      Process.pause eng 1000;
      Alcotest.(check bool) "node reusable, lock free" true
        (Mcs.try_acquire_v2 lock c1);
      Mcs.release lock c1);
  Engine.run eng

let test_timed_acquire_uncontended () =
  let eng, machine, ctx = make () in
  let lock = Mcs.create ~variant:Mcs.H2 ~home:0 machine in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Alcotest.(check bool) "free -> acquired" true
        (Mcs.acquire_with_timeout lock c ~timeout:100);
      Alcotest.(check bool) "held" true (Mcs.is_held lock);
      Mcs.release lock c;
      Alcotest.(check bool) "free" true (Mcs.is_free lock));
  Engine.run eng;
  Alcotest.(check int) "no timeouts" 0 (Mcs.timeouts lock)

let test_timed_acquire_zero_deadline () =
  (* A zero or negative timeout is an already-expired deadline: it must
     fail immediately with no effect on the lock — no enqueue, no memory
     traffic, no verification events — even when the lock is free and an
     enqueue would have won. Only the timeouts counter advances. *)
  let eng, machine, ctx = make () in
  let lock = Mcs.create ~variant:Mcs.H2 ~home:0 machine in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      let t0 = Machine.now machine in
      Alcotest.(check bool) "timeout 0 on a free lock -> false" false
        (Mcs.acquire_with_timeout lock c ~timeout:0);
      Alcotest.(check bool) "negative timeout -> false" false
        (Mcs.acquire_with_timeout lock c ~timeout:(-100));
      Alcotest.(check int) "no simulated time consumed" t0 (Machine.now machine);
      Alcotest.(check bool) "lock untouched" true (Mcs.is_free lock);
      (* The refusals left no queue state behind: a real attempt wins. *)
      Alcotest.(check bool) "node unharmed, lock acquirable" true
        (Mcs.acquire_with_timeout lock c ~timeout:100);
      Mcs.release lock c);
  Engine.run eng;
  Alcotest.(check int) "both refusals counted" 2 (Mcs.timeouts lock);
  Alcotest.(check int) "nothing to collect" 0 (Mcs.gc_count lock);
  Alcotest.(check bool) "free" true (Mcs.is_free lock)

let test_timed_acquire_within_deadline () =
  (* The holder releases well before the deadline: the waiter queues,
     spins, and wins like a plain acquire. *)
  let eng, machine, ctx = make () in
  let lock = Mcs.create ~variant:Mcs.H2 ~home:0 machine in
  let won_at = ref 0 in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Mcs.acquire lock c;
      Ctx.work c 300;
      Mcs.release lock c);
  Process.spawn eng (fun () ->
      let c = ctx 1 in
      Process.pause eng 50;
      Alcotest.(check bool) "waits and wins" true
        (Mcs.acquire_with_timeout lock c ~timeout:5000);
      won_at := Machine.now machine;
      Mcs.release lock c);
  Engine.run eng;
  Alcotest.(check bool) "won after the holder released" true (!won_at >= 300);
  Alcotest.(check int) "no timeouts" 0 (Mcs.timeouts lock);
  Alcotest.(check int) "nothing to collect" 0 (Mcs.gc_count lock);
  Alcotest.(check bool) "free" true (Mcs.is_free lock)

let test_timed_acquire_expires_and_gc () =
  let eng, machine, ctx = make () in
  let lock = Mcs.create ~variant:Mcs.H2 ~home:0 machine in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Mcs.acquire lock c;
      Ctx.work c 2000;
      Mcs.release lock c);
  Process.spawn eng (fun () ->
      let c = ctx 1 in
      Process.pause eng 50;
      Alcotest.(check bool) "deadline expires" false
        (Mcs.acquire_with_timeout lock c ~timeout:200);
      (* The abandoned node is still queued: a retry before GC must
         fast-fail without enqueueing a second node. *)
      let failures = Mcs.try_failures lock in
      Alcotest.(check bool) "node busy -> refused" false
        (Mcs.acquire_with_timeout lock c ~timeout:200);
      Alcotest.(check int) "fast-fail counted" (failures + 1)
        (Mcs.try_failures lock);
      (* Wait out the holder: release collects the abandoned node. *)
      Process.pause eng 5000;
      Alcotest.(check bool) "node reusable after GC" true
        (Mcs.acquire_with_timeout lock c ~timeout:200);
      Mcs.release lock c);
  Engine.run eng;
  Alcotest.(check int) "one deadline expiry" 1 (Mcs.timeouts lock);
  Alcotest.(check int) "abandoned node collected" 1 (Mcs.gc_count lock);
  Alcotest.(check bool) "free" true (Mcs.is_free lock)

let test_timed_acquire_two_waiters_expire () =
  let eng, machine, ctx = make () in
  let lock = Mcs.create ~variant:Mcs.H2 ~home:0 machine in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Mcs.acquire lock c;
      Ctx.work c 3000;
      Mcs.release lock c);
  for p = 1 to 2 do
    Process.spawn eng (fun () ->
        let c = ctx p in
        Process.pause eng (50 * p);
        Alcotest.(check bool)
          (Printf.sprintf "waiter %d times out" p)
          false
          (Mcs.acquire_with_timeout lock c ~timeout:300))
  done;
  Engine.run eng;
  Alcotest.(check int) "both expiries counted" 2 (Mcs.timeouts lock);
  Alcotest.(check int) "both nodes collected" 2 (Mcs.gc_count lock);
  Alcotest.(check bool) "free" true (Mcs.is_free lock)

let test_cas_release () =
  let eng = Engine.create () in
  let machine = Machine.create eng (Config.with_cas Config.hector) in
  let lock = Mcs.create ~variant:Mcs.H2 ~home:0 ~use_cas_release:true machine in
  let inside = ref 0 and peak = ref 0 in
  let rng = Rng.create 4 in
  for proc = 0 to 5 do
    let ctx = Ctx.create machine ~proc (Rng.split rng) in
    Process.spawn eng (fun () ->
        for _ = 1 to 20 do
          Mcs.acquire lock ctx;
          incr inside;
          peak := max !peak !inside;
          Ctx.work ctx 25;
          decr inside;
          Mcs.release lock ctx
        done)
  done;
  Engine.run eng;
  Alcotest.(check int) "mutual exclusion with CAS release" 1 !peak;
  Alcotest.(check int) "no repairs with CAS" 0 (Mcs.repairs lock);
  Alcotest.(check bool) "free" true (Mcs.is_free lock)

(* Random-schedule property: mutual exclusion and completion hold for every
   variant under arbitrary small schedules. *)
let prop_safety =
  QCheck.Test.make ~name:"MCS safety under random schedules" ~count:60
    QCheck.(
      quad (int_range 1 10) (int_range 0 80) (int_range 0 60) (int_range 0 10000))
    (fun (p, hold, think, seed) ->
      List.for_all
        (fun variant ->
          match
            stress ~variant ~p ~iters:8 ~hold ~think ~seed ()
          with
          | _ -> true
          | exception _ -> false)
        variants)

(* Determinism: the same seed gives the same simulated end time. *)
let test_determinism () =
  let run () =
    let eng = Engine.create () in
    let machine = Machine.create eng Config.hector in
    let lock = Mcs.create ~variant:Mcs.H2 ~home:0 machine in
    let rng = Rng.create 77 in
    for proc = 0 to 7 do
      let ctx = Ctx.create machine ~proc (Rng.split rng) in
      Process.spawn eng (fun () ->
          for _ = 1 to 20 do
            Mcs.acquire lock ctx;
            Ctx.work ctx 30;
            Mcs.release lock ctx
          done)
    done;
    Engine.run eng;
    Engine.now eng
  in
  Alcotest.(check int) "bit-for-bit repeatable" (run ()) (run ())

let suite =
  [
    Alcotest.test_case "uncontended, all variants" `Quick test_uncontended_basic;
    Alcotest.test_case "contended, all variants" `Quick
      test_contended_all_variants;
    Alcotest.test_case "H2 repairs the queue" `Quick
      test_h2_repairs_under_contention;
    Alcotest.test_case "FIFO fairness" `Quick test_fifo_fairness;
    Alcotest.test_case "holder tracking" `Quick test_holder_tracking;
    Alcotest.test_case "TryLock v1 semantics" `Quick test_trylock_v1;
    Alcotest.test_case "TryLock v2 on a free lock" `Quick
      test_trylock_v2_free_lock;
    Alcotest.test_case "TryLock v2 abandons; release GCs" `Quick
      test_trylock_v2_abandons_and_gc;
    Alcotest.test_case "TryLock v2 node reusable after GC" `Quick
      test_trylock_v2_node_reusable_after_gc;
    Alcotest.test_case "timed acquire: zero deadline is inert" `Quick
      test_timed_acquire_zero_deadline;
    Alcotest.test_case "timed acquire: uncontended" `Quick
      test_timed_acquire_uncontended;
    Alcotest.test_case "timed acquire: wins within the deadline" `Quick
      test_timed_acquire_within_deadline;
    Alcotest.test_case "timed acquire: expiry, fast-fail, GC, reuse" `Quick
      test_timed_acquire_expires_and_gc;
    Alcotest.test_case "timed acquire: two expired waiters collected" `Quick
      test_timed_acquire_two_waiters_expire;
    Alcotest.test_case "CAS release (Section 5.2)" `Quick test_cas_release;
    Qc.to_alcotest prop_safety;
    Alcotest.test_case "determinism" `Quick test_determinism;
  ]
