(* Property tests for the composing lock layer: every [Lock.algo] must
   preserve mutual exclusion and conserve completed acquires under
   randomized schedules, and CNA's secondary queue must respect its
   starvation bound. *)

open Eventsim
open Hector
open Locks

(* Every constructible algorithm on a CAS-capable NUMA machine. [Null] is
   excluded by design — it provides no mutual exclusion. *)
let all_algos =
  [
    Lock.Spin { max_backoff_us = 35.0 };
    Lock.Mcs_original;
    Lock.Mcs_h1;
    Lock.Mcs_h2;
    Lock.Mcs_cas;
    Lock.Clh;
    Lock.Ticket;
    Lock.Anderson;
    Lock.Spin_then_block { spin_us = 10.0 };
  ]
  @ Lock.all_numa_algos

(* Drive [p] processors through acquire/work/release cycles via the uniform
   interface and check the invariants: never two inside, every iteration
   completed, the instrumentation counted exactly the completed acquires,
   and the lock is free at quiescence. *)
let stress ~algo ~p ~iters ~hold ~think ~seed =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.numachine in
  let lock = Lock.make machine algo in
  let inside = ref 0 and peak = ref 0 and completed = ref 0 in
  let rng = Rng.create seed in
  for proc = 0 to p - 1 do
    let ctx = Ctx.create machine ~proc (Rng.split rng) in
    Process.spawn eng (fun () ->
        for _ = 1 to iters do
          lock.Lock.acquire ctx;
          incr inside;
          peak := max !peak !inside;
          if hold > 0 then Ctx.work ctx hold;
          decr inside;
          lock.Lock.release ctx;
          if think > 0 then Ctx.work ctx (1 + Rng.int (Ctx.rng ctx) think)
        done;
        completed := !completed + iters)
  done;
  Engine.run eng;
  !peak = 1
  && !completed = p * iters
  && !(lock.Lock.acquires) = p * iters
  && lock.Lock.is_free ()

let prop_safety =
  QCheck.Test.make ~name:"every Lock.algo: mutual exclusion + conservation"
    ~count:30
    QCheck.(
      quad (int_range 2 8) (int_range 0 60) (int_range 0 40)
        (int_range 0 10000))
    (fun (p, hold, think, seed) ->
      List.for_all
        (fun algo ->
          match stress ~algo ~p ~iters:6 ~hold ~think ~seed with
          | ok -> ok
          | exception _ -> false)
        all_algos)

(* CNA's escape hatch: a waiter moved to the secondary queue is overtaken by
   at most [threshold] + 1 critical sections. A single cluster-1 waiter
   enqueues right behind the initial cluster-0 holder; a stream of cluster-0
   waiters keeps the local queue non-empty far past the threshold. The
   remote waiter must still be served within [threshold] + 1 hand-offs. *)
let test_cna_starvation_bound () =
  let threshold = 3 in
  let eng = Engine.create () in
  let machine = Machine.create eng Config.numachine in
  let lock =
    Cna.create ~home:0 ~threshold ~topo:(Lock_core.topo_of_machine machine)
      machine
  in
  let order = ref [] in
  let ctx p = Ctx.create machine ~proc:p (Rng.create (900 + p)) in
  (* Proc 0 (cluster 0) holds while everyone else enqueues. *)
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Cna.acquire lock c;
      order := 0 :: !order;
      Ctx.work c 3000;
      Cna.release lock c);
  (* The remote waiter (station 1) enqueues first, right behind the
     holder, so every local hand-off overtakes it. *)
  Process.spawn eng (fun () ->
      let c = ctx 4 in
      Process.pause eng 200;
      Cna.acquire lock c;
      order := 4 :: !order;
      Ctx.work c 50;
      Cna.release lock c);
  for p = 1 to 3 do
    Process.spawn eng (fun () ->
        let c = ctx p in
        Process.pause eng (400 + (150 * p));
        for _ = 1 to 8 do
          Cna.acquire lock c;
          order := p :: !order;
          Ctx.work c 50;
          Cna.release lock c;
          Ctx.work c 30
        done)
  done;
  Engine.run eng;
  let order = List.rev !order in
  (* How many acquisitions after the initial holder's before the remote
     waiter got in. *)
  let rec pos i = function
    | [] -> Alcotest.fail "remote waiter never acquired"
    | 4 :: _ -> i
    | _ :: tl -> pos (i + 1) tl
  in
  let overtakes = pos 0 (List.tl order) in
  Alcotest.(check bool)
    (Printf.sprintf "served within threshold+1 (overtaken %d times)" overtakes)
    true
    (overtakes <= threshold + 1);
  Alcotest.(check bool) "secondary queue engaged" true (Cna.moved lock > 0);
  Alcotest.(check bool) "spliced back into service" true (Cna.flushes lock > 0);
  Alcotest.(check bool) "free at end" true (Cna.is_free lock)

let suite =
  [
    Qc.to_alcotest prop_safety;
    Alcotest.test_case "CNA starvation bound (escape hatch)" `Quick
      test_cna_starvation_bound;
  ]
