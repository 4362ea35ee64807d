(* Tests for the Section 5 extensions: the cache-coherence model, the
   NUMAchine preset, the CLH lock, the spin-then-block lock and the
   lock-free single-word operations. *)

open Eventsim
open Hector
open Locks

let make ?(cfg = Config.hector) () =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let ctx p = Ctx.create machine ~proc:p (Rng.create (500 + p)) in
  (eng, machine, ctx)

let simulate eng f =
  Process.spawn eng f;
  Engine.run eng

(* -- cache model -------------------------------------------------------------- *)

let test_numachine_preset () =
  let c = Config.numachine in
  Alcotest.(check bool) "coherent" true c.Config.cache_coherent;
  Alcotest.(check bool) "has CAS" true c.Config.has_cas;
  Alcotest.(check bool) "validates" true (Config.validate c == c)

let test_cache_read_hit () =
  let eng, machine, ctx = make ~cfg:Config.numachine () in
  let cell = Machine.alloc machine ~home:12 7 in
  simulate eng (fun () ->
      let c = ctx 0 in
      let t0 = Machine.now machine in
      ignore (Ctx.read c cell);
      let miss = Machine.now machine - t0 in
      let t1 = Machine.now machine in
      ignore (Ctx.read c cell);
      let hit = Machine.now machine - t1 in
      Alcotest.(check bool) "miss pays memory latency" true (miss >= 80);
      Alcotest.(check int) "hit pays the cache" Config.numachine.Config.cache_hit hit;
      Alcotest.(check int) "one hit counted" 1 (Machine.cache_hits machine))

let test_cache_invalidation_on_write () =
  let eng, machine, ctx = make ~cfg:Config.numachine () in
  let cell = Machine.alloc machine ~home:12 7 in
  simulate eng (fun () ->
      let a = ctx 0 and b = ctx 1 in
      ignore (Ctx.read a cell);
      (* b writes: takes the line exclusive, invalidating a's copy. *)
      Ctx.write b cell 9;
      let t0 = Machine.now machine in
      let v = Ctx.read a cell in
      Alcotest.(check int) "fresh value" 9 v;
      Alcotest.(check bool) "a missed after invalidation" true
        (Machine.now machine - t0 >= 80))

let test_cached_atomic_cheap_when_exclusive () =
  let eng, machine, ctx = make ~cfg:Config.numachine () in
  let cell = Machine.alloc machine ~home:12 0 in
  simulate eng (fun () ->
      let c = ctx 0 in
      ignore (Ctx.fetch_and_store c cell 1) (* takes the line exclusive *);
      let t0 = Machine.now machine in
      ignore (Ctx.fetch_and_store c cell 2);
      Alcotest.(check int) "cached atomic" Config.numachine.Config.cache_hit
        (Machine.now machine - t0))

let test_hector_is_never_cached () =
  let eng, machine, ctx = make () in
  let cell = Machine.alloc machine ~home:12 0 in
  simulate eng (fun () ->
      let c = ctx 0 in
      ignore (Ctx.read c cell);
      ignore (Ctx.read c cell);
      Alcotest.(check int) "no cache on HECTOR" 0 (Machine.cache_hits machine))

(* -- CLH lock --------------------------------------------------------------------- *)

let clh_stress cfg =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let lock = Clh.create ~home:0 machine in
  let inside = ref 0 and peak = ref 0 in
  let rng = Rng.create 6 in
  for proc = 0 to 7 do
    let ctx = Ctx.create machine ~proc (Rng.split rng) in
    Process.spawn eng (fun () ->
        for _ = 1 to 25 do
          Clh.acquire lock ctx;
          incr inside;
          peak := max !peak !inside;
          Ctx.work ctx 30;
          decr inside;
          Clh.release lock ctx
        done)
  done;
  Engine.run eng;
  Alcotest.(check int) "mutual exclusion" 1 !peak;
  Alcotest.(check int) "all acquisitions" 200 (Clh.acquisitions lock);
  Alcotest.(check bool) "free at end" true (Clh.is_free lock)

let test_clh_mutual_exclusion_hector () = clh_stress Config.hector
let test_clh_mutual_exclusion_numachine () = clh_stress Config.numachine

let test_clh_fifo () =
  let eng, machine, ctx = make () in
  let lock = Clh.create ~home:0 machine in
  let order = ref [] in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Clh.acquire lock c;
      Ctx.work c 2000;
      Clh.release lock c);
  for p = 1 to 4 do
    Process.spawn eng (fun () ->
        let c = ctx p in
        Process.pause eng (100 * p);
        Clh.acquire lock c;
        order := p :: !order;
        Clh.release lock c)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3; 4 ] (List.rev !order)

let test_clh_remote_spin_on_hector () =
  (* The defining difference from MCS: a CLH waiter's spin reads land on
     the predecessor's memory module, not its own. *)
  let eng, machine, ctx = make () in
  let lock = Clh.create ~home:0 machine in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Clh.acquire lock c;
      Ctx.work c 3000;
      Clh.release lock c);
  Process.spawn eng (fun () ->
      let c = ctx 12 in
      Process.pause eng 100;
      Clh.acquire lock c;
      Clh.release lock c);
  Engine.run eng;
  (* Waiter on processor 12 spun on processor 0's node: its polls loaded
     module 0 (remote traffic MCS would not generate). *)
  Alcotest.(check bool) "remote polls hit the predecessor's module" true
    (Eventsim.Resource.n_requests (Machine.mem_resource machine 0) > 20)

(* -- spin-then-block ----------------------------------------------------------------- *)

let test_stb_fast_path () =
  let eng, machine, ctx = make () in
  let lock = Stb_lock.create ~home:0 machine in
  simulate eng (fun () ->
      let c = ctx 0 in
      Stb_lock.acquire lock c;
      Alcotest.(check bool) "held" true (Stb_lock.is_held lock);
      Stb_lock.release lock c;
      Alcotest.(check bool) "free" false (Stb_lock.is_held lock);
      Alcotest.(check int) "nobody blocked" 0 (Stb_lock.blocks lock))

let test_stb_blocks_on_long_hold () =
  let eng, machine, ctx = make () in
  let lock = Stb_lock.create ~home:0 ~spin_us:5.0 machine in
  let got_at = ref 0 in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Stb_lock.acquire lock c;
      Ctx.work c 2000 (* 125 us, far beyond the 5 us spin budget *);
      Stb_lock.release lock c);
  Process.spawn eng (fun () ->
      let c = ctx 1 in
      Process.pause eng 50;
      Stb_lock.acquire lock c;
      got_at := Machine.now machine;
      Stb_lock.release lock c);
  Engine.run eng;
  Alcotest.(check int) "waiter blocked" 1 (Stb_lock.blocks lock);
  Alcotest.(check int) "hand-off happened" 1 (Stb_lock.handoffs lock);
  Alcotest.(check bool) "woke after the release" true (!got_at >= 2000)

let test_stb_mutual_exclusion () =
  let eng, machine, _ = make () in
  let lock = Stb_lock.create ~home:0 ~spin_us:2.0 machine in
  let inside = ref 0 and peak = ref 0 and total = ref 0 in
  let rng = Rng.create 8 in
  for proc = 0 to 7 do
    let ctx = Ctx.create machine ~proc (Rng.split rng) in
    Process.spawn eng (fun () ->
        for _ = 1 to 20 do
          Stb_lock.acquire lock ctx;
          incr inside;
          peak := max !peak !inside;
          incr total;
          Ctx.work ctx 200;
          decr inside;
          Stb_lock.release lock ctx
        done)
  done;
  Engine.run eng;
  Alcotest.(check int) "mutual exclusion" 1 !peak;
  Alcotest.(check int) "all ran" 160 !total;
  Alcotest.(check bool) "some waiters blocked" true (Stb_lock.blocks lock > 0)

(* -- lock-free operations -------------------------------------------------------------- *)

let test_lockfree_counter_exact () =
  let eng, machine, _ = make ~cfg:Config.numachine () in
  let counter = Lockfree.make_counter machine ~home:0 0 in
  let rng = Rng.create 9 in
  for proc = 0 to 7 do
    let ctx = Ctx.create machine ~proc (Rng.split rng) in
    Process.spawn eng (fun () ->
        for _ = 1 to 50 do
          ignore (Lockfree.counter_incr counter ctx)
        done)
  done;
  Engine.run eng;
  Alcotest.(check int) "no lost updates" 400 (Lockfree.counter_value counter)

let test_lockfree_bits () =
  let eng, machine, ctx = make ~cfg:Config.numachine () in
  let cell = Machine.alloc machine ~home:0 0 in
  simulate eng (fun () ->
      let c = ctx 0 in
      ignore (Lockfree.set_bits cell c 0b101);
      Alcotest.(check int) "set" 0b101 (Cell.peek cell);
      ignore (Lockfree.clear_bits cell c 0b001);
      Alcotest.(check int) "cleared" 0b100 (Cell.peek cell))

let test_lockfree_stack () =
  let eng, machine, ctx = make ~cfg:Config.numachine () in
  let stack = Lockfree.make_stack machine ~home:0 in
  simulate eng (fun () ->
      let c = ctx 0 in
      Alcotest.(check bool) "empty pop" true (Lockfree.pop stack c = None);
      Lockfree.push stack c "a";
      Lockfree.push stack c "b";
      Alcotest.(check int) "size" 2 (Lockfree.stack_size stack c);
      Alcotest.(check (option string)) "LIFO" (Some "b") (Lockfree.pop stack c);
      Alcotest.(check (option string)) "then a" (Some "a") (Lockfree.pop stack c);
      Alcotest.(check bool) "empty again" true (Lockfree.pop stack c = None))

let test_lockfree_stack_concurrent () =
  let eng, machine, _ = make ~cfg:Config.numachine () in
  let stack = Lockfree.make_stack machine ~home:0 in
  let popped = ref 0 in
  let rng = Rng.create 10 in
  for proc = 0 to 5 do
    let ctx = Ctx.create machine ~proc (Rng.split rng) in
    Process.spawn eng (fun () ->
        for i = 1 to 30 do
          Lockfree.push stack ctx (proc, i);
          if i land 1 = 0 then
            match Lockfree.pop stack ctx with
            | Some _ -> incr popped
            | None -> ()
        done)
  done;
  Engine.run eng;
  let ctx = Ctx.create machine ~proc:0 (Rng.create 1) in
  Process.spawn eng (fun () ->
      let remaining = Lockfree.stack_size stack ctx in
      Alcotest.(check int) "push/pop conservation" (6 * 30) (!popped + remaining));
  Engine.run eng

let test_counter_workload_modes_agree () =
  List.iter
    (fun (r : Workloads.Counter_stress.result) ->
      Alcotest.(check int)
        (Workloads.Counter_stress.mode_name r.Workloads.Counter_stress.mode
        ^ " exact")
        r.Workloads.Counter_stress.expected_value
        r.Workloads.Counter_stress.final_value)
    (Workloads.Counter_stress.run_all
       ~config:{ Workloads.Counter_stress.default_config with ops = 30 }
       ())

let suite =
  [
    Alcotest.test_case "NUMAchine preset" `Quick test_numachine_preset;
    Alcotest.test_case "cache read hit" `Quick test_cache_read_hit;
    Alcotest.test_case "write invalidates other copies" `Quick
      test_cache_invalidation_on_write;
    Alcotest.test_case "cached atomic when exclusive" `Quick
      test_cached_atomic_cheap_when_exclusive;
    Alcotest.test_case "HECTOR never caches" `Quick test_hector_is_never_cached;
    Alcotest.test_case "CLH mutual exclusion (HECTOR)" `Quick
      test_clh_mutual_exclusion_hector;
    Alcotest.test_case "CLH mutual exclusion (NUMAchine)" `Quick
      test_clh_mutual_exclusion_numachine;
    Alcotest.test_case "CLH FIFO" `Quick test_clh_fifo;
    Alcotest.test_case "CLH spins remotely on HECTOR" `Quick
      test_clh_remote_spin_on_hector;
    Alcotest.test_case "STB fast path" `Quick test_stb_fast_path;
    Alcotest.test_case "STB blocks on long holds" `Quick
      test_stb_blocks_on_long_hold;
    Alcotest.test_case "STB mutual exclusion" `Quick test_stb_mutual_exclusion;
    Alcotest.test_case "lock-free counter is exact" `Quick
      test_lockfree_counter_exact;
    Alcotest.test_case "lock-free bit operations" `Quick test_lockfree_bits;
    Alcotest.test_case "lock-free stack LIFO" `Quick test_lockfree_stack;
    Alcotest.test_case "lock-free stack concurrent" `Quick
      test_lockfree_stack_concurrent;
    Alcotest.test_case "counter workload modes agree" `Quick
      test_counter_workload_modes_agree;
  ]
