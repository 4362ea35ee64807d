(* Tests for the per-processor context: instruction charging, the swap
   overlap window, interrupts, and soft masking. *)

open Eventsim
open Hector

let make ?(cfg = Config.hector) () =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let ctx p = Ctx.create machine ~proc:p (Rng.create (100 + p)) in
  (eng, machine, ctx)

let simulate eng f =
  Process.spawn eng f;
  Engine.run eng

let test_instr_costs () =
  let eng, machine, ctx = make () in
  let c = ctx 0 in
  simulate eng (fun () ->
      let t0 = Machine.now machine in
      Ctx.instr c ~reg:3 ~br:2 ();
      (* 3 * 1 + 2 * 2 = 7 cycles, no overlap credit pending. *)
      Alcotest.(check int) "cycles" 7 (Machine.now machine - t0))

let test_overlap_after_atomic () =
  let eng, machine, ctx = make () in
  let c = ctx 0 in
  let cell = Machine.alloc machine ~home:0 0 in
  simulate eng (fun () ->
      ignore (Ctx.fetch_and_store c cell 1);
      let t0 = Machine.now machine in
      (* 5 cycles of overlap credit: the first 5 instruction cycles are
         hidden behind the swap's store phase. *)
      Ctx.instr c ~reg:3 ~br:1 ();
      Alcotest.(check int) "5 cycles hidden" 0 (Machine.now machine - t0);
      let t1 = Machine.now machine in
      Ctx.instr c ~reg:2 ();
      Alcotest.(check int) "credit exhausted" 2 (Machine.now machine - t1))

let test_overlap_cleared_by_memory_op () =
  let eng, machine, ctx = make () in
  let c = ctx 0 in
  let cell = Machine.alloc machine ~home:0 0 in
  simulate eng (fun () ->
      ignore (Ctx.fetch_and_store c cell 1);
      ignore (Ctx.read c cell);
      let t0 = Machine.now machine in
      Ctx.instr c ~reg:2 ();
      Alcotest.(check int) "no credit after load" 2 (Machine.now machine - t0))

let test_ipi_delivery () =
  let eng, _, ctx = make () in
  let target = ctx 1 in
  let served = ref false in
  Process.spawn eng (fun () -> Ctx.idle_loop target);
  Process.spawn eng (fun () ->
      Ctx.post_ipi target (fun _ -> served := true);
      Process.pause eng 1000);
  Engine.run eng;
  Alcotest.(check bool) "handler ran" true !served;
  Alcotest.(check int) "counted" 1 (Ctx.irqs_taken target)

let test_soft_mask_defers () =
  let eng, machine, ctx = make () in
  let target = ctx 1 in
  let cell = Machine.alloc machine ~home:1 0 in
  let served_at = ref (-1) in
  let unmask_at = ref (-1) in
  Process.spawn eng (fun () ->
      Ctx.set_soft_mask target;
      (* Memory ops poll interrupts; the mask must defer the handler. *)
      for _ = 1 to 20 do
        ignore (Ctx.read target cell)
      done;
      unmask_at := Machine.now machine;
      Ctx.clear_soft_mask target;
      Process.pause eng 100);
  Process.spawn eng (fun () ->
      Process.pause eng 30;
      Ctx.post_ipi target (fun tctx -> served_at := Ctx.now tctx));
  Engine.run eng;
  Alcotest.(check bool) "deferred until unmask" true (!served_at >= !unmask_at);
  Alcotest.(check int) "counted as deferred" 1 (Ctx.irqs_deferred target)

let test_unmasked_interrupt_taken_at_op_boundary () =
  let eng, machine, ctx = make () in
  let target = ctx 1 in
  let cell = Machine.alloc machine ~home:1 0 in
  let served_at = ref (-1) in
  Process.spawn eng (fun () ->
      for _ = 1 to 50 do
        ignore (Ctx.read target cell)
      done);
  Process.spawn eng (fun () ->
      Process.pause eng 55;
      Ctx.post_ipi target (fun tctx -> served_at := Ctx.now tctx));
  Engine.run eng;
  Alcotest.(check bool) "served promptly" true
    (!served_at >= 55 && !served_at < 300);
  ignore machine

let test_no_nested_interrupts () =
  let eng, machine, ctx = make () in
  let target = ctx 1 in
  let order = ref [] in
  Process.spawn eng (fun () -> Ctx.idle_loop target);
  Process.spawn eng (fun () ->
      Process.pause eng 10;
      Ctx.post_ipi target (fun tctx ->
          order := "first-start" :: !order;
          (* While this handler runs, a second IPI arrives; it must not
             nest. The handler's own memory ops poll, but in_interrupt
             blocks re-entry. *)
          ignore (Ctx.read tctx (Machine.alloc machine ~home:1 0));
          Ctx.work tctx 200;
          order := "first-end" :: !order);
      Process.pause eng 20;
      Ctx.post_ipi target (fun _ -> order := "second" :: !order));
  Engine.run eng;
  Alcotest.(check (list string))
    "second handler ran after the first"
    [ "first-start"; "first-end"; "second" ]
    (List.rev !order)

let test_await_serves_interrupts () =
  let eng, _, ctx = make () in
  let waiter = ctx 0 in
  let iv = Ivar.create () in
  let served = ref false in
  let got = ref 0 in
  Process.spawn eng (fun () -> got := Ctx.await waiter iv);
  Process.spawn eng (fun () ->
      Process.pause eng 50;
      (* Interrupt the waiting processor... *)
      Ctx.post_ipi waiter (fun _ -> served := true);
      Process.pause eng 200;
      Ivar.fill eng iv 9);
  Engine.run eng;
  Alcotest.(check bool) "interrupt served while awaiting" true !served;
  Alcotest.(check int) "reply received" 9 !got

let test_with_soft_mask_restores_on_exception () =
  let eng, _, ctx = make () in
  let c = ctx 0 in
  simulate eng (fun () ->
      (try Ctx.with_soft_mask c (fun () -> failwith "boom") with
      | Failure _ -> ());
      Alcotest.(check bool) "mask cleared" false (Ctx.soft_masked c))

(* -- Waits run as engine events ------------------------------------------ *)

(* The fiber loops that [Ctx.spin_while], [interruptible_pause], [await] and
   [await_timeout] replace, written out with the public primitives: the
   reference model the engine-driven waits must match event for event. *)
module Fiber_loops = struct
  let spin_while c cell keep =
    let rec loop () =
      let v = Ctx.read c cell in
      Ctx.instr c ~br:1 ();
      if keep v then loop () else v
    in
    loop ()

  let interruptible_pause ~granule c cycles =
    let deadline = Ctx.now c + cycles in
    let rec loop () =
      Ctx.poll c;
      let remaining = deadline - Ctx.now c in
      if remaining > 0 then begin
        Process.pause (Ctx.engine c) (min granule remaining);
        loop ()
      end
    in
    loop ()

  let await ~poll_interval c ivar =
    let rec loop () =
      Ctx.poll c;
      match Ivar.peek ivar with
      | Some v -> v
      | None ->
        Process.pause (Ctx.engine c) poll_interval;
        loop ()
    in
    loop ()

  let await_timeout ~poll_interval c ~timeout ivar =
    let deadline = Ctx.now c + timeout in
    let rec loop () =
      Ctx.poll c;
      match Ivar.peek ivar with
      | Some v -> Some v
      | None ->
        if Ctx.now c >= deadline then None
        else begin
          Process.pause (Ctx.engine c) poll_interval;
          loop ()
        end
    in
    loop ()
end

type waits = {
  spin : Ctx.t -> Cell.t -> (int -> bool) -> int;
  pause : granule:int -> Ctx.t -> int -> unit;
  await : poll_interval:int -> Ctx.t -> int Ivar.t -> int;
  await_timeout :
    poll_interval:int -> Ctx.t -> timeout:int -> int Ivar.t -> int option;
}

let library =
  {
    spin = Ctx.spin_while;
    pause = (fun ~granule c n -> Ctx.interruptible_pause ~granule c n);
    await = (fun ~poll_interval c iv -> Ctx.await ~poll_interval c iv);
    await_timeout =
      (fun ~poll_interval c ~timeout iv ->
        Ctx.await_timeout ~poll_interval c ~timeout iv);
  }

let reference =
  {
    spin = Fiber_loops.spin_while;
    pause = Fiber_loops.interruptible_pause;
    await = Fiber_loops.await;
    await_timeout = Fiber_loops.await_timeout;
  }

(* A random scenario on 4-8 processors (2 stations), HECTOR or NUMAchine:
   every processor but the last runs a list of waits — spins on local and
   remote cells (some deadline-bounded, some soft-masked), awaits with and
   without timeout, interruptible pauses — while the last processor flips
   cell values, ivars fill, IPIs land mid-wait (some writing cells from
   the handler), processors die and restart, and hot-spots slow PMMs. The
   whole run is replayed from [seed], so both wait implementations see the
   same scenario. Returns everything the two runs must agree on. *)
let run_scenario waits seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n and bool () = Random.State.bool st in
  let coherent = bool () in
  let cfg =
    {
      (if coherent then Config.numachine else Config.hector) with
      Config.stations = 2;
      procs_per_station = 2 + int 3;
    }
  in
  let eng = Engine.create () in
  let m = Machine.create eng cfg in
  let n = Machine.n_procs m in
  if bool () then
    Machine.set_fault_plan m
      (Some
         (Fault.create
            (Fault.validate
               {
                 Fault.disabled with
                 seed;
                 hotspot_rate = 0.02;
                 hotspot_factor = 2 + int 3;
                 hotspot_cycles = 100 + int 400;
               })));
  let ctxs =
    Array.init n (fun p -> Ctx.create m ~proc:p (Rng.create (7 + p)))
  in
  let cells = Array.init 3 (fun _ -> Machine.alloc m ~home:(int n) (int 3)) in
  let ivars = Array.init 4 (fun _ -> Ivar.create ()) in
  let horizon = 20_000 in
  let results = ref [] in
  let waiters = n - 1 in
  let plan =
    Array.init waiters (fun p ->
        List.init (2 + int 5) (fun _ ->
            match int 5 with
            | 0 | 1 ->
              (* Half the spins go to this processor's own cell. *)
              let cell =
                if bool () then Machine.alloc m ~home:p 1 else cells.(int 3)
              in
              let deadline = if bool () then Some (200 + int 3000) else None in
              `Spin (cell, int 3, deadline, bool ())
            | 2 -> `Await (int 4, 1 + int 40)
            | 3 -> `Await_timeout (int 4, 1 + int 40, int 2000)
            | _ -> `Pause (int 1500, 1 + int 64)))
  in
  let run_waits tag p () =
    let c = ctxs.(p) in
    (* A processor killed inside a masked spin restarts unmasked. *)
    if Ctx.soft_masked c then Ctx.clear_soft_mask c;
    List.iteri
      (fun k w ->
        let v =
          match w with
          | `Spin (cell, target, deadline, masked) ->
            let deadline = Option.map (fun d -> Ctx.now c + d) deadline in
            let keep v =
              v <> target
              && match deadline with None -> true | Some d -> Ctx.now c < d
            in
            if masked then
              Ctx.with_soft_mask c (fun () -> waits.spin c cell keep)
            else waits.spin c cell keep
          | `Await (i, poll_interval) -> waits.await ~poll_interval c ivars.(i)
          | `Await_timeout (i, poll_interval, timeout) -> (
            match waits.await_timeout ~poll_interval c ~timeout ivars.(i) with
            | Some v -> v
            | None -> -1)
          | `Pause (cycles, granule) ->
            waits.pause ~granule c cycles;
            0
        in
        results := (tag, p, k, v, Ctx.now c) :: !results;
        Ctx.work c (int 20))
      plan.(p)
  in
  for p = 0 to waiters - 1 do
    Process.spawn eng (run_waits "first" p)
  done;
  Machine.set_restart_handler m (fun p ->
      if p < waiters then Process.spawn eng (run_waits "restart" p));
  let writer = ctxs.(n - 1) in
  for _ = 1 to 10 + int 30 do
    let cell = cells.(int 3) and v = int 3 in
    Process.spawn_at eng ~at:(int horizon) (fun () -> Ctx.write writer cell v)
  done;
  Array.iteri
    (fun i iv ->
      if int 4 > 0 then
        Engine.schedule eng ~at:(int horizon) (fun () ->
            Ivar.fill eng iv (100 + i)))
    ivars;
  for _ = 1 to 20 + int 60 do
    let target = ctxs.(int waiters) and work = 1 + int 80 in
    let write = if bool () then Some (cells.(int 3), int 3) else None in
    Engine.schedule eng ~at:(int horizon) (fun () ->
        Ctx.post_ipi target (fun tc ->
            Ctx.work tc work;
            Option.iter (fun (cell, v) -> Ctx.write tc cell v) write))
  done;
  for _ = 1 to int 3 do
    let p = int waiters and restart_after = int 3000 in
    Engine.schedule eng ~at:(int horizon) (fun () ->
        Machine.kill_proc ~restart_after m p)
  done;
  Engine.run ~until:(2 * horizon) eng;
  ( (Engine.events_executed eng, Engine.now eng, Engine.pending eng),
    (Machine.reads m, Machine.writes m, Machine.cache_hits m),
    Array.to_list
      (Array.map
         (fun c -> (Ctx.instr_cycles c, Ctx.irqs_taken c, Ctx.irqs_deferred c))
         ctxs),
    List.rev !results )

let prop_waits_match_fiber_loops =
  QCheck.Test.make ~name:"engine-driven waits replay the fiber loops exactly"
    ~count:150 QCheck.small_nat (fun seed ->
      run_scenario library seed = run_scenario reference seed)

(* Minor words allocated by [f], which runs a whole simulation. *)
let words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* A wait costs O(1) minor words in total — its callbacks and the single
   suspension — not per iteration: about 120 words here, where the fiber
   loops (OCaml 5.1) allocate 40 words per spin iteration and 20 per pause
   granule. *)
let test_spin_while_allocates_o1 () =
  let eng, machine, ctx = make () in
  let c = ctx 0 in
  let cell = Machine.alloc machine ~home:0 1 in
  let iters = ref 0 in
  let keep _ =
    incr iters;
    !iters < 10_000
  in
  let words =
    words_during (fun () ->
        simulate eng (fun () -> ignore (Ctx.spin_while c cell keep)))
  in
  Alcotest.(check int) "iterations" 10_000 !iters;
  if words > 500. then
    Alcotest.failf "10 000 local spin iterations allocated %.0f minor words"
      words

let test_interruptible_pause_allocates_o1 () =
  let eng, _, ctx = make () in
  let c = ctx 0 in
  let words =
    words_during (fun () ->
        simulate eng (fun () -> Ctx.interruptible_pause ~granule:8 c 80_000))
  in
  Alcotest.(check int)
    "one event per granule" 10_001 (Engine.events_executed eng);
  if words > 500. then
    Alcotest.failf "a 10 000-granule pause allocated %.0f minor words" words

(* A zero poll interval or granule never suspends ([Process.pause 0] is a
   no-op), so the wait would spin on the host forever: rejected up front. *)
let test_nonpositive_intervals_rejected () =
  let eng, _, ctx = make () in
  let c = ctx 0 in
  let iv = Ivar.create () in
  simulate eng (fun () ->
      Alcotest.check_raises "await"
        (Invalid_argument "Ctx.await: poll_interval must be positive (got 0)")
        (fun () -> ignore (Ctx.await ~poll_interval:0 c iv));
      Alcotest.check_raises "await_timeout"
        (Invalid_argument
           "Ctx.await_timeout: poll_interval must be positive (got -1)")
        (fun () ->
          ignore (Ctx.await_timeout ~poll_interval:(-1) c ~timeout:100 iv));
      Alcotest.check_raises "interruptible_pause"
        (Invalid_argument
           "Ctx.interruptible_pause: granule must be positive (got 0)")
        (fun () -> Ctx.interruptible_pause ~granule:0 c 100))

let suite =
  [
    Alcotest.test_case "instruction cycle charging" `Quick test_instr_costs;
    Alcotest.test_case "swap overlap window" `Quick test_overlap_after_atomic;
    Alcotest.test_case "memory op closes overlap window" `Quick
      test_overlap_cleared_by_memory_op;
    Alcotest.test_case "IPI wakes an idle processor" `Quick test_ipi_delivery;
    Alcotest.test_case "soft mask defers handlers" `Quick test_soft_mask_defers;
    Alcotest.test_case "unmasked IPI taken at op boundary" `Quick
      test_unmasked_interrupt_taken_at_op_boundary;
    Alcotest.test_case "interrupts do not nest" `Quick test_no_nested_interrupts;
    Alcotest.test_case "await keeps serving interrupts" `Quick
      test_await_serves_interrupts;
    Alcotest.test_case "with_soft_mask restores on exception" `Quick
      test_with_soft_mask_restores_on_exception;
    Qc.to_alcotest prop_waits_match_fiber_loops;
    Alcotest.test_case "spin_while allocates O(1) words" `Quick
      test_spin_while_allocates_o1;
    Alcotest.test_case "interruptible_pause allocates O(1) words" `Quick
      test_interruptible_pause_allocates_o1;
    Alcotest.test_case "non-positive wait intervals are rejected" `Quick
      test_nonpositive_intervals_rejected;
  ]
