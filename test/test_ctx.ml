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

(* The fiber loops that [Ctx.spin_while], [local_pad],
   [interruptible_pause], [await] and [await_timeout] replace, written out
   with the public primitives: the reference model the engine-driven waits
   must match — every event of the loop, or for an elided wait every event
   but its iterations'. *)
module Fiber_loops = struct
  let spin_while ?deadline c cell keep =
    let rec loop () =
      let v = Ctx.read c cell in
      Ctx.instr c ~br:1 ();
      let live =
        match deadline with Some d -> Ctx.now c < d | None -> true
      in
      if keep v && live then loop () else v
    in
    loop ()

  let local_pad c cell ~work ~iters ~deadline =
    let rec loop k =
      if k < iters && Ctx.now c < deadline then begin
        ignore (Ctx.read c cell);
        Ctx.work c work;
        loop (k + 1)
      end
      else k
    in
    loop 0

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
  spin : ?deadline:int -> Ctx.t -> Cell.t -> (int -> bool) -> int;
  pad : Ctx.t -> Cell.t -> work:int -> iters:int -> deadline:int -> int;
  pause : granule:int -> Ctx.t -> int -> unit;
  await : poll_interval:int -> Ctx.t -> int Ivar.t -> int;
  await_timeout :
    poll_interval:int -> Ctx.t -> timeout:int -> int Ivar.t -> int option;
}

let library =
  {
    spin = Ctx.spin_while;
    pad = Ctx.local_pad;
    pause = (fun ~granule c n -> Ctx.interruptible_pause ~granule c n);
    await = (fun ~poll_interval c iv -> Ctx.await ~poll_interval c iv);
    await_timeout =
      (fun ~poll_interval c ~timeout iv ->
        Ctx.await_timeout ~poll_interval c ~timeout iv);
  }

let reference =
  {
    spin = Fiber_loops.spin_while;
    pad = Fiber_loops.local_pad;
    pause = Fiber_loops.interruptible_pause;
    await = Fiber_loops.await;
    await_timeout = Fiber_loops.await_timeout;
  }

(* A metronome tick's action. *)
type tick =
  | Nothing
  | Poke of int * int (* untimed write: cell index, value *)
  | Poke_own of int (* untimed write of every waiter's own cell *)
  | Ipi of int * int (* target waiter, handler work *)
  | Kill of int * int (* waiter, restart delay *)
  | Write of int * int (* timed write from a fresh writer fiber *)

(* A random scenario on 4-8 processors (2 stations), HECTOR or (a quarter
   of the time) NUMAchine, with a fault plan a quarter of the time, so more
   than half the scenarios can elide local spins and pads. Every processor
   but the last runs a list of waits — spins on its own and on shared cells
   (some deadline-bounded, some soft-masked), pads (mostly on its own cell,
   bounded by a count, a deadline or both, some soft-masked), awaits with
   and without timeout, interruptible pauses — while the last processor
   flips cell values, ivars fill, IPIs land mid-wait (some writing cells
   from the handler, some padding on the target's own cell, so a pad can
   run inside another's poll), processors die and restart, and hot-spots
   slow PMMs. Waiters also post IPIs to each other between waits, so wakes
   go on after the scheduled ones run out, and end with a pause into a
   quiet tail past them.

   Metronomes force ties: engine-event chains that step with the spin's own
   gaps (alternately [local_latency] and [branch_cost], so same-time events
   tie at every depth), with a pad's ([local_latency] and 6 cycles of
   work), with one of them only (a tie at depth 1), with both and a third
   (ties that end at depth 1, 2 or 3), at random, or with the poll interval
   or granule of a waiter's first wait. Most of the first two kinds and all
   of the last start at time 0, in step with every waiter's first spin or
   pad or that waiter's first poll. Half the poll waits share one interval,
   so their chains also tie with each other. Every tick is logged with its
   time, as are IPI handlers, timed-write completions, kills and waiter
   returns, and some ticks poke cells (one, or every waiter's own, which
   wakes spins in lock-step at once), post IPIs, kill waiters or start
   timed writes: a wake placed in the wrong order among same-time events
   reorders the log.

   The whole run is replayed from [seed], so both wait implementations see
   the same scenario. Returns the events executed, and everything the two
   runs must agree on. *)
let run_scenario ?(polls_only = false) waits seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n and bool () = Random.State.bool st in
  let coherent = int 4 = 0 in
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
  if int 4 = 0 then
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
  let waiters = n - 1 in
  (* Shared cells, then one cell homed on each waiter's own PMM. *)
  let cells =
    Array.init (3 + waiters) (fun i ->
        let home = if i < 3 then int n else i - 3 in
        Machine.alloc m ~home (int 3))
  in
  let ivars = Array.init 4 (fun _ -> Ivar.create ()) in
  let horizon = 20_000 in
  let results = ref [] and log = ref [] in
  let note what id = log := (what, id, Engine.now eng) :: !log in
  let common_gap = 1 + int 40 in
  let gap n = if bool () then common_gap else 1 + int n in
  let plan =
    Array.init waiters (fun p ->
        List.init (2 + int 5) (fun k ->
            match
              if polls_only then 2 + int 3
              else if k = 0 && bool () then if bool () then 0 else 5
              else int 6
            with
            | 0 | 1 ->
              (* Half the spins go to this processor's own cell. *)
              let cell = if bool () then cells.(3 + p) else cells.(int 3) in
              let deadline =
                if int 3 = 0 then Some (200 + int 3000) else None
              in
              `Spin (cell, int 3, deadline, bool ())
            | 2 -> `Await (int 4, gap 40)
            | 3 -> `Await_timeout (int 4, gap 40, int 2000)
            | 4 -> `Pause (int 1500, gap 64)
            | _ ->
              (* Most pads go to this processor's own cell, with 6 cycles
                 of work, as the kernel's do. *)
              let cell = if int 4 > 0 then cells.(3 + p) else cells.(int 3) in
              let work = if bool () then 6 else 1 + int 12 in
              let iters, deadline =
                match int 3 with
                | 0 -> (1 + int 300, None)
                | 1 -> (max_int, Some (int 3000))
                | _ -> (1 + int 300, Some (int 3000))
              in
              `Pad (cell, work, iters, deadline, int 4 = 0)))
  in
  let ipi id target work write =
    Ctx.post_ipi ctxs.(target) (fun tc ->
        note "ipi" id;
        if work mod 5 = 0 then
          note "pad"
            (waits.pad tc cells.(3 + target) ~work:6 ~iters:work
               ~deadline:max_int)
        else Ctx.work tc work;
        Option.iter (fun (cell, v) -> Ctx.write tc cells.(cell) v) write)
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
            let keep v = v <> target in
            if masked then
              Ctx.with_soft_mask c (fun () -> waits.spin ?deadline c cell keep)
            else waits.spin ?deadline c cell keep
          | `Pad (cell, work, iters, deadline, masked) ->
            let deadline =
              match deadline with Some d -> Ctx.now c + d | None -> max_int
            in
            let pad () = waits.pad c cell ~work ~iters ~deadline in
            if masked then Ctx.with_soft_mask c pad else pad ()
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
        note "return" ((100 * p) + k);
        (* Wake another waiter, perhaps from an elided wait that ends
           later: the end of one chain can cut another short. *)
        if int 4 = 0 then
          ipi (10_000 + (100 * p) + k) (int waiters) (1 + int 40) None;
        Ctx.work c (int 20))
      plan.(p);
    (* The quiet tail: pause until a time past [horizon], where nothing
       else is scheduled, so the waiters' chains end back to back with an
       empty heap between them; each end's IPI can cut another's pause
       short, which only placing one chain end at a time gets right. *)
    let until = horizon + int 3000 in
    if until > Ctx.now c then
      waits.pause ~granule:(gap 64) c (until - Ctx.now c);
    note "tail" p;
    ipi (20_000 + p) (int waiters) (1 + int 40) None
  in
  for p = 0 to waiters - 1 do
    Process.spawn eng (run_waits "first" p)
  done;
  Machine.set_restart_handler m (fun p ->
      if p < waiters then Process.spawn eng (run_waits "restart" p));
  let writer = ctxs.(n - 1) in
  let timed_write id cell v =
    Ctx.write writer cells.(cell) v;
    note "write" id
  in
  for id = 1 to 10 + int 30 do
    let cell = int 3 and v = int 3 in
    Process.spawn_at eng ~at:(int horizon) (fun () -> timed_write id cell v)
  done;
  Array.iteri
    (fun i iv ->
      if int 4 > 0 then
        Engine.schedule eng ~at:(int horizon) (fun () ->
            Ivar.fill eng iv (100 + i)))
    ivars;
  for id = 1 to 20 + int 60 do
    let target = int waiters and work = 1 + int 80 in
    let write =
      if bool () then Some (int (Array.length cells), int 3) else None
    in
    Engine.schedule eng ~at:(int horizon) (fun () -> ipi id target work write)
  done;
  let kill p restart_after =
    note "kill" p;
    Machine.kill_proc ~restart_after m p
  in
  for _ = 1 to int 3 do
    let p = int waiters and restart_after = int 3000 in
    Engine.schedule eng ~at:(int horizon) (fun () -> kill p restart_after)
  done;
  let b = cfg.Config.branch_cost and l = cfg.Config.local_latency in
  let first_polls =
    List.filter_map
      (fun waits ->
        match waits with
        | (`Await (_, g) | `Await_timeout (_, g, _) | `Pause (_, g)) :: _ ->
          Some g
        | _ -> None)
      (Array.to_list plan)
  in
  for metronome = 1 to 3 + int 6 do
    let gaps, start =
      match int 15 with
      | 0 | 1 | 2 | 3 -> ([| l; b |], 0)
      | 4 | 5 -> ([| l; b |], int horizon)
      | 12 | 13 -> ([| l; 6 |], 0)
      | 14 -> ([| l; 6 |], int horizon)
      | 6 -> ([| l |], int horizon)
      | 7 -> ([| b |], int horizon)
      | 8 -> ([| l; b; 1 + int 12 |], int (l + b))
      | 9 -> ([| 1 + int 12; 1 + int 12 |], int (l + b))
      | _ ->
        let g =
          match first_polls with
          | [] -> common_gap
          | gs -> List.nth gs (int (List.length gs))
        in
        ([| g |], 0)
    in
    let ticks =
      Array.init (50 + int 300) (fun _ ->
          match int 40 with
          | 0 | 1 | 2 -> Poke (int (Array.length cells), int 3)
          | 7 -> Poke_own (int 3)
          | 3 | 4 -> Ipi (int waiters, 1 + int 40)
          | 5 -> if int 8 = 0 then Kill (int waiters, int 3000) else Nothing
          | 6 -> Write (int 3, int 3)
          | _ -> Nothing)
    in
    let rec tick k () =
      note "tick" ((1000 * metronome) + k);
      (match ticks.(k) with
      | Nothing -> ()
      | Poke (cell, v) -> Machine.poke m cells.(cell) v
      | Poke_own v ->
        for p = 0 to waiters - 1 do
          Machine.poke m cells.(3 + p) v
        done
      | Ipi (target, work) -> ipi ((1000 * metronome) + k) target work None
      | Kill (p, restart_after) -> kill p restart_after
      | Write (cell, v) ->
        Process.spawn eng (fun () ->
            timed_write ((1000 * metronome) + k) cell v));
      if k + 1 < Array.length ticks then
        Engine.schedule_after eng
          ~delay:gaps.(k mod Array.length gaps)
          (tick (k + 1))
    in
    Engine.schedule eng ~at:start (tick 0)
  done;
  Engine.run ~until:(2 * horizon) eng;
  ( Engine.events_executed eng,
    ( (Engine.now eng, Engine.pending eng),
      (Machine.reads m, Machine.writes m, Machine.cache_hits m),
      Array.to_list
        (Array.map
           (fun c ->
             (Ctx.instr_cycles c, Ctx.irqs_taken c, Ctx.irqs_deferred c))
           ctxs),
      List.rev !results,
      List.rev !log ) )

(* Elided spins and polls run fewer events — that is the point — so the
   event count may only fall; everything else must match. *)
let prop_waits_match_fiber_loops =
  QCheck.Test.make ~name:"engine-driven waits replay the fiber loops exactly"
    ~count:150 QCheck.small_nat (fun seed ->
      let lib_events, lib = run_scenario library seed in
      let ref_events, expected = run_scenario reference seed in
      lib_events <= ref_events && lib = expected)

(* Minor words allocated by [f], which runs a whole simulation. *)
let words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* A wait costs O(1) minor words in total — its callbacks and the single
   suspension — not per iteration: about 120 words here, where the fiber
   loops (OCaml 5.1) allocate 40 words per spin iteration and 20 per pause
   granule. The spin is remote, so every iteration runs as events: a read
   issued every 21 cycles (19 to the station's other PMM, 2 for the
   branch), the 10 000th at 209 979, ended by the write at 209 990. *)
let test_spin_while_allocates_o1 () =
  let eng, machine, ctx = make () in
  let c = ctx 0 in
  let cell = Machine.alloc machine ~home:1 1 in
  Engine.schedule eng ~at:209_990 (fun () -> Machine.poke machine cell 0);
  let words =
    words_during (fun () ->
        simulate eng (fun () ->
            ignore (Ctx.spin_while c cell (fun v -> v <> 0))))
  in
  Alcotest.(check int) "iterations" 10_000 (Machine.reads machine);
  if words > 500. then
    Alcotest.failf "10 000 remote spin iterations allocated %.0f minor words"
      words

(* One spin, run by [waits], until [poke_at] writes 0 into [cell]: what it
   returned and when, the events executed and the read and instruction
   counts. *)
let spin_until_poked ?(cfg = Config.hector) ?plan waits ~home ~poke_at =
  let eng, machine, ctx = make ~cfg () in
  Option.iter (fun p -> Machine.set_fault_plan machine (Some p)) plan;
  let c = ctx 0 in
  let cell = Machine.alloc machine ~home 1 in
  Engine.schedule eng ~at:poke_at (fun () -> Machine.poke machine cell 0);
  let got = ref (-1, -1) in
  simulate eng (fun () ->
      let v = waits.spin c cell (fun v -> v <> 0) in
      got := (v, Ctx.now c));
  ( !got,
    Engine.events_executed eng,
    (Machine.reads machine, Ctx.instr_cycles c) )

(* An own-PMM spin on HECTOR reads every 12 cycles (10 for the local read,
   2 for the branch); the 10 000th read, issued at 119 988, sees the write
   at 119 990. Elided, the whole spin is the fiber's start, the write, the
   last read's completion and its branch — with the reads and branch
   cycles of all 10 000 iterations counted. *)
let test_local_spin_elided () =
  let got, events, counts =
    spin_until_poked library ~home:0 ~poke_at:119_990
  in
  let ref_got, ref_events, ref_counts =
    spin_until_poked reference ~home:0 ~poke_at:119_990
  in
  Alcotest.(check (pair int int)) "returns 0 when the loop does" ref_got got;
  Alcotest.(check (pair int int)) "reads and branch cycles" (10_000, 20_000)
    counts;
  Alcotest.(check (pair int int)) "as the loop counts them" ref_counts counts;
  Alcotest.(check int) "the loop's events" 20_002 ref_events;
  if events > 4 then Alcotest.failf "elided spin ran %d events" events

(* One 1 000-iteration pad (6 cycles of work a read), run by [waits], with
   an IPI at [ipi_at] if given: what it returned and when, the events
   executed, the read and instruction counts, and when the IPI was served. *)
let pad_run ?(cfg = Config.hector) ?plan ?ipi_at waits ~home =
  let eng, machine, ctx = make ~cfg () in
  Option.iter (fun p -> Machine.set_fault_plan machine (Some p)) plan;
  let c = ctx 0 in
  let cell = Machine.alloc machine ~home 0 in
  let served = ref (-1) in
  Option.iter
    (fun at ->
      Engine.schedule eng ~at (fun () ->
          Ctx.post_ipi c (fun c ->
              served := Ctx.now c;
              Ctx.work c 40)))
    ipi_at;
  let got = ref (-1, -1) in
  simulate eng (fun () ->
      let k = waits.pad c cell ~work:6 ~iters:1_000 ~deadline:max_int in
      got := (k, Ctx.now c));
  ( (!got, !served),
    Engine.events_executed eng,
    (Machine.reads machine, Ctx.instr_cycles c) )

(* An own-PMM pad on HECTOR reads every 16 cycles (10 for the read, 6 of
   work): 1 000 iterations end at 16 000. Elided, they run a handful of
   events, an IPI mid-stretch adds a few more, and every count matches the
   loop's. Remote, coherent and faulted pads run the loop's events. *)
let test_local_pad () =
  let plan = Fault.create (Fault.validate Fault.disabled) in
  List.iter
    (fun (what, cfg, plan, home, ipi_at, max_events) ->
      let got, events, counts =
        pad_run ~cfg ?plan ?ipi_at library ~home
      in
      let ref_got, ref_events, ref_counts =
        pad_run ~cfg ?plan ?ipi_at reference ~home
      in
      Alcotest.(check (pair (pair int int) int))
        (what ^ ": returns as the loop") ref_got got;
      Alcotest.(check (pair int int)) (what ^ ": counts as the loop")
        ref_counts counts;
      Alcotest.(check int) (what ^ ": 1 000 reads") 1_000 (fst counts);
      match max_events with
      | Some n ->
        if events > n then
          Alcotest.failf "%s: %d events, the loop %d" what events ref_events
      | None -> Alcotest.(check int) (what ^ ": same events") ref_events events)
    [
      ("own PMM", Config.hector, None, 0, None, Some 3);
      ("IPI mid-pad", Config.hector, None, 0, Some 8_003, Some 9);
      ("remote", Config.hector, None, 1, None, None);
      ("coherent", Config.numachine, None, 0, None, None);
      ("fault plan", Config.hector, Some plan, 0, None, None);
    ]

(* -- Elided poll waits ------------------------------------------------------

   [await] and [interruptible_pause] run no event per poll either: only an
   IPI, a kill, the ivar's fill or the wait's own deadline ends the chain,
   and then the one poll the loop would run next runs for real. *)

(* [f waits eng machine ctx note] on a fresh machine with nothing else
   scheduled: what it [note]d, with times, and the events executed. *)
let poll_run waits f =
  let eng, machine, ctx = make () in
  let log = ref [] in
  let note what = log := (what, Engine.now eng) :: !log in
  f waits eng machine ctx note;
  Engine.run eng;
  (List.rev !log, Engine.events_executed eng)

(* Check the library against the loop: same log; at most [max_events]
   events for the library, which the loop exceeds. *)
let check_polls what ~max_events f =
  let got, events = poll_run library f in
  let expected, ref_events = poll_run reference f in
  Alcotest.(check (list (pair string int))) (what ^ ": as the loop") expected
    got;
  if events > max_events || ref_events <= max_events then
    Alcotest.failf "%s: %d events elided, %d in the loop" what events
      ref_events

(* The reply comes 100 000 cycles out: 6 250 polls of 16 cycles in the
   loop, a handful of events elided. *)
let test_await_elided () =
  check_polls "await" ~max_events:4 (fun waits eng _ ctx note ->
      let iv = Ivar.create () in
      Engine.schedule eng ~at:100_000 (fun () -> Ivar.fill eng iv 7);
      Process.spawn eng (fun () ->
          let v = waits.await ~poll_interval:16 (ctx 0) iv in
          note (Printf.sprintf "got %d" v)))

(* Deadlines on the granule grid and off it: the pause ends exactly there. *)
let test_pause_ends_at_deadline () =
  List.iter
    (fun cycles ->
      check_polls
        (Printf.sprintf "pause %d" cycles)
        ~max_events:4
        (fun waits eng _ ctx note ->
          Process.spawn eng (fun () ->
              waits.pause ~granule:32 (ctx 0) cycles;
              note "done")))
    [ 100_000; 100_007 ]

(* An IPI in the middle of an elided pause is served at the loop's next
   poll, from a scheduled event and from the end of another processor's
   elided pause, with nothing else in the heap. *)
let test_ipi_mid_pause () =
  let serve ctx note _ =
    note "served";
    Ctx.work ctx 40
  in
  check_polls "scheduled IPI" ~max_events:16 (fun waits eng _ ctx note ->
      let c = ctx 0 in
      Engine.schedule eng ~at:50_003 (fun () -> Ctx.post_ipi c (serve c note));
      Process.spawn eng (fun () ->
          waits.pause ~granule:32 c 100_000;
          note "done"));
  check_polls "IPI from a pause's end" ~max_events:16
    (fun waits eng _ ctx note ->
      let c0 = ctx 0 and c1 = ctx 1 in
      Process.spawn eng (fun () ->
          waits.pause ~granule:32 c1 100_000;
          note "done 1");
      Process.spawn eng (fun () ->
          waits.pause ~granule:16 c0 50_003;
          Ctx.post_ipi c1 (serve c1 note);
          note "done 0"))

(* An await on an ivar nothing will fill: [run] says so at once, naming
   the processor, where the loop would burn the event budget. *)
let test_unending_await_deadlocks () =
  let eng, _, ctx = make () in
  Process.spawn eng (fun () -> ignore (Ctx.await (ctx 2) (Ivar.create ())));
  Alcotest.check_raises "deadlock"
    (Engine.Deadlock
       "no event can end the elided waits of processors 2: the event heap is \
        empty")
    (fun () -> Engine.run eng);
  if Engine.events_executed eng > 3 then
    Alcotest.failf "%d events before the deadlock" (Engine.events_executed eng)

(* Gaps wider than [Engine.max_gap] cannot be a chain: those waits run
   every poll as an event, exactly as the loop does. *)
let test_wide_poll_gaps () =
  let f waits eng _ ctx note =
    let iv = Ivar.create () in
    Engine.schedule eng ~at:250_000 (fun () -> Ivar.fill eng iv 1);
    Process.spawn eng (fun () ->
        ignore (waits.await ~poll_interval:100_000 (ctx 0) iv);
        note "await";
        waits.pause ~granule:100_000 (ctx 0) 350_000;
        note "pause")
  in
  let got = poll_run library f and expected = poll_run reference f in
  Alcotest.(check (pair (list (pair string int)) int))
    "as the loop, event for event" expected got

(* Scenarios of poll waits only: exact, and with strictly fewer events. *)
let test_poll_scenarios_elided () =
  for seed = 0 to 9 do
    let events, got = run_scenario ~polls_only:true library seed in
    let ref_events, expected = run_scenario ~polls_only:true reference seed in
    if got <> expected then Alcotest.failf "seed %d: differs from the loop" seed;
    if events >= ref_events then
      Alcotest.failf "seed %d: %d events, the loop %d" seed events ref_events
  done

(* Spins whose iterations can observe or change shared state keep one event
   pair per iteration: remote, on a coherent machine (cache hits), or with
   a fault plan installed (hot-spots scale local latency too). *)
let test_unelided_spins_keep_events () =
  let plan = Fault.create (Fault.validate Fault.disabled) in
  List.iter
    (fun (what, cfg, plan, home) ->
      let got, events, (reads, _) =
        spin_until_poked ~cfg ?plan library ~home ~poke_at:5_000
      in
      let ref_got, ref_events, _ =
        spin_until_poked ~cfg ?plan reference ~home ~poke_at:5_000
      in
      Alcotest.(check (pair int int)) (what ^ ": same result") ref_got got;
      Alcotest.(check int) (what ^ ": same events") ref_events events;
      if events < 2 * reads then
        Alcotest.failf "%s: %d events for %d iterations" what events reads)
    [
      ("remote", Config.hector, None, 1);
      ("coherent", Config.numachine, None, 0);
      ("fault plan", Config.hector, Some plan, 0);
    ]

(* A spin that nothing can end: no write, IPI or kill is left to come, so
   [Engine.run] reports the deadlock at once, naming the processor, instead
   of burning the event budget. *)
let test_unending_spin_deadlocks () =
  let eng, machine, ctx = make () in
  let cell = Machine.alloc machine ~home:3 1 in
  Process.spawn eng (fun () ->
      ignore (Ctx.spin_while (ctx 3) cell (fun v -> v <> 0)));
  Alcotest.check_raises "deadlock"
    (Engine.Deadlock
       "no event can end the elided waits of processors 3: the event heap is \
        empty")
    (fun () -> Engine.run eng)

(* An elided wait counts as the one event its spin would keep queued, both
   from inside a dispatch and after [run ~until]. *)
let test_pending_counts_elided_wait () =
  let observe waits =
    let eng, machine, ctx = make () in
    let c = ctx 0 in
    let cell = Machine.alloc machine ~home:0 1 in
    let seen = ref (-1) in
    Engine.schedule eng ~at:500 (fun () -> seen := Engine.pending eng);
    Process.spawn eng (fun () -> ignore (waits.spin c cell (fun v -> v <> 0)));
    Engine.run ~until:1_000 eng;
    (!seen, Engine.pending eng, Engine.now eng, Machine.reads machine,
     Ctx.instr_cycles c)
  in
  let seen, after, now, reads, instr = observe library in
  Alcotest.(check int) "pending mid-spin" 1 seen;
  Alcotest.(check int) "pending after run ~until" 1 after;
  Alcotest.(check (list int)) "as the loop leaves them"
    (let s, a, n, r, i = observe reference in [ s; a; n; r; i ])
    [ seen; after; now; reads; instr ]

(* Two spins in lock-step outlast the dispatch ring: a metronome in step
   with them runs 6 000 ticks (one dispatch each, far more than the ring
   holds) before it ends both spins at once. The spins are re-rooted as
   their roots age, and their tie order, fixed at time 0, must survive:
   the log of ticks and returns matches the loop's. *)
let test_long_lockstep_spins () =
  let run waits =
    let eng, machine, ctx = make () in
    let cells = Array.init 2 (fun p -> Machine.alloc machine ~home:p 1) in
    let log = ref [] in
    let note what = log := (what, Engine.now eng) :: !log in
    for p = 0 to 1 do
      Process.spawn eng (fun () ->
          ignore (waits.spin (ctx p) cells.(p) (fun v -> v <> 0));
          note (Printf.sprintf "return %d" p))
    done;
    let rec tick k () =
      note "tick";
      if k = 5_000 then Array.iter (fun c -> Machine.poke machine c 0) cells;
      if k < 6_000 then
        Engine.schedule_after eng ~delay:(if k land 1 = 0 then 10 else 2)
          (tick (k + 1))
    in
    Engine.schedule eng ~at:0 (tick 0);
    Engine.run eng;
    (Engine.events_executed eng, (List.rev !log, Machine.reads machine))
  in
  let events, got = run library and ref_events, expected = run reference in
  Alcotest.(check bool) "same log and reads" true (got = expected);
  if events >= ref_events - 9_000 then
    Alcotest.failf "elided spins ran %d events, the loop %d" events ref_events

(* Two fibers on one processor both spin on its own PMM: only one spin can
   be elided at a time, and both end when their cells are written. *)
let test_two_spins_on_one_processor () =
  let run waits =
    let eng, machine, ctx = make () in
    let c = ctx 0 in
    let cells = Array.init 2 (fun _ -> Machine.alloc machine ~home:0 1) in
    let log = ref [] in
    Array.iteri
      (fun i cell ->
        Process.spawn eng (fun () ->
            let v = waits.spin c cell (fun v -> v <> 0) in
            log := (i, v, Ctx.now c) :: !log);
        Engine.schedule eng ~at:(1_000 - (500 * i)) (fun () ->
            Machine.poke machine cell 0))
      cells;
    Engine.run eng;
    (List.rev !log, Machine.reads machine, Ctx.instr_cycles c)
  in
  Alcotest.(check bool) "as the loops run" true (run library = run reference)

(* The checker's watchdog still sees a waiter whose spin is elided: an MCS
   holder that never releases leaves its successor spinning on its own PMM,
   and the stall is reported. *)
let test_watchdog_sees_elided_spin () =
  let eng, machine, ctx = make () in
  let v = Verify.create ~n_procs:(Machine.n_procs machine) () in
  Machine.set_verify machine (Some v);
  let lock = Locks.Mcs.create ~home:0 ~vclass:"ctx.stall" machine in
  Process.spawn eng (fun () -> Locks.Mcs.acquire lock (ctx 0));
  Process.spawn_at eng ~at:1_000 (fun () -> Locks.Mcs.acquire lock (ctx 1));
  Verify.watchdog ~period:5_000 ~stall_limit:50_000 v eng;
  match Engine.run eng with
  | () -> Alcotest.fail "the stalled waiter went unreported"
  | exception Verify.Violation viol ->
    Alcotest.(check string) "stall" "stall" (Verify.kind_name viol.Verify.vkind)

(* Elided (granule 8) or running every tick as an event (a granule wider
   than [Engine.max_gap]), a 10 000-granule pause costs O(1) minor words. *)
let test_interruptible_pause_allocates_o1 () =
  List.iter
    (fun (granule, events) ->
      let eng, _, ctx = make () in
      let c = ctx 0 in
      let words =
        words_during (fun () ->
            simulate eng (fun () ->
                Ctx.interruptible_pause ~granule c (granule * 10_000)))
      in
      Alcotest.(check int)
        (Printf.sprintf "events at granule %d" granule)
        events (Engine.events_executed eng);
      if words > 500. then
        Alcotest.failf "a 10 000-granule pause allocated %.0f minor words"
          words)
    [ (8, 2); (Engine.max_gap + 1, 10_001) ]

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
    Alcotest.test_case "own-PMM spin elided with exact counts" `Quick
      test_local_spin_elided;
    Alcotest.test_case "local_pad elided on its own PMM only" `Quick
      test_local_pad;
    Alcotest.test_case "await elided, returns as the loop" `Quick
      test_await_elided;
    Alcotest.test_case "interruptible_pause ends at its deadline" `Quick
      test_pause_ends_at_deadline;
    Alcotest.test_case "IPI mid-pause served as in the loop" `Quick
      test_ipi_mid_pause;
    Alcotest.test_case "unending await raises Deadlock" `Quick
      test_unending_await_deadlocks;
    Alcotest.test_case "wide poll gaps keep every event" `Quick
      test_wide_poll_gaps;
    Alcotest.test_case "poll scenarios run fewer events" `Quick
      test_poll_scenarios_elided;
    Alcotest.test_case "remote, coherent, faulted spins keep events" `Quick
      test_unelided_spins_keep_events;
    Alcotest.test_case "unending elided spin raises Deadlock" `Quick
      test_unending_spin_deadlocks;
    Alcotest.test_case "pending counts an elided wait as one" `Quick
      test_pending_counts_elided_wait;
    Alcotest.test_case "lock-step spins outlast the dispatch ring" `Quick
      test_long_lockstep_spins;
    Alcotest.test_case "two spins on one processor" `Quick
      test_two_spins_on_one_processor;
    Alcotest.test_case "watchdog sees a stall in an elided spin" `Quick
      test_watchdog_sees_elided_spin;
    Alcotest.test_case "interruptible_pause allocates O(1) words" `Quick
      test_interruptible_pause_allocates_o1;
    Alcotest.test_case "non-positive wait intervals are rejected" `Quick
      test_nonpositive_intervals_rejected;
  ]
