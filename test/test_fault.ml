(* Tests for the fault-injection subsystem: the plan itself (validation,
   determinism, scheduled dosing, hot-spot windows), the injection sites
   (context fault points, machine access path, RPC delay/loss/resend), the
   bounded-retry RPC outcome, and the storm acceptance criterion — under
   injected holder stalls, timeout-capable locking must retain strictly
   more throughput than the unbounded protocol. *)

open Eventsim
open Hector
open Hkernel

let make () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let rng = Rng.create 55 in
  let ctxs =
    Array.init 16 (fun p -> Ctx.create machine ~proc:p (Rng.split rng))
  in
  let rpc = Rpc.create machine ctxs Costs.default in
  (eng, machine, ctxs, rpc)

let rejects cfg =
  match Fault.validate cfg with
  | exception Invalid_argument _ -> true
  | _ -> false

(* -- the plan ---------------------------------------------------------------- *)

let test_validate () =
  let d = Fault.disabled in
  Alcotest.(check bool) "disabled passes" true (Fault.validate d == d);
  Alcotest.(check bool) "rate > 1" true
    (rejects { d with stall_rate = 1.5 });
  Alcotest.(check bool) "negative rate" true
    (rejects { d with rpc_delay_rate = -0.1 });
  Alcotest.(check bool) "negative period" true
    (rejects { d with stall_every = -1 });
  Alcotest.(check bool) "rate and schedule exclusive" true
    (rejects { d with stall_rate = 0.1; stall_every = 100 });
  Alcotest.(check bool) "factor below 1" true
    (rejects { d with hotspot_factor = 0 });
  Alcotest.(check bool) "losses need a reply timeout" true
    (rejects { d with rpc_drop_rate = 0.5 });
  Alcotest.(check bool) "losses with timeout pass" true
    (match
       Fault.validate { d with rpc_drop_rate = 0.5; reply_timeout = 400 }
     with
    | _ -> true
    | exception Invalid_argument _ -> false);
  Alcotest.(check bool) "crash rate > 1" true
    (rejects { d with crash_rate = 1.5 });
  Alcotest.(check bool) "negative crash-schedule time" true
    (rejects { d with crash_at = [ (-5, 0) ] });
  Alcotest.(check bool) "negative crash-schedule processor" true
    (rejects { d with crash_at = [ (100, -1) ] });
  Alcotest.(check bool) "negative restart delay" true
    (rejects { d with restart_after = -1 });
  Alcotest.(check bool) "crash schedule with restart passes" true
    (match
       Fault.validate { d with crash_at = [ (100, 3) ]; restart_after = 50 }
     with
    | _ -> true
    | exception Invalid_argument _ -> false)

let test_draw_determinism () =
  let cfg =
    {
      Fault.disabled with
      seed = 7;
      stall_rate = 0.5;
      stall_cycles = 10;
      rpc_delay_rate = 0.3;
      rpc_delay_cycles = 20;
      rpc_drop_rate = 0.4;
      reply_timeout = 100;
    }
  in
  let trace () =
    let t = Fault.create cfg in
    List.init 100 (fun i ->
        ( Fault.draw_stall t ~site:0 ~now:i,
          Fault.draw_rpc_delay t ~now:i,
          Fault.draw_rpc_drop t ~now:i ))
  in
  Alcotest.(check bool) "same seed, same draws" true (trace () = trace ());
  let t = Fault.create cfg in
  let n =
    List.length
      (List.filter
         (fun i -> Fault.draw_stall t ~site:0 ~now:i <> None)
         (List.init 100 Fun.id))
  in
  Alcotest.(check int) "every draw counted" n (Fault.stalls_injected t)

let test_scheduled_stalls () =
  let t =
    Fault.create { Fault.disabled with stall_every = 100; stall_cycles = 5 }
  in
  let hit now = Fault.draw_stall t ~site:1 ~now <> None in
  Alcotest.(check bool) "before first period" false (hit 0);
  Alcotest.(check bool) "still before" false (hit 99);
  Alcotest.(check bool) "first period boundary" true (hit 100);
  Alcotest.(check bool) "one per period" false (hit 150);
  Alcotest.(check bool) "next period" true (hit 200);
  (* A quiet stretch: the next visit gets one stall, not a burst. *)
  Alcotest.(check bool) "after a gap" true (hit 950);
  Alcotest.(check bool) "no catching up" false (hit 960);
  Alcotest.(check int) "counted" 3 (Fault.stalls_injected t);
  Alcotest.(check int) "per site" 3 (Fault.stalls_at t ~site:1);
  Alcotest.(check (list (pair int int)))
    "chronological log" [ (100, 5); (200, 5); (950, 5) ] (Fault.stall_log t)

(* Scheduled dosing as an executable spec, over arbitrary visit patterns:
   the first visit on or after the arming point doses and re-arms one
   period later, so consecutive doses are at least a period apart, a quiet
   stretch is skipped rather than repaid in a burst, and the total dosage
   is bounded by elapsed time over the period. *)
let prop_stall_every_dosing =
  QCheck.Test.make ~name:"stall_every: period-boundary dosing, no bursts"
    ~count:100
    QCheck.(pair (int_range 1 500) (small_list (int_range 0 10_000)))
    (fun (period, visits) ->
      let visits = List.sort_uniq compare visits in
      let t =
        Fault.create
          { Fault.disabled with stall_every = period; stall_cycles = 7 }
      in
      let next = ref period in
      let spec_ok =
        List.for_all
          (fun now ->
            let expect = now >= !next in
            if expect then next := now + period;
            Fault.draw_stall t ~site:0 ~now <> None = expect)
          visits
      in
      let starts = List.map fst (Fault.stall_log t) in
      let rec spaced = function
        | a :: (b :: _ as rest) -> b - a >= period && spaced rest
        | _ -> true
      in
      let bounded =
        match List.rev visits with
        | [] -> Fault.stalls_injected t = 0
        | last :: _ -> Fault.stalls_injected t <= last / period
      in
      spec_ok
      && spaced starts
      && List.for_all (fun s -> s >= period) starts
      && bounded)

let test_hotspot_window () =
  let t =
    Fault.create
      {
        Fault.disabled with
        hotspot_rate = 1.0;
        hotspot_factor = 4;
        hotspot_cycles = 100;
      }
  in
  Alcotest.(check int) "opens hot" 4 (Fault.hotspot_factor t ~pmm:0 ~now:0);
  Alcotest.(check int) "one window" 1 (Fault.hotspots_injected t);
  Alcotest.(check int) "stays hot" 4 (Fault.hotspot_factor t ~pmm:0 ~now:99);
  Alcotest.(check int) "no re-open while hot" 1 (Fault.hotspots_injected t);
  Alcotest.(check int) "independent PMM" 4 (Fault.hotspot_factor t ~pmm:3 ~now:50);
  Alcotest.(check int) "second window" 2 (Fault.hotspots_injected t);
  Alcotest.(check int)
    "cool after expiry (rate 1: reopens)" 4
    (Fault.hotspot_factor t ~pmm:0 ~now:200);
  Alcotest.(check int) "third window" 3 (Fault.hotspots_injected t)

(* -- injection sites --------------------------------------------------------- *)

let test_fault_point_stalls () =
  let eng, machine, ctxs, _ = make () in
  let plan =
    Fault.create { Fault.disabled with stall_rate = 1.0; stall_cycles = 400 }
  in
  Machine.set_fault_plan machine (Some plan);
  let dt = ref 0 in
  Process.spawn eng (fun () ->
      let t0 = Machine.now machine in
      Ctx.fault_point ctxs.(0) ~site:3;
      dt := Machine.now machine - t0);
  Engine.run eng;
  Alcotest.(check bool) "spent the stall" true (!dt >= 400);
  Alcotest.(check int) "site counter" 1 (Fault.stalls_at plan ~site:3);
  Alcotest.(check int) "other site untouched" 0 (Fault.stalls_at plan ~site:0)

let test_fault_point_free_without_plan () =
  let eng, machine, ctxs, _ = make () in
  Process.spawn eng (fun () ->
      let t0 = Machine.now machine in
      Ctx.fault_point ctxs.(0) ~site:0;
      Alcotest.(check int) "zero cycles" t0 (Machine.now machine));
  Engine.run eng

let test_hotspot_slows_accesses () =
  let run plan =
    let eng, machine, ctxs, _ = make () in
    Machine.set_fault_plan machine plan;
    let cell = Machine.alloc machine ~home:8 0 in
    let dt = ref 0 in
    Process.spawn eng (fun () ->
        let t0 = Machine.now machine in
        for _ = 1 to 20 do
          ignore (Ctx.read ctxs.(0) cell)
        done;
        dt := Machine.now machine - t0);
    Engine.run eng;
    !dt
  in
  let cool = run None in
  let hot =
    run
      (Some
         (Fault.create
            {
              Fault.disabled with
              hotspot_rate = 1.0;
              hotspot_factor = 8;
              hotspot_cycles = 1_000_000;
            }))
  in
  Alcotest.(check bool)
    (Printf.sprintf "hot remote reads cost more (%d vs %d)" hot cool)
    true
    (hot >= 4 * cool)

let test_await_timeout () =
  let eng, machine, ctxs, _ = make () in
  Process.spawn eng (fun () ->
      let iv = Ivar.create () in
      Engine.schedule eng ~at:800 (fun () -> Ivar.fill eng iv 42);
      let c = ctxs.(0) in
      Alcotest.(check (option int))
        "expires empty" None
        (Ctx.await_timeout c ~timeout:100 iv);
      Alcotest.(check bool) "time advanced" true (Machine.now machine >= 100);
      Alcotest.(check (option int))
        "delivers once filled" (Some 42)
        (Ctx.await_timeout c ~timeout:10_000 iv));
  Engine.run eng

(* -- RPC under faults -------------------------------------------------------- *)

let test_rpc_loss_recovered_by_resend () =
  let eng, _, ctxs, rpc = make () in
  let plan =
    Fault.create
      { Fault.disabled with rpc_drop_rate = 1.0; reply_timeout = 2000 }
  in
  Rpc.set_fault_plan rpc (Some plan);
  Process.spawn eng (fun () -> Ctx.idle_loop ctxs.(8));
  let service_runs = ref 0 in
  let got = ref None in
  Process.spawn eng (fun () ->
      got :=
        Some
          (Rpc.call rpc ctxs.(0) ~target:8 (fun _ ->
               incr service_runs;
               Rpc.Ok 7)));
  Engine.run eng;
  Alcotest.(check bool) "call completed despite loss" true
    (!got = Some (Rpc.Ok 7));
  Alcotest.(check bool) "resent at least once" true (Rpc.resends rpc >= 1);
  Alcotest.(check int) "exactly one loss per call" 1
    (Fault.rpc_drops_injected plan);
  (* At-least-once: the service ran, and a duplicate whose reply already
     arrived is discarded, so never more than twice here. *)
  Alcotest.(check bool) "service ran once or twice" true
    (!service_runs >= 1 && !service_runs <= 2)

let test_rpc_delay_injected () =
  let run plan =
    let eng, machine, ctxs, rpc = make () in
    Rpc.set_fault_plan rpc plan;
    Process.spawn eng (fun () -> Ctx.idle_loop ctxs.(8));
    let dt = ref 0 in
    Process.spawn eng (fun () ->
        let t0 = Machine.now machine in
        ignore (Rpc.call rpc ctxs.(0) ~target:8 (fun _ -> Rpc.Ok 0));
        dt := Machine.now machine - t0);
    Engine.run eng;
    (!dt, rpc)
  in
  let base, _ = run None in
  let plan =
    Fault.create
      {
        Fault.disabled with
        rpc_delay_rate = 1.0;
        rpc_delay_cycles = 1000;
      }
  in
  let slow, _ = run (Some plan) in
  (* One delay marshalling the request, one before the reply. *)
  Alcotest.(check bool)
    (Printf.sprintf "both legs delayed (%d vs %d)" slow base)
    true
    (slow >= base + 2000);
  Alcotest.(check int) "delays counted" 2 (Fault.rpc_delays_injected plan)

let test_bounded_retry_gives_up () =
  let eng, _, ctxs, rpc = make () in
  Process.spawn eng (fun () -> Ctx.idle_loop ctxs.(4));
  let releases = ref 0 in
  let got = ref None in
  Process.spawn eng (fun () ->
      got :=
        Some
          (Rpc.call_until_resolved rpc ctxs.(0) ~target:4 ~max_attempts:10
             ~before_retry:(fun () -> incr releases)
             (fun _ -> Rpc.Would_deadlock)));
  Engine.run eng;
  Alcotest.(check bool) "gave up" true (!got = Some Rpc.Gave_up);
  Alcotest.(check int) "one give-up counted" 1 (Rpc.gave_ups rpc);
  Alcotest.(check int) "all attempts retried" 10 (Rpc.retries rpc);
  Alcotest.(check int) "worst attempt recorded" 10 (Rpc.max_attempts_seen rpc);
  Alcotest.(check int) "attempts 9 and 10 past the backoff cap" 2
    (Rpc.backoff_cap_hits rpc);
  (* before_retry also runs before Gave_up: a giving-up caller must not
     keep its reserve bits either. *)
  Alcotest.(check int) "reserves released every attempt" 10 !releases

let test_unbounded_retry_still_resolves () =
  let eng, _, ctxs, rpc = make () in
  Process.spawn eng (fun () -> Ctx.idle_loop ctxs.(4));
  let failures_left = ref 12 in
  let got = ref None in
  Process.spawn eng (fun () ->
      got :=
        Some
          (Rpc.call_until_resolved rpc ctxs.(0) ~target:4 (fun _ ->
               if !failures_left > 0 then begin
                 decr failures_left;
                 Rpc.Would_deadlock
               end
               else Rpc.Ok 5)));
  Engine.run eng;
  Alcotest.(check bool) "resolved" true (!got = Some (Rpc.Ok 5));
  Alcotest.(check int) "no give-up without a budget" 0 (Rpc.gave_ups rpc);
  Alcotest.(check bool) "cap hits visible past x8" true
    (Rpc.backoff_cap_hits rpc > 0)

(* -- a disabled plan is exactly free ----------------------------------------- *)

let test_disabled_plan_identity () =
  let run plan =
    let eng, machine, ctxs, rpc = make () in
    Machine.set_fault_plan machine plan;
    Rpc.set_fault_plan rpc plan;
    let cell = Machine.alloc machine ~home:9 0 in
    Process.spawn eng (fun () -> Ctx.idle_loop ctxs.(8));
    Process.spawn eng (fun () ->
        let c = ctxs.(0) in
        for _ = 1 to 10 do
          Ctx.fault_point c ~site:0;
          ignore (Ctx.read c cell);
          ignore (Rpc.call rpc c ~target:8 (fun _ -> Rpc.Ok 1))
        done);
    Engine.run eng;
    Machine.now machine
  in
  Alcotest.(check int) "same end time with a disabled plan"
    (run None)
    (run (Some (Fault.create Fault.disabled)))

(* -- acceptance: timeouts beat unbounded waiting under stalls ---------------- *)

let test_storm_timeouts_retain_more () =
  let open Workloads in
  let cycles us = Config.cycles_of_us Config.hector us in
  let fault =
    {
      Fault.disabled with
      seed = 42;
      stall_every = cycles 1000.0;
      stall_cycles = cycles 1000.0;
    }
  in
  let config =
    { Fault_storm.default_config with window_us = 10_000.0; fault = Some fault }
  in
  let plain = Fault_storm.run ~config Fault_storm.No_timeout in
  let timed = Fault_storm.run ~config Fault_storm.Timeout in
  Alcotest.(check bool) "stalls were injected" true
    (plain.Fault_storm.stalls_injected > 0);
  Alcotest.(check bool) "timed mechanism used its timeouts" true
    (timed.Fault_storm.lock_timeouts > 0
    || timed.Fault_storm.reserve_timeouts > 0);
  Alcotest.(check bool)
    (Printf.sprintf "timeouts retain strictly more ops (%d vs %d)"
       timed.Fault_storm.ops plain.Fault_storm.ops)
    true
    (timed.Fault_storm.ops > plain.Fault_storm.ops)

let suite =
  [
    Alcotest.test_case "config validation" `Quick test_validate;
    Alcotest.test_case "draws are deterministic and counted" `Quick
      test_draw_determinism;
    Alcotest.test_case "scheduled stalls: one per period" `Quick
      test_scheduled_stalls;
    Qc.to_alcotest prop_stall_every_dosing;
    Alcotest.test_case "hot-spot windows" `Quick test_hotspot_window;
    Alcotest.test_case "fault point spends the stall" `Quick
      test_fault_point_stalls;
    Alcotest.test_case "fault point free without a plan" `Quick
      test_fault_point_free_without_plan;
    Alcotest.test_case "hot-spot slows the access path" `Quick
      test_hotspot_slows_accesses;
    Alcotest.test_case "await_timeout expiry and delivery" `Quick
      test_await_timeout;
    Alcotest.test_case "RPC loss recovered by resend" `Quick
      test_rpc_loss_recovered_by_resend;
    Alcotest.test_case "RPC delays injected on both legs" `Quick
      test_rpc_delay_injected;
    Alcotest.test_case "bounded retry gives up" `Quick
      test_bounded_retry_gives_up;
    Alcotest.test_case "unbounded retry still resolves" `Quick
      test_unbounded_retry_still_resolves;
    Alcotest.test_case "disabled plan is exactly free" `Quick
      test_disabled_plan_identity;
    Alcotest.test_case "storm: timeouts retain more under stalls" `Slow
      test_storm_timeouts_retain_more;
  ]
