(* Fault-injection storm: degradation and recovery under injected faults.

   [p] worker processors run the hybrid-locking fast path — a coarse MCS
   lock to search and reserve one of [k] elements, reserve bit held across
   the "use" — over [s] independent structures (like per-cluster instances
   of one kernel structure), while a fault plan injects holder stalls at
   the two places a stall hurts most (inside the coarse critical section
   and while a reserve bit is held), plus RPC delay/loss and memory
   hot-spots. Every
   [rpc_every]-th operation additionally calls an RPC service on a
   dedicated server processor; a "hog" process keeps the service's status
   word reserved for long windows, so those calls fail with
   [Would_deadlock] in streaks — the unbounded-retry hazard.

   Three mechanisms are compared:

   - [No_timeout]: the pre-existing protocol. Plain [Mcs.acquire], unbounded
     [Reserve.spin_until_clear], unbounded RPC retry. A stalled holder
     stalls everyone behind it.
   - [Timeout]: [Mcs.acquire_with_timeout] and
     [Reserve.spin_until_clear_timeout]; on expiry the worker moves to
     another structure, deferring the op to local fallback work only after
     bouncing off all of them. RPC retry still unbounded.
   - [Bounded_retry]: [Timeout] plus [Rpc.call_until_resolved
     ~max_attempts]; a [Gave_up] call falls back to deferred local work
     instead of retrying into a reserved service forever.

   All shared-word traffic for the server's status goes through RPC
   services on the server processor, whose interrupt context serialises
   them — reserve bits stay plain loads and stores. Services are
   re-executed on a resend after a lost reply (at-least-once), so the
   worker service is a self-contained reserve/work/clear and the hog
   services are idempotent.

   The fault plan is the config's last four fields, seeded by [seed].
   With no stall period and both RPC rates zero nothing is injected and
   all three mechanisms take only fast paths. *)

open Eventsim
open Hector
open Locks
open Hkernel

type mechanism = No_timeout | Timeout | Bounded_retry

let mechanism_name = function
  | No_timeout -> "no-timeout"
  | Timeout -> "timeout"
  | Bounded_retry -> "bounded-retry"

type config = {
  p : int;  (* worker processors *)
  s : int;  (* independent structures, each with its own coarse lock *)
  k : int;  (* elements per structure *)
  hold_us : float;  (* reserve-bit hold (the element "use") *)
  think_us : float;
  window_us : float;
  rpc_every : int;  (* one worker op in [rpc_every] also calls the server *)
  lock_timeout_us : float;
  reserve_timeout_us : float;
  max_attempts : int;  (* RPC attempt budget under Bounded_retry *)
  hog_hold_us : float;  (* how long the hog keeps the service reserved *)
  hog_idle_us : float;  (* gap between hog holds *)
  seed : int;
  stall_every_us : float;  (* one holder stall per period; 0 = none *)
  stall_us : float;
  drop_rate : float;  (* P(loss) per RPC call *)
  delay_rate : float;  (* P(delay) per RPC message *)
}

(* An injected RPC delay, and the resend timeout that drops need. *)
let rpc_delay_us = 25.0
let reply_timeout_us = 250.0

let default_config =
  {
    p = 8;
    s = 2;
    k = 8;
    hold_us = 2.0;
    think_us = 3.0;
    window_us = 30_000.0;
    rpc_every = 4;
    (* Both timeouts sit well above the natural waits (queue transit and a
       2 us reserve hold) and well below an injected stall, so with faults
       off neither fires and the three mechanisms behave identically. *)
    lock_timeout_us = 250.0;
    reserve_timeout_us = 50.0;
    max_attempts = 4;
    hog_hold_us = 400.0;
    hog_idle_us = 600.0;
    seed = 11;
    stall_every_us = 2000.0;
    stall_us = 1000.0;
    drop_rate = 0.0;
    delay_rate = 0.0;
  }

(* The plan the config's fault fields describe, if they inject anything. *)
let plan cfg c =
  let cycles = Config.cycles_of_us cfg in
  if c.stall_every_us <= 0.0 && c.drop_rate <= 0.0 && c.delay_rate <= 0.0
  then None
  else
    Some
      (Fault.create
         (Fault.validate
            {
              Fault.disabled with
              seed = c.seed;
              stall_every =
                (if c.stall_every_us > 0.0 then cycles c.stall_every_us else 0);
              stall_cycles = cycles c.stall_us;
              rpc_delay_rate = c.delay_rate;
              rpc_delay_cycles = cycles rpc_delay_us;
              rpc_drop_rate = c.drop_rate;
              reply_timeout =
                (if c.drop_rate > 0.0 then cycles reply_timeout_us else 0);
            }))

type result = {
  mechanism : mechanism;
  ops : int;  (* completed element operations *)
  deferred : int;  (* ops deferred to local work after a lock timeout *)
  rpc_ok : int;
  rpc_calls : int;
  rpc_resends : int;
  rpc_gave_ups : int;
  lock_timeouts : int;
  lock_gcs : int;  (* abandoned queue nodes collected by releases *)
  reserve_timeouts : int;
  stalls_injected : int;
  delays_injected : int;
  drops_injected : int;
  hotspots_injected : int;
  recovery : Measure.summary;
      (* per injected stall: time from stall start to the next completed
         reserve acquisition by any worker *)
}

(* Time from each injected stall's start to the first critical-section
   entry at or after it — how long the storm freezes everyone else.
   [entries] is nondecreasing (events fire in time order). *)
let recovery_stat ~label stalls entries =
  let stat = Stat.create label in
  let entries = ref entries in
  List.iter
    (fun (start, _dur) ->
      let rec skip () =
        match !entries with
        | e :: rest when e < start ->
          entries := rest;
          skip ()
        | _ -> ()
      in
      skip ();
      match !entries with
      | e :: _ -> Stat.add stat (e - start)
      | [] -> ())
    stalls;
  stat

let run ?(cfg = Config.hector) ?(config = default_config) ?verify ?obs
    mechanism =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let n = Config.n_procs cfg in
  if config.p < 1 then invalid_arg "Fault_storm.run: p must be at least 1";
  if config.p + 2 > n then invalid_arg "Fault_storm.run: p + 2 procs needed";
  let server = config.p in
  let hog = config.p + 1 in
  let rng = Rng.create config.seed in
  let ctxs = Array.init n (fun proc -> Ctx.create machine ~proc (Rng.split rng)) in
  let rpc = Rpc.create machine ctxs Costs.default in
  let plan = plan cfg config in
  Machine.set_fault_plan machine plan;
  Rpc.set_fault_plan rpc plan;
  (* Lockdep: installed before any lock traffic so the checker sees every
     acquisition; the watchdog event keeps itself scheduled until the
     storm's own processes drain. Note that reply-drop faults re-execute
     services at-least-once, so the clear service can legitimately run
     twice — run the checker with a no-drop plan (see EXPERIMENTS.md). *)
  (match verify with
  | None -> ()
  | Some v ->
    Machine.set_verify machine (Some v);
    Verify.watchdog v eng);
  (* Contention observer: same hook sites, pure host-side profiling — with
     or without it the storm's simulated timing is identical. *)
  (match obs with None -> () | Some o -> Machine.set_obs machine (Some o));
  (* [s] independent structures — separate coarse locks, separate element
     arrays — like per-cluster instances of one kernel structure. A worker
     whose timed acquire expires moves to another structure instead of
     waiting out a stalled holder; the unbounded protocol has no such
     escape. Locks and elements are spread over the workers' PMMs so
     hot-spot windows hit real traffic. *)
  let locks =
    Array.init config.s (fun si ->
        Mcs.create machine ~home:(si mod config.p) ~variant:Mcs.H2)
  in
  let status =
    Array.init config.s (fun si ->
        Array.init config.k (fun i ->
            Machine.alloc machine ~home:((si + i) mod config.p) 0))
  in
  let payload =
    Array.init config.s (fun si ->
        Array.init config.k (fun i ->
            Machine.alloc machine ~home:((si + i) mod config.p) 0))
  in
  let srv_status = Machine.alloc machine ~home:server 0 in
  let srv_payload = Machine.alloc machine ~home:server 0 in
  let hold = Config.cycles_of_us cfg config.hold_us in
  let think = Config.cycles_of_us cfg config.think_us in
  let t_end = Config.cycles_of_us cfg config.window_us in
  let lock_timeout = Config.cycles_of_us cfg config.lock_timeout_us in
  let reserve_timeout = Config.cycles_of_us cfg config.reserve_timeout_us in
  let ops = ref 0 in
  let deferred = ref 0 in
  let rpc_ok = ref 0 in
  let reserve_timeouts = ref 0 in
  let entries_rev = ref [] in
  (* The element "use": touch the payload under the reserve bit. *)
  let use_element ctx si i =
    Ctx.fault_point ctx ~site:0;
    let accesses = max 1 (hold / 40) in
    for a = 1 to accesses do
      if a land 1 = 0 then ignore (Ctx.read ctx payload.(si).(i))
      else Ctx.write ctx payload.(si).(i) a;
      Ctx.work ctx 14
    done
  in
  (* The RPC service: one self-contained reserve/work/clear on the server's
     status word. Reserved (the hog holds it) -> Would_deadlock. *)
  let server_service tctx =
    if not (Reserve.try_reserve tctx srv_status) then Rpc.Would_deadlock
    else begin
      let v = Ctx.read tctx srv_payload in
      Ctx.write tctx srv_payload (v + 1);
      Ctx.work tctx 60;
      Reserve.clear tctx srv_status;
      Rpc.Ok (v + 1)
    end
  in
  (* Hog services: idempotent under at-least-once re-execution. *)
  let hog_reserve_service tctx =
    if Reserve.write_reserved srv_status then Rpc.Ok 1
    else begin
      ignore (Reserve.try_reserve tctx srv_status);
      Rpc.Ok 0
    end
  in
  let hog_clear_service tctx =
    Reserve.clear tctx srv_status;
    Rpc.Ok 0
  in
  (* Workers. *)
  for proc = 0 to config.p - 1 do
    let ctx = ctxs.(proc) in
    Process.spawn eng (fun () ->
        let backoff = Backoff.of_us cfg ~max_us:35.0 () in
        let iter = ref 0 in
        (* One element operation starting at structure [si]. A timed-out
           coarse acquire or reserve spin moves on to the next structure —
           the escape the unbounded protocol lacks — and after bouncing off
           all of them the op is deferred to local fallback work. *)
        let rec element_op tries si =
          if tries >= config.s then begin
            incr deferred;
            Ctx.work ctx (hold / 2);
            false
          end
          else begin
            let lock = locks.(si) in
            let got =
              match mechanism with
              | No_timeout ->
                Mcs.acquire lock ctx;
                true
              | Timeout | Bounded_retry ->
                Mcs.acquire_with_timeout lock ctx ~timeout:lock_timeout
            in
            if not got then element_op (tries + 1) ((si + 1) mod config.s)
            else begin
              Ctx.fault_point ctx ~site:1;
              let i = Rng.int (Ctx.rng ctx) config.k in
              let reserved = Reserve.try_reserve ctx status.(si).(i) in
              Mcs.release lock ctx;
              if reserved then begin
                entries_rev := Machine.now machine :: !entries_rev;
                use_element ctx si i;
                let v = Ctx.read ctx payload.(si).(i) in
                Ctx.write ctx payload.(si).(i) (v + 1);
                Reserve.clear ctx status.(si).(i);
                incr ops;
                true
              end
              else begin
                match mechanism with
                | No_timeout ->
                  Reserve.spin_until_clear ctx backoff status.(si).(i);
                  element_op tries si
                | Timeout | Bounded_retry ->
                  if
                    Reserve.spin_until_clear_timeout ctx backoff
                      status.(si).(i) ~timeout:reserve_timeout
                  then element_op tries si
                  else begin
                    (* Holder presumed stalled: re-search elsewhere. *)
                    incr reserve_timeouts;
                    element_op (tries + 1) ((si + 1) mod config.s)
                  end
              end
            end
          end
        in
        let server_call () =
          let max_attempts =
            match mechanism with
            | No_timeout | Timeout -> 0 (* retry forever *)
            | Bounded_retry -> config.max_attempts
          in
          match
            Rpc.call_until_resolved ~max_attempts rpc ctx ~target:server
              server_service
          with
          | Rpc.Ok _ -> incr rpc_ok
          | Rpc.Gave_up | Rpc.Dead_target ->
            (* Degraded: do the op's worth of work locally and move on. *)
            Ctx.work ctx 60
          | Rpc.Absent | Rpc.Would_deadlock -> ()
        in
        let rec loop () =
          if Machine.now machine < t_end then begin
            incr iter;
            ignore (element_op 0 (Rng.int (Ctx.rng ctx) config.s) : bool);
            if config.rpc_every > 0 && !iter mod config.rpc_every = 0 then
              server_call ();
            if think > 0 then
              Ctx.work ctx ((think / 2) + Rng.int (Ctx.rng ctx) (max 1 think));
            loop ()
          end
        in
        loop ())
  done;
  (* The hog: keeps the server's status word reserved for long windows, so
     worker RPCs fail in streaks. All its accesses run as services on the
     server processor, serialised with the workers'. *)
  Process.spawn eng (fun () ->
      let ctx = ctxs.(hog) in
      let hold = Config.cycles_of_us cfg config.hog_hold_us in
      let idle = Config.cycles_of_us cfg config.hog_idle_us in
      let rec loop () =
        if Machine.now machine < t_end then begin
          ignore (Rpc.call rpc ctx ~target:server hog_reserve_service);
          Ctx.interruptible_pause ctx hold;
          ignore (Rpc.call rpc ctx ~target:server hog_clear_service);
          Ctx.interruptible_pause ctx idle;
          loop ()
        end
      in
      loop ());
  (* The server only serves interrupts; suspended while idle so the run
     terminates when workers and hog finish. *)
  Process.spawn eng (fun () -> Ctx.idle_loop ctxs.(server));
  Engine.run eng;
  (match verify with
  | None -> ()
  | Some v -> Verify.finish v ~now:(Engine.now eng));
  let stalls, delays, drops, hotspots, stall_log =
    match plan with
    | None -> (0, 0, 0, 0, [])
    | Some f ->
      ( Fault.stalls_injected f,
        Fault.rpc_delays_injected f,
        Fault.rpc_drops_injected f,
        Fault.hotspots_injected f,
        Fault.stall_log f )
  in
  let label = mechanism_name mechanism in
  let recovery =
    Measure.of_stat cfg ~label
      (recovery_stat ~label stall_log (List.rev !entries_rev))
  in
  {
    mechanism;
    ops = !ops;
    deferred = !deferred;
    rpc_ok = !rpc_ok;
    rpc_calls = Rpc.calls rpc;
    rpc_resends = Rpc.resends rpc;
    rpc_gave_ups = Rpc.gave_ups rpc;
    lock_timeouts = Array.fold_left (fun a l -> a + Mcs.timeouts l) 0 locks;
    lock_gcs = Array.fold_left (fun a l -> a + Mcs.gc_count l) 0 locks;
    reserve_timeouts = !reserve_timeouts;
    stalls_injected = stalls;
    delays_injected = delays;
    drops_injected = drops;
    hotspots_injected = hotspots;
    recovery;
  }
