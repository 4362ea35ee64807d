(* RW lock family tests: every construction (distributed / centralised
   indicators x both sweep policies x writer constituents across the
   family, NUMA composites included) must keep reader/writer exclusion
   while actually letting readers run in parallel; the timed and
   crash-recovery faces inherit the PR 6/7 obligations (conservation
   under random aborts, corpse sweeps under fail-stop). The acceptance
   pins ride at the end: read throughput beats every writer-serialising
   algorithm at 99% reads, and the distributed indicator layout does
   zero remote read-path traffic where the centralised baseline pays on
   every off-home-cluster reader. *)

open Eventsim
open Hector
open Locks
open Workloads

(* Writer constituents under test: plain MCS variants plus the three NUMA
   composites (RW-cohort / RW-HMCS / RW-CNA come free from the
   combinator). All are abortable and recoverable, so every construction
   exercises the timed and recovery faces too. *)
let writers =
  [ Lock.Mcs_h2; Lock.Mcs_cas; Lock.c_mcs_mcs; Lock.hmcs; Lock.cna ]

(* (policy, centralised, writer): full policy cross over the distributed
   layout, plus centralised baselines for one plain and one composite
   writer. *)
let constructions =
  List.concat_map
    (fun w ->
      [
        (Rwlock.Writer_blocking, false, w);
        (Rwlock.Reader_preference, false, w);
      ])
    writers
  @ [
      (Rwlock.Writer_blocking, true, Lock.Mcs_h2);
      (Rwlock.Reader_preference, true, Lock.c_mcs_mcs);
    ]

let construction_name (policy, centralised, writer) =
  Lock.algo_name (Lock.Rw { writer; policy; centralised })

let make_lock machine (policy, centralised, writer) =
  Lock.make_rw machine ~policy ~centralised writer

(* Writer-side crash-tolerant acquire, the [Lock.acquire_recoverable]
   slice/jitter discipline over the RW writer face (the composing layer
   gets this from [Lock.make]; tests drive the Rwlock directly). *)
let acquire_write_recoverable ?(check_period = 500) lock ctx =
  let rng = Ctx.rng ctx in
  let rec attempt pause =
    if Rwlock.try_acquire_for lock ctx ~deadline:(Ctx.now ctx + check_period)
    then ()
    else begin
      ignore (Rwlock.recover lock ctx);
      Ctx.interruptible_pause ctx (1 + (pause / 2) + Rng.int rng pause);
      attempt (min (2 * pause) (8 * check_period))
    end
  in
  attempt 64

(* -- safety under mixed read/write traffic ----------------------------------- *)

(* Host-side truth the lock cannot fake: section entry/exit bracketing on
   untimed host code is atomic with the preceding timed op, so a writer
   inside with any reader inside (or a second writer) is a real overlap. *)
let rw_stress ~construction ~p ~iters ~hold ~think ~seed =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.numachine in
  let lock = make_lock machine construction in
  let readers_in = ref 0 and writer_in = ref 0 in
  let overlap = ref false in
  let r_peak = ref 0 in
  let reads = ref 0 and writes = ref 0 in
  let rng = Rng.create seed in
  for proc = 0 to p - 1 do
    let ctx = Ctx.create machine ~proc (Rng.split rng) in
    Process.spawn eng (fun () ->
        let r = Ctx.rng ctx in
        for _ = 1 to iters do
          if Rng.int r 4 > 0 then begin
            (* 3 in 4 operations read. *)
            Rwlock.acquire_read lock ctx;
            incr readers_in;
            r_peak := max !r_peak !readers_in;
            if !writer_in > 0 then overlap := true;
            if hold > 0 then Ctx.work ctx hold;
            decr readers_in;
            incr reads;
            Rwlock.release_read lock ctx
          end
          else begin
            Rwlock.acquire lock ctx;
            incr writer_in;
            if !writer_in > 1 || !readers_in > 0 then overlap := true;
            if hold > 0 then Ctx.work ctx hold;
            decr writer_in;
            incr writes;
            Rwlock.release lock ctx
          end;
          if think > 0 then Ctx.work ctx (1 + Rng.int r think)
        done)
  done;
  Engine.run eng;
  (not !overlap)
  && !reads + !writes = iters * p
  && Rwlock.read_acquisitions lock = !reads
  && Rwlock.acquisitions lock = !writes
  (* The lock's own window (admission CAS to release CAS) encloses the
     host bracket, so its peak dominates. *)
  && Rwlock.readers_peak lock >= !r_peak
  && Rwlock.is_free lock

let prop_rw_safety =
  QCheck.Test.make
    ~name:"every RW construction: exclusion, conservation, quiescence"
    ~count:25
    QCheck.(
      quad (int_range 2 8) (int_range 0 120) (int_range 1 60)
        (int_range 0 10000))
    (fun (p, hold, think, seed) ->
      List.for_all
        (fun c ->
          match rw_stress ~construction:c ~p ~iters:6 ~hold ~think ~seed with
          | ok -> ok
          | exception _ -> false)
        constructions)

(* -- reader parallelism ------------------------------------------------------ *)

(* The whole point of the family: concurrent readers > 1, visible from
   three independent gauges (host bracketing, the lock's own counter, the
   Obs per-class gauge) — and with zero lockdep complaints about the
   concurrent shared holders. *)
let test_reader_parallelism () =
  List.iter
    (fun ((_, _, _) as c) ->
      let name = construction_name c in
      let eng = Engine.create () in
      let machine = Machine.create eng Config.numachine in
      let verify = Verify.create ~mode:`Record ~n_procs:16 () in
      Machine.set_verify machine (Some verify);
      let obs = Obs.create ~n_procs:16 () in
      Machine.set_obs machine (Some obs);
      let lock = make_lock machine c in
      let inside = ref 0 and peak = ref 0 in
      let rng = Rng.create 7 in
      for proc = 0 to 7 do
        let ctx = Ctx.create machine ~proc (Rng.split rng) in
        Process.spawn eng (fun () ->
            for _ = 1 to 3 do
              Rwlock.acquire_read lock ctx;
              incr inside;
              peak := max !peak !inside;
              Ctx.work ctx 3_000;
              decr inside;
              Rwlock.release_read lock ctx
            done)
      done;
      Engine.run eng;
      Verify.finish verify ~now:(Machine.now machine);
      Alcotest.(check bool) (name ^ " host peak > 1") true (!peak > 1);
      (* The lock's inside-window encloses the host bracket (admission CAS
         to release CAS), so its peak dominates; the Obs gauge tracks the
         lock's window exactly. *)
      Alcotest.(check bool)
        (name ^ " lock gauge dominates")
        true
        (Rwlock.readers_peak lock >= !peak);
      Alcotest.(check int)
        (name ^ " obs gauge agrees with the lock")
        (Rwlock.readers_peak lock)
        (Obs.rw_read_peak obs ~cls:(Rwlock.vclass_read lock));
      Alcotest.(check int) (name ^ " no lockdep complaints") 0
        (Verify.violation_count verify);
      Alcotest.(check bool) (name ^ " free at end") true (Rwlock.is_free lock))
    constructions

(* Writer progress at a 99.9%-read-shaped load: one writer against seven
   looping readers must still complete every write under both policies
   (each gate, once closed, stays closed — so Reader_preference is not
   writer starvation). Engine completion is the liveness proof; the
   counter pins it. *)
let test_writer_progress_under_read_flood () =
  List.iter
    (fun policy ->
      let eng = Engine.create () in
      let machine = Machine.create eng Config.numachine in
      let lock =
        Lock.make_rw machine ~policy ~centralised:false Lock.Mcs_h2
      in
      let rng = Rng.create 11 in
      for proc = 1 to 7 do
        let ctx = Ctx.create machine ~proc (Rng.split rng) in
        Process.spawn eng (fun () ->
            for _ = 1 to 40 do
              Rwlock.acquire_read lock ctx;
              Ctx.work ctx 400;
              Rwlock.release_read lock ctx
            done)
      done;
      let ctx0 = Ctx.create machine ~proc:0 (Rng.split rng) in
      Process.spawn eng (fun () ->
          for _ = 1 to 5 do
            Rwlock.acquire lock ctx0;
            Ctx.work ctx0 200;
            Rwlock.release lock ctx0;
            Ctx.work ctx0 2_000
          done);
      Engine.run eng;
      Alcotest.(check int)
        (Rwlock.policy_name policy ^ " writer completed every write")
        5 (Rwlock.acquisitions lock);
      Alcotest.(check bool)
        (Rwlock.policy_name policy ^ " free at end")
        true (Rwlock.is_free lock))
    [ Rwlock.Writer_blocking; Rwlock.Reader_preference ]

(* -- timed faces (the PR 6 obligations) -------------------------------------- *)

let rw_abort_stress ~construction ~p ~iters ~hold ~timeout_cycles ~seed =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.numachine in
  let lock = make_lock machine construction in
  let readers_in = ref 0 and writer_in = ref 0 in
  let overlap = ref false in
  let wins = ref 0 and aborts = ref 0 in
  let rng = Rng.create seed in
  for proc = 0 to p - 1 do
    let ctx = Ctx.create machine ~proc (Rng.split rng) in
    Process.spawn eng (fun () ->
        let r = Ctx.rng ctx in
        let read_section () =
          incr readers_in;
          if !writer_in > 0 then overlap := true;
          if hold > 0 then Ctx.work ctx hold;
          decr readers_in;
          incr wins;
          Rwlock.release_read lock ctx
        in
        let write_section () =
          incr writer_in;
          if !writer_in > 1 || !readers_in > 0 then overlap := true;
          if hold > 0 then Ctx.work ctx hold;
          decr writer_in;
          incr wins;
          Rwlock.release lock ctx
        in
        for _ = 1 to iters do
          let is_read = Rng.int r 2 = 0 in
          let timed = Rng.int r 4 > 0 in
          (if is_read then
             if timed then begin
               let deadline =
                 Machine.now machine + Rng.int r timeout_cycles
               in
               if Rwlock.try_acquire_read_for lock ctx ~deadline then
                 read_section ()
               else incr aborts
             end
             else begin
               Rwlock.acquire_read lock ctx;
               read_section ()
             end
           else if timed then begin
             let deadline = Machine.now machine + Rng.int r timeout_cycles in
             if Rwlock.try_acquire_for lock ctx ~deadline then
               write_section ()
             else incr aborts
           end
           else begin
             Rwlock.acquire lock ctx;
             write_section ()
           end);
          Ctx.work ctx (1 + Rng.int r 40)
        done;
        (* Eventual acquisition through the exclusive face: if an
           abandoned sweep stranded a gate closed, this never returns. *)
        Rwlock.acquire lock ctx;
        write_section ())
  done;
  Engine.run eng;
  (not !overlap)
  && !wins + !aborts = ((iters + 1) * p)
  && Rwlock.read_acquisitions lock + Rwlock.acquisitions lock = !wins
  && Rwlock.is_free lock

let prop_rw_abort_safety =
  QCheck.Test.make
    ~name:"RW timed faces: conservation under random aborts" ~count:25
    QCheck.(
      quad (int_range 2 8) (int_range 0 120)
        (int_range 1 4000)
        (int_range 0 10000))
    (fun (p, hold, timeout_cycles, seed) ->
      List.for_all
        (fun c ->
          match
            rw_abort_stress ~construction:c ~p ~iters:5 ~hold ~timeout_cycles
              ~seed
          with
          | ok -> ok
          | exception _ -> false)
        constructions)

(* A spent deadline fails fast on both faces without touching the lock,
   even while it is held against the attempt. *)
let test_rw_zero_deadline_fail_fast () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.numachine in
  let lock =
    Lock.make_rw machine ~policy:Rwlock.Writer_blocking ~centralised:false
      Lock.Mcs_h2
  in
  let rng = Rng.create 3 in
  let ctx0 = Ctx.create machine ~proc:0 (Rng.split rng) in
  let ctx1 = Ctx.create machine ~proc:1 (Rng.split rng) in
  Process.spawn eng (fun () ->
      Rwlock.acquire lock ctx0;
      Ctx.work ctx0 800;
      Rwlock.release lock ctx0;
      Rwlock.acquire_read lock ctx0;
      Ctx.work ctx0 800;
      Rwlock.release_read lock ctx0);
  Process.spawn eng (fun () ->
      (* Against the held writer... *)
      Process.pause eng 100;
      let now = Machine.now machine in
      Alcotest.(check bool) "reader: spent deadline fails" false
        (Rwlock.try_acquire_read_for lock ctx1 ~deadline:now);
      Alcotest.(check bool) "writer: spent deadline fails" false
        (Rwlock.try_acquire_for lock ctx1 ~deadline:(now - 50));
      (* ... and against the held reader. *)
      Process.pause eng 900;
      let now = Machine.now machine in
      Alcotest.(check bool) "writer vs reader: spent deadline fails" false
        (Rwlock.try_acquire_for lock ctx1 ~deadline:now));
  Engine.run eng;
  Alcotest.(check bool) "free at end" true (Rwlock.is_free lock);
  Alcotest.(check bool) "expiries counted" true
    (Rwlock.timeouts lock + Rwlock.read_timeouts lock >= 3)

(* -- crash recovery (the PR 7 obligations) ----------------------------------- *)

(* A corpse inside a read section: its +2 must be swept out of its
   cluster's indicator by a recovering writer, with lockdep legalising
   exactly that sweep. *)
let test_dead_reader_swept () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.numachine in
  let verify = Verify.create ~mode:`Record ~n_procs:16 () in
  Machine.set_verify machine (Some verify);
  let lock =
    Lock.make_rw machine ~policy:Rwlock.Writer_blocking ~centralised:false
      Lock.Mcs_h2
  in
  let rng = Rng.create 5 in
  let ctx1 = Ctx.create machine ~proc:1 (Rng.split rng) in
  let ctx0 = Ctx.create machine ~proc:0 (Rng.split rng) in
  Process.spawn eng (fun () ->
      Rwlock.acquire_read lock ctx1;
      Machine.kill_proc machine 1;
      Ctx.work ctx1 1 (* parks inside the section, +2 stuck *));
  let wrote = ref false in
  Process.spawn eng (fun () ->
      Ctx.work ctx0 2_000;
      Alcotest.(check int) "corpse counted inside" 1 (Rwlock.readers lock);
      acquire_write_recoverable lock ctx0;
      wrote := true;
      Ctx.work ctx0 100;
      Rwlock.release lock ctx0);
  Engine.run eng;
  Verify.finish verify ~now:(Machine.now machine);
  Alcotest.(check bool) "writer got through the corpse" true !wrote;
  Alcotest.(check int) "one indicator sweep" 1 (Rwlock.reader_sweeps lock);
  Alcotest.(check int) "indicator drained" 0 (Rwlock.readers lock);
  Alcotest.(check bool) "lockdep legalised the sweep" true
    (Verify.recoveries verify >= 1);
  Alcotest.(check int) "no violations" 0 (Verify.violation_count verify);
  Alcotest.(check bool) "free at end" true (Rwlock.is_free lock)

(* A corpse holding the write side: gates stay closed until a recovering
   reader runs the release on its behalf (packed constituent repaired
   through its own recovery). *)
let test_dead_writer_released () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.numachine in
  let verify = Verify.create ~mode:`Record ~n_procs:16 () in
  Machine.set_verify machine (Some verify);
  let lock =
    Lock.make_rw machine ~policy:Rwlock.Reader_preference ~centralised:false
      Lock.Mcs_h2
  in
  let rng = Rng.create 6 in
  let ctx1 = Ctx.create machine ~proc:1 (Rng.split rng) in
  let ctx0 = Ctx.create machine ~proc:0 (Rng.split rng) in
  Process.spawn eng (fun () ->
      Rwlock.acquire lock ctx1;
      Machine.kill_proc machine 1;
      Ctx.work ctx1 1 (* parks holding the write side, gates closed *));
  let read = ref false in
  Process.spawn eng (fun () ->
      Ctx.work ctx0 2_000;
      Rwlock.acquire_read_recoverable ~check_period:500 lock ctx0;
      read := true;
      Ctx.work ctx0 100;
      Rwlock.release_read lock ctx0);
  Engine.run eng;
  Verify.finish verify ~now:(Machine.now machine);
  Alcotest.(check bool) "reader got through the corpse" true !read;
  Alcotest.(check bool) "lockdep legalised the forced release" true
    (Verify.recoveries verify >= 1);
  Alcotest.(check int) "no violations" 0 (Verify.violation_count verify);
  Alcotest.(check bool) "free at end" true (Rwlock.is_free lock)

(* Randomised fail-stop: one reader corpse and one writer corpse planted
   mid-traffic (the writer dies mid-sweep, blocked on the dead reader's
   indicator — the nastiest interleaving); every surviving processor runs
   crash-tolerant faces only and must finish its quota. *)
let rw_crash_stress ~construction ~p ~iters ~hold ~seed =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.numachine in
  let lock = make_lock machine construction in
  let reads = ref 0 and writes = ref 0 in
  let rng = Rng.create seed in
  let ctx_r = Ctx.create machine ~proc:(p - 1) (Rng.split rng) in
  let ctx_w = Ctx.create machine ~proc:(p - 2) (Rng.split rng) in
  (* Reader victim: in the section immediately, dead at 200. *)
  Process.spawn eng (fun () ->
      Rwlock.acquire_read lock ctx_r;
      Ctx.work ctx_r 200;
      Machine.kill_proc machine (p - 1);
      Ctx.work ctx_r 1);
  (* Writer victim: starts its sweep against the (soon-dead) reader and is
     killed while draining. *)
  Process.spawn eng (fun () ->
      Ctx.work ctx_w 100;
      Rwlock.acquire lock ctx_w;
      Ctx.work ctx_w 100;
      Rwlock.release lock ctx_w);
  Process.spawn eng (fun () ->
      Process.pause eng 1_500;
      Machine.kill_proc machine (p - 2));
  for proc = 0 to p - 3 do
    let ctx = Ctx.create machine ~proc (Rng.split rng) in
    Process.spawn eng (fun () ->
        let r = Ctx.rng ctx in
        Ctx.work ctx 3_000;
        for _ = 1 to iters do
          if Rng.int r 2 = 0 then begin
            Rwlock.acquire_read_recoverable ~check_period:500 lock ctx;
            if hold > 0 then Ctx.work ctx hold;
            incr reads;
            Rwlock.release_read lock ctx
          end
          else begin
            acquire_write_recoverable lock ctx;
            if hold > 0 then Ctx.work ctx hold;
            incr writes;
            Rwlock.release lock ctx
          end;
          Ctx.work ctx (1 + Rng.int r 60)
        done)
  done;
  Engine.run eng;
  !reads + !writes = iters * (p - 2)
  && Rwlock.reader_sweeps lock >= 1
  && Rwlock.readers lock = 0
  && Rwlock.read_acquisitions lock = !reads + 1 (* + the reader corpse *)
  && Rwlock.is_free lock

let prop_rw_crash_recovery =
  QCheck.Test.make
    ~name:"RW fail-stop: corpse sweeps and survivor conservation" ~count:25
    QCheck.(triple (int_range 5 8) (int_range 0 120) (int_range 0 10000))
    (fun (p, hold, seed) ->
      List.for_all
        (fun c ->
          match rw_crash_stress ~construction:c ~p ~iters:4 ~hold ~seed with
          | ok -> ok
          | exception _ -> false)
        [
          (Rwlock.Writer_blocking, false, Lock.Mcs_h2);
          (Rwlock.Reader_preference, false, Lock.c_mcs_mcs);
          (Rwlock.Writer_blocking, true, Lock.cna);
        ])

(* -- optimistic-abort observability (the seqlock satellite) ------------------ *)

(* An aborted optimistic read must show in the Obs profile under the
   seqlock's class — and reporting it must cost zero simulated time. *)
let test_seqlock_abort_visible_and_free () =
  let run ~with_obs =
    let eng = Engine.create () in
    let machine = Machine.create eng Config.hector in
    let obs =
      if with_obs then begin
        let o = Obs.create ~n_procs:16 () in
        Machine.set_obs machine (Some o);
        Some o
      end
      else None
    in
    let sq = Seqlock.create machine ~vclass:"sq" () in
    let rng = Rng.create 8 in
    let ctx0 = Ctx.create machine ~proc:0 (Rng.split rng) in
    let ctx1 = Ctx.create machine ~proc:1 (Rng.split rng) in
    Process.spawn eng (fun () ->
        Seqlock.write_begin sq ctx0;
        Ctx.work ctx0 2_000;
        Seqlock.write_end sq ctx0);
    let aborted = ref 0 in
    Process.spawn eng (fun () ->
        Ctx.work ctx1 300;
        (* Writer mid-section: abort 1. *)
        if Seqlock.read_begin sq ctx1 < 0 then incr aborted;
        Ctx.work ctx1 5_000;
        let seq = Seqlock.read_begin sq ctx1 in
        (* Validation failure is the second abort kind: force it by
           observing a sequence from before the write. *)
        if seq >= 0 && not (Seqlock.read_validate sq ctx1 (seq - 2)) then
          incr aborted);
    Engine.run eng;
    (Machine.now machine, !aborted, Seqlock.read_aborts sq, obs)
  in
  let t_obs, aborted, counted, obs = run ~with_obs:true in
  let t_bare, _, _, _ = run ~with_obs:false in
  Alcotest.(check int) "both abort kinds hit" 2 aborted;
  Alcotest.(check int) "seqlock counted them" 2 counted;
  (match obs with
  | None -> Alcotest.fail "observer vanished"
  | Some obs ->
    let row =
      List.find_opt
        (fun r -> r.Obs.row_class = "sq")
        (Obs.profile_rows obs)
    in
    (match row with
    | None -> Alcotest.fail "no profile row for the seqlock class"
    | Some r ->
      Alcotest.(check int) "profile shows the aborts" 2 r.Obs.total.Obs.aborts));
  Alcotest.(check int) "observer costs zero simulated time" t_bare t_obs

(* -- acceptance pins (via the RW-SCALING workload) --------------------------- *)

(* At 99% reads and p = 8, the RW family's read throughput beats every
   writer-serialising [Lock.algo] driving the same traffic. *)
let test_read_throughput_beats_mutexes () =
  let base =
    {
      Rw_scaling.default_config with
      Rw_scaling.p = 8;
      n_clusters = 2;
      ops = 120;
      read_ratio = 0.99;
    }
  in
  let rw =
    Rw_scaling.run
      ~config:
        {
          base with
          Rw_scaling.style =
            Rw_scaling.Rw_lock
              {
                writer = Lock.c_mcs_mcs;
                policy = Rwlock.Writer_blocking;
                centralised = false;
              };
        }
      ()
  in
  Alcotest.(check int) "rw: no lockdep violations" 0
    rw.Rw_scaling.lockdep_violations;
  Alcotest.(check bool) "rw: readers parallelise" true
    (rw.Rw_scaling.peak_readers > 1);
  List.iter
    (fun algo ->
      let m =
        Rw_scaling.run
          ~config:{ base with Rw_scaling.style = Rw_scaling.Mutex algo }
          ()
      in
      Alcotest.(check int)
        (Lock.algo_name algo ^ ": serialised readers")
        1 m.Rw_scaling.peak_readers;
      Alcotest.(check bool)
        (Printf.sprintf "rw read throughput beats %s (%.1f vs %.1f ops/ms)"
           (Lock.algo_name algo) rw.Rw_scaling.read_throughput_ops_ms
           m.Rw_scaling.read_throughput_ops_ms)
        true
        (rw.Rw_scaling.read_throughput_ops_ms
        > m.Rw_scaling.read_throughput_ops_ms))
    [ Lock.Mcs_h2; Lock.c_mcs_mcs; Lock.hmcs; Lock.cna ]

(* The distributed layout's defining property: zero remote read-path
   indicator traffic, strictly below the centralised baseline at C >= 2. *)
let test_distributed_beats_centralised_on_remote_traffic () =
  let base =
    {
      Rw_scaling.default_config with
      Rw_scaling.p = 8;
      n_clusters = 2;
      ops = 60;
    }
  in
  let style centralised =
    Rw_scaling.Rw_lock
      { writer = Lock.Mcs_h2; policy = Rwlock.Writer_blocking; centralised }
  in
  let dist =
    Rw_scaling.run ~config:{ base with Rw_scaling.style = style false } ()
  in
  let cent =
    Rw_scaling.run ~config:{ base with Rw_scaling.style = style true } ()
  in
  Alcotest.(check int) "distributed: zero remote read-path ops" 0
    dist.Rw_scaling.read_remote;
  Alcotest.(check bool) "centralised pays per remote reader" true
    (cent.Rw_scaling.read_remote > 0)

let suite =
  [
    Qc.to_alcotest prop_rw_safety;
    Alcotest.test_case "reader parallelism on three gauges" `Quick
      test_reader_parallelism;
    Alcotest.test_case "writer progress under a read flood" `Quick
      test_writer_progress_under_read_flood;
    Qc.to_alcotest prop_rw_abort_safety;
    Alcotest.test_case "zero/negative deadline fails fast (both faces)" `Quick
      test_rw_zero_deadline_fail_fast;
    Alcotest.test_case "dead reader swept out of the indicator" `Quick
      test_dead_reader_swept;
    Alcotest.test_case "dead writer released on its behalf" `Quick
      test_dead_writer_released;
    Qc.to_alcotest prop_rw_crash_recovery;
    Alcotest.test_case "optimistic aborts visible to Obs, at zero cost" `Quick
      test_seqlock_abort_visible_and_free;
    Alcotest.test_case "read throughput beats every mutex at 99% reads" `Quick
      test_read_throughput_beats_mutexes;
    Alcotest.test_case "distributed indicators: zero remote read traffic"
      `Quick test_distributed_beats_centralised_on_remote_traffic;
  ]
