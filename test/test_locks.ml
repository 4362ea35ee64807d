(* Tests for backoff, the spin lock, reserve bits, the instruction model
   and the uniform lock interface. The MCS queue lock has its own file. *)

open Eventsim
open Hector
open Locks

let make () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let ctx p = Ctx.create machine ~proc:p (Rng.create (200 + p)) in
  (eng, machine, ctx)

let simulate eng f =
  Process.spawn eng f;
  Engine.run eng

(* -- backoff ---------------------------------------------------------------- *)

let test_backoff_growth () =
  let b = Backoff.create ~base:8 ~max_cycles:100 () in
  Alcotest.(check int) "initial" 8 (Backoff.initial b);
  Alcotest.(check int) "doubles" 16 (Backoff.next b 8);
  Alcotest.(check int) "caps" 100 (Backoff.next b 80);
  Alcotest.(check int) "stays capped" 100 (Backoff.next b 100)

let test_backoff_of_us () =
  let b = Backoff.of_us Config.hector ~max_us:35.0 () in
  Alcotest.(check int) "cap in cycles" 560 (Backoff.max_cycles b)

let test_backoff_rejects_bad () =
  Alcotest.(check bool) "max < base" true
    (match Backoff.create ~base:10 ~max_cycles:5 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_backoff_delay_in_range () =
  let eng, machine, ctx = make () in
  let c = ctx 0 in
  let b = Backoff.create ~base:8 ~max_cycles:1000 () in
  simulate eng (fun () ->
      for _ = 1 to 50 do
        let t0 = Machine.now machine in
        Backoff.delay_on c b 100;
        let dt = Machine.now machine - t0 in
        Alcotest.(check bool) "jittered within [50,100]" true
          (dt >= 50 && dt <= 100)
      done)

(* -- spin lock ---------------------------------------------------------------- *)

let test_spin_mutual_exclusion () =
  let eng, machine, ctx = make () in
  let lock = Spin_lock.create machine ~home:0 (Backoff.create ~max_cycles:560 ()) in
  let inside = ref 0 and peak = ref 0 and total = ref 0 in
  for p = 0 to 7 do
    let c = ctx p in
    Process.spawn eng (fun () ->
        for _ = 1 to 25 do
          Spin_lock.acquire lock c;
          incr inside;
          peak := max !peak !inside;
          incr total;
          Ctx.work c 30;
          decr inside;
          Spin_lock.release lock c
        done)
  done;
  Engine.run eng;
  Alcotest.(check int) "never two holders" 1 !peak;
  Alcotest.(check int) "all critical sections ran" 200 !total;
  Alcotest.(check int) "acquisitions counted" 200 (Spin_lock.acquisitions lock);
  Alcotest.(check bool) "released at end" false (Spin_lock.is_held lock)

let test_spin_try_acquire () =
  let eng, machine, ctx = make () in
  let lock =
    Spin_lock.create machine ~home:0 (Backoff.create ~max_cycles:560 ())
  in
  simulate eng (fun () ->
      let c = ctx 0 in
      Alcotest.(check bool) "free -> acquired" true (Spin_lock.try_acquire lock c);
      Alcotest.(check bool) "held -> refused" false (Spin_lock.try_acquire lock c);
      Spin_lock.release lock c;
      Alcotest.(check bool) "free again" true (Spin_lock.try_acquire lock c);
      Spin_lock.release lock c)

let test_spin_failed_attempts_counted () =
  let eng, machine, ctx = make () in
  let lock =
    Spin_lock.create machine ~home:0 (Backoff.create ~max_cycles:100 ())
  in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Spin_lock.acquire lock c;
      Ctx.work c 500;
      Spin_lock.release lock c);
  Process.spawn eng (fun () ->
      let c = ctx 1 in
      Process.pause eng 5;
      Spin_lock.acquire lock c;
      Spin_lock.release lock c);
  Engine.run eng;
  Alcotest.(check bool) "some attempts failed" true
    (Spin_lock.failed_attempts lock > 0)

(* -- reserve bits -------------------------------------------------------------- *)

let test_reserve_exclusive () =
  let eng, machine, ctx = make () in
  let status = Machine.alloc machine ~home:0 0 in
  simulate eng (fun () ->
      let c = ctx 0 in
      Alcotest.(check bool) "free" false (Reserve.is_reserved c status);
      Alcotest.(check bool) "reserve" true (Reserve.try_reserve c status);
      Alcotest.(check bool) "now reserved" true (Reserve.is_reserved c status);
      Alcotest.(check bool) "second fails" false (Reserve.try_reserve c status);
      Reserve.clear c status;
      Alcotest.(check bool) "cleared" true (Reserve.try_reserve c status))

let test_reserve_readers () =
  let eng, machine, ctx = make () in
  let status = Machine.alloc machine ~home:0 0 in
  simulate eng (fun () ->
      let c = ctx 0 in
      Alcotest.(check bool) "reader 1" true (Reserve.try_reserve_read c status);
      Alcotest.(check bool) "reader 2" true (Reserve.try_reserve_read c status);
      Alcotest.(check int) "count" 2 (Reserve.readers status);
      Alcotest.(check bool) "writer blocked by readers" false
        (Reserve.try_reserve c status);
      Reserve.clear_read c status;
      Reserve.clear_read c status;
      Alcotest.(check bool) "writer after readers gone" true
        (Reserve.try_reserve c status);
      Alcotest.(check bool) "reader blocked by writer" false
        (Reserve.try_reserve_read c status))

let test_reserve_known_value_skips_read () =
  let eng, machine, ctx = make () in
  let status = Machine.alloc machine ~home:5 0 in
  simulate eng (fun () ->
      let c = ctx 5 in
      let t0 = Machine.now machine in
      (* known: only the write (10 cycles local) plus a branch. *)
      Alcotest.(check bool) "reserve" true (Reserve.try_reserve ~known:0 c status);
      Alcotest.(check bool) "cheaper than read+write" true
        (Machine.now machine - t0 <= 14))

let test_spin_until_clear () =
  let eng, machine, ctx = make () in
  let status = Machine.alloc machine ~home:0 1 in
  let woke_at = ref 0 in
  Process.spawn eng (fun () ->
      let c = ctx 1 in
      Reserve.spin_until_clear c (Backoff.create ~max_cycles:100 ()) status;
      woke_at := Machine.now machine);
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Ctx.work c 500;
      Reserve.clear c status);
  Engine.run eng;
  Alcotest.(check bool) "woke after clear" true (!woke_at >= 500)

let test_write_reserved_flag () =
  let eng, machine, ctx = make () in
  let status = Machine.alloc machine ~home:0 0 in
  simulate eng (fun () ->
      let c = ctx 0 in
      Alcotest.(check bool) "clear at rest" false (Reserve.write_reserved status);
      ignore (Reserve.try_reserve c status);
      Alcotest.(check bool) "set by a writer" true (Reserve.write_reserved status);
      Reserve.clear c status;
      ignore (Reserve.try_reserve_read c status);
      (* Readers count, but the write bit stays clear. *)
      Alcotest.(check bool) "not set by readers" false
        (Reserve.write_reserved status);
      Alcotest.(check int) "one reader" 1 (Reserve.readers status);
      Reserve.clear_read c status)

let test_spin_until_clear_timeout_clears_in_time () =
  let eng, machine, ctx = make () in
  let status = Machine.alloc machine ~home:0 1 in
  let got = ref None in
  Process.spawn eng (fun () ->
      let c = ctx 1 in
      got :=
        Some
          (Reserve.spin_until_clear_timeout c
             (Backoff.create ~max_cycles:100 ())
             status ~timeout:5000));
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Ctx.work c 400;
      Reserve.clear c status);
  Engine.run eng;
  Alcotest.(check (option bool)) "saw the clear" (Some true) !got;
  Alcotest.(check bool) "after the holder cleared" true
    (Machine.now machine >= 400)

let test_spin_until_clear_timeout_expires () =
  (* The holder never clears: the waiter must give up at the deadline
     instead of spinning forever on a stalled holder. *)
  let eng, machine, ctx = make () in
  let status = Machine.alloc machine ~home:0 1 in
  let got = ref None in
  Process.spawn eng (fun () ->
      let c = ctx 1 in
      got :=
        Some
          (Reserve.spin_until_clear_timeout c
             (Backoff.create ~max_cycles:100 ())
             status ~timeout:800));
  Engine.run eng;
  Alcotest.(check (option bool)) "gave up" (Some false) !got;
  Alcotest.(check bool) "spent at least the deadline" true
    (Machine.now machine >= 800);
  Alcotest.(check bool) "bit untouched" true (Reserve.write_reserved status)

let test_spin_until_clear_timeout_zero_deadline () =
  (* An already-expired deadline must fail immediately with no side
     effects: no time passes, no memory traffic, and the status word is
     untouched — even when the bit is actually clear and a single read
     would have succeeded. *)
  let eng, machine, ctx = make () in
  let set_status = Machine.alloc machine ~home:0 1 in
  let clear_status = Machine.alloc machine ~home:0 0 in
  simulate eng (fun () ->
      let c = ctx 0 in
      let backoff = Backoff.create ~max_cycles:100 () in
      let t0 = Machine.now machine in
      Alcotest.(check bool) "timeout 0, bit set -> false" false
        (Reserve.spin_until_clear_timeout c backoff set_status ~timeout:0);
      Alcotest.(check bool) "timeout 0, bit clear -> still false" false
        (Reserve.spin_until_clear_timeout c backoff clear_status ~timeout:0);
      Alcotest.(check bool) "negative timeout -> false" false
        (Reserve.spin_until_clear_timeout c backoff clear_status ~timeout:(-5));
      Alcotest.(check int) "no simulated time consumed" t0 (Machine.now machine));
  Alcotest.(check bool) "bit untouched" true (Reserve.write_reserved set_status)

(* -- instruction model ----------------------------------------------------------- *)

let test_fig4_counts_match_paper () =
  List.iter
    (fun a ->
      let ours = Instr_model.counts a in
      let paper = Instr_model.paper_counts a in
      Alcotest.(check bool)
        (Instr_model.algo_name a ^ " matches Figure 4")
        true (ours = paper))
    Instr_model.all

let test_model_latency_ordering () =
  let cfg = Config.hector in
  let c a = Instr_model.predicted_cycles cfg a in
  Alcotest.(check bool) "MCS slowest" true
    (c Instr_model.Mcs_original > c Instr_model.Mcs_h1);
  Alcotest.(check bool) "H1 above H2" true
    (c Instr_model.Mcs_h1 > c Instr_model.Mcs_h2);
  Alcotest.(check bool) "H2 close to spin" true
    (c Instr_model.Mcs_h2 - c Instr_model.Spin <= 2)

let test_paths_compose () =
  List.iter
    (fun a ->
      let pair = Instr_model.pair_path a in
      let acq = Instr_model.acquire_path a in
      let rel = Instr_model.release_path a in
      Alcotest.(check int)
        (Instr_model.algo_name a ^ " pair = acquire @ release")
        (List.length pair)
        (List.length acq + List.length rel))
    Instr_model.all

(* -- uniform interface -------------------------------------------------------------- *)

let test_lock_make_all_algos () =
  let _, machine, _ = make () in
  List.iter
    (fun algo -> ignore (Lock.make machine algo))
    (Lock.Null :: Lock.all_paper_algos)

let test_lock_cas_requires_capability () =
  let _, machine, _ = make () in
  Alcotest.(check bool) "refused" true
    (match Lock.make machine Lock.Mcs_cas with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_with_lock_masked () =
  let eng, machine, ctx = make () in
  let lock = Lock.make machine Lock.Mcs_h2 in
  simulate eng (fun () ->
      let c = ctx 0 in
      Lock.with_lock_masked lock c (fun () ->
          Alcotest.(check bool) "masked inside" true (Ctx.soft_masked c));
      Alcotest.(check bool) "unmasked after" false (Ctx.soft_masked c);
      Alcotest.(check bool) "lock free after" true (lock.Lock.is_free ()))

let test_null_lock_is_free () =
  let eng, machine, ctx = make () in
  ignore machine;
  simulate eng (fun () ->
      let c = ctx 0 in
      Lock.null.Lock.acquire c;
      Alcotest.(check bool) "try always true" true (Lock.null.Lock.try_acquire c);
      Lock.null.Lock.release c)

let test_lock_instrumentation () =
  let eng, machine, ctx = make () in
  let lock = Lock.make machine Lock.Mcs_h2 in
  simulate eng (fun () ->
      let c = ctx 0 in
      for _ = 1 to 5 do
        lock.Lock.acquire c;
        lock.Lock.release c
      done);
  Alcotest.(check int) "acquires counted" 5 !(lock.Lock.acquires)

let suite =
  [
    Alcotest.test_case "backoff growth and cap" `Quick test_backoff_growth;
    Alcotest.test_case "backoff cap in us" `Quick test_backoff_of_us;
    Alcotest.test_case "backoff rejects bad bounds" `Quick test_backoff_rejects_bad;
    Alcotest.test_case "backoff jitter range" `Quick test_backoff_delay_in_range;
    Alcotest.test_case "spin lock mutual exclusion" `Quick
      test_spin_mutual_exclusion;
    Alcotest.test_case "spin try_acquire" `Quick test_spin_try_acquire;
    Alcotest.test_case "spin failed attempts counted" `Quick
      test_spin_failed_attempts_counted;
    Alcotest.test_case "reserve exclusive bit" `Quick test_reserve_exclusive;
    Alcotest.test_case "reserve reader-writer" `Quick test_reserve_readers;
    Alcotest.test_case "reserve with known status skips read" `Quick
      test_reserve_known_value_skips_read;
    Alcotest.test_case "spin_until_clear wakes on clear" `Quick
      test_spin_until_clear;
    Alcotest.test_case "write_reserved flag" `Quick test_write_reserved_flag;
    Alcotest.test_case "spin_until_clear_timeout sees the clear" `Quick
      test_spin_until_clear_timeout_clears_in_time;
    Alcotest.test_case "spin_until_clear_timeout zero deadline is inert" `Quick
      test_spin_until_clear_timeout_zero_deadline;
    Alcotest.test_case "spin_until_clear_timeout gives up" `Quick
      test_spin_until_clear_timeout_expires;
    Alcotest.test_case "Figure 4 counts match the paper" `Quick
      test_fig4_counts_match_paper;
    Alcotest.test_case "model latency ordering" `Quick test_model_latency_ordering;
    Alcotest.test_case "paths compose" `Quick test_paths_compose;
    Alcotest.test_case "Lock.make covers all algorithms" `Quick
      test_lock_make_all_algos;
    Alcotest.test_case "Mcs_cas needs a CAS machine" `Quick
      test_lock_cas_requires_capability;
    Alcotest.test_case "with_lock_masked" `Quick test_with_lock_masked;
    Alcotest.test_case "null lock" `Quick test_null_lock_is_free;
    Alcotest.test_case "lock instrumentation" `Quick test_lock_instrumentation;
  ]
