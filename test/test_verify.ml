(* Tests for the lockdep checker: direct ownership-hook units, the
   planted-violation probes (each class must be caught, a clean run must
   stay silent), checker-on/off result identity, and a qcheck property
   over the reserve status-word arithmetic. *)

open Eventsim
open Hector
open Locks
open Workloads

(* -- class interning ------------------------------------------------------- *)

let test_class_interning () =
  let a = Verify.lock_class "test.intern.a" in
  let a' = Verify.lock_class "test.intern.a" in
  let b = Verify.lock_class "test.intern.b" in
  Alcotest.(check int) "same name, same id" a a';
  Alcotest.(check bool) "distinct names, distinct ids" true (a <> b);
  Alcotest.(check string) "name round-trips" "test.intern.a" (Verify.class_name a)

(* -- ownership units (direct hook calls, no simulation) -------------------- *)

let test_ownership_units () =
  let v = Verify.create ~n_procs:4 () in
  let cls = Verify.lock_class "test.unit" in
  Verify.on_event v ~proc:0 ~now:0 (Verify.Reserve_set { cls; word = 1; label = "w" });
  (* Setting an already-set bit: double reserve. *)
  Verify.on_event v ~proc:1 ~now:5 (Verify.Reserve_set { cls; word = 1; label = "w" });
  Alcotest.(check int) "double reserve" 1
    (Verify.count_kind v Verify.Double_reserve);
  (* Clearing a bit someone else owns. *)
  Verify.on_event v ~proc:2 ~now:6 (Verify.Reserve_clear { word = 1 });
  Alcotest.(check int) "foreign clear" 1 (Verify.count_kind v Verify.Bad_clear);
  (* The word is free now: clearing again is a double clear. *)
  Verify.on_event v ~proc:2 ~now:7 (Verify.Reserve_clear { word = 1 });
  Alcotest.(check int) "double clear" 2 (Verify.count_kind v Verify.Bad_clear);
  (* Releasing a lock never acquired. *)
  Verify.on_event v ~proc:3 ~now:8 (Verify.Released (cls, 99));
  Alcotest.(check int) "bad release" 1 (Verify.count_kind v Verify.Bad_release)

(* A processor holding one lock twice (a try-acquire nested in a hold, or
   two read reservations of one word) gives up the newer hold first: the
   dump shows the older one left. Lock ids past the holder column's first
   growth (64), and words past 10^6, behave the same. *)
let test_release_ends_newest_hold () =
  let cls = Verify.lock_class "test.nested" in
  let dumps_held v held =
    let dump = Verify.dump v ~now:40 in
    Alcotest.(check bool) (held ^ " in the dump") true
      (Astring.String.is_infix ~affix:(Printf.sprintf "held=[%s]" held) dump)
  in
  List.iter
    (fun id ->
      let v = Verify.create ~n_procs:2 () in
      Verify.on_event v ~proc:0 ~now:10 (Verify.Try_acquired (cls, id));
      Verify.on_event v ~proc:0 ~now:20 (Verify.Try_acquired (cls, id));
      Verify.on_event v ~proc:0 ~now:30 (Verify.Released (cls, id));
      dumps_held v (Printf.sprintf "test.nested#%d(since 10)" id);
      Verify.on_event v ~proc:0 ~now:50 (Verify.Released (cls, id));
      Alcotest.(check int) "no violations" 0 (Verify.violation_count v))
    [ 3; 64; 1000 ];
  List.iter
    (fun word ->
      let v = Verify.create ~n_procs:2 () in
      let set now =
        Verify.on_event v ~proc:0 ~now
          (Verify.Reserve_read_set { cls; word; label = "" })
      in
      set 10;
      set 20;
      Verify.on_event v ~proc:0 ~now:30 (Verify.Reserve_read_clear { word });
      dumps_held v (Printf.sprintf "test.nested#%d:R(since 10)" word);
      Verify.on_event v ~proc:0 ~now:50 (Verify.Reserve_read_clear { word });
      Verify.finish v ~now:60;
      Alcotest.(check int) "no violations" 0 (Verify.violation_count v))
    [ 7; 1_000_003 ]

let test_abort_mode_raises () =
  let v = Verify.create ~mode:`Abort ~n_procs:2 () in
  let cls = Verify.lock_class "test.abort" in
  match Verify.on_event v ~proc:0 ~now:0 (Verify.Released (cls, 7)) with
  | () -> Alcotest.fail "expected Violation"
  | exception Verify.Violation viol ->
    Alcotest.(check string) "kind" "bad-release" (Verify.kind_name viol.vkind)

(* -- planted probes -------------------------------------------------------- *)

let check_probe ?(aborts = false) probe =
  let r = Verify_probes.run probe in
  let name = Verify_probes.probe_name r.Verify_probes.probe in
  Alcotest.(check bool) (name ^ ": planted class caught") true
    r.Verify_probes.ok;
  Alcotest.(check bool)
    (name ^ ": watchdog abort " ^ if aborts then "expected" else "not expected")
    aborts r.Verify_probes.aborted

let test_probe_abba () = check_probe Verify_probes.Abba
let test_probe_leak () = check_probe Verify_probes.Leak
let test_probe_interrupt () = check_probe Verify_probes.Interrupt_spin

let test_probe_stall () = check_probe ~aborts:true Verify_probes.Stalled_holder
let test_probe_deadlock () = check_probe ~aborts:true Verify_probes.Deadlock

(* A report names a cell by its id on the probe's own machine, so it reads
   the same whatever the process ran before: a second pass over every
   probe, after a workload that allocated cells of its own, repeats the
   first pass's reports exactly. *)
let test_probe_reports_deterministic () =
  let firsts () =
    List.map (fun r -> r.Verify_probes.first) (Verify_probes.run_all ())
  in
  let before = firsts () in
  ignore (Uncontended.run ~iters:50 Lock.Mcs_h2);
  Alcotest.(check (list string)) "first violations" before (firsts ())

let test_probe_aborted_waiter () =
  (* Self-resolving ABBA via timed acquisitions: the checker must stay
     silent — no phantom order or deadlock report from waits that can (and
     do) give up, and no watchdog abort. *)
  let r = Verify_probes.run Verify_probes.Aborted_waiter in
  Alcotest.(check int) "no phantom violations" 0 r.Verify_probes.violations;
  Alcotest.(check bool) "watchdog stayed quiet" false r.Verify_probes.aborted

let test_probe_clean () =
  let r = Verify_probes.run Verify_probes.Clean in
  Alcotest.(check int) "clean run records nothing" 0 r.Verify_probes.violations

(* -- checker on/off identity ----------------------------------------------- *)

(* The hooks are host-side only: a checked run must produce the same
   result record — ops, RPC traffic, timeout counts, recovery summary —
   as an unchecked one, even under (drop-free) injected faults. *)
let test_checker_identity () =
  let config =
    {
      Fault_storm.default_config with
      window_us = 8_000.0;
      stall_every_us = 1000.0;
    }
  in
  let plain = Fault_storm.run ~config Fault_storm.Timeout in
  let v = Verify.create ~n_procs:(Config.n_procs Config.hector) () in
  let checked = Fault_storm.run ~config ~verify:v Fault_storm.Timeout in
  Alcotest.(check bool) "identical results" true (plain = checked);
  Alcotest.(check int) "no violations on the correct protocol" 0
    (Verify.violation_count v)

(* -- reserve status-word arithmetic (property) ------------------------------ *)

(* Drive the real Reserve operations (no checker: the protocol guards are
   the model's job here) against a (writer, readers) model; after every
   operation the word's decoded state must match the model. *)
let prop_status_word =
  QCheck.Test.make ~name:"status word tracks writer/readers model" ~count:100
    QCheck.(list (int_range 0 3))
    (fun ops ->
      let eng = Engine.create () in
      let machine = Machine.create eng Config.hector in
      let ctx = Ctx.create machine ~proc:0 (Rng.create 9) in
      let word = Machine.alloc machine ~label:"prop" ~home:0 0 in
      let ok = ref true in
      Process.spawn eng (fun () ->
          let writer = ref false and readers = ref 0 in
          List.iter
            (fun op ->
              (match op with
              | 0 ->
                let got = Reserve.try_reserve ctx word in
                if got <> ((not !writer) && !readers = 0) then ok := false;
                if got then writer := true
              | 1 ->
                if !writer then begin
                  Reserve.clear ctx word;
                  writer := false
                end
              | 2 ->
                let got = Reserve.try_reserve_read ctx word in
                if got <> not !writer then ok := false;
                if got then incr readers
              | _ ->
                if !readers > 0 then begin
                  Reserve.clear_read ctx word;
                  decr readers
                end);
              if Reserve.readers word <> !readers then ok := false;
              if Reserve.write_reserved word <> !writer then ok := false)
            ops);
      Engine.run eng;
      !ok)

let suite =
  [
    Alcotest.test_case "class interning" `Quick test_class_interning;
    Alcotest.test_case "ownership units" `Quick test_ownership_units;
    Alcotest.test_case "abort mode raises" `Quick test_abort_mode_raises;
    Alcotest.test_case "a release ends the newest hold" `Quick
      test_release_ends_newest_hold;
    Alcotest.test_case "probe: abba order" `Quick test_probe_abba;
    Alcotest.test_case "probe: reserve leak" `Quick test_probe_leak;
    Alcotest.test_case "probe: interrupt spin" `Quick test_probe_interrupt;
    Alcotest.test_case "probe: stalled holder" `Quick test_probe_stall;
    Alcotest.test_case "probe: deadlock" `Quick test_probe_deadlock;
    Alcotest.test_case "probe: aborted waiter is silent" `Quick
      test_probe_aborted_waiter;
    Alcotest.test_case "probe: clean" `Quick test_probe_clean;
    Alcotest.test_case "probe reports do not depend on earlier runs" `Quick
      test_probe_reports_deterministic;
    Alcotest.test_case "checker on/off identity" `Quick test_checker_identity;
    Qc.to_alcotest prop_status_word;
  ]
