(* Tests for the contention-observability subsystem: the Json codec, the
   profile accounting, the bounded trace ring, the no-perturbation identity
   on a real storm, and the BENCH_results.json schema on reduced knobs (the
   full export is checked by the claims suite). *)

open Eventsim
open Hector
open Workloads
open Hurricane

(* -- Json codec ------------------------------------------------------------ *)

let roundtrip v = Json.of_string (Json.to_string v)
let roundtrip_compact v = Json.of_string (Json.to_string ~compact:true v)

let test_json_roundtrip () =
  let values =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Int min_int;
      Json.Float 0.0;
      Json.Float 0.1;
      Json.Float (-1.5e-7);
      Json.Float 1e300;
      Json.Float 16.0625;
      Json.String "";
      Json.String "plain";
      Json.String "quote \" slash \\ newline \n tab \t";
      Json.List [];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]);
          ("nested", Json.Obj [ ("b", Json.String "x") ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool) "pretty round trip" true (roundtrip v = v);
      Alcotest.(check bool) "compact round trip" true (roundtrip_compact v = v))
    values

let test_json_parse () =
  Alcotest.(check bool) "ints stay ints" true
    (Json.of_string "[1, -2, 0]" = Json.List [ Json.Int 1; Json.Int (-2); Json.Int 0 ]);
  Alcotest.(check bool) "floats stay floats" true
    (Json.of_string "1.5" = Json.Float 1.5);
  Alcotest.(check bool) "exponent is a float" true
    (Json.of_string "1e3" = Json.Float 1000.0);
  Alcotest.(check bool) "whitespace tolerated" true
    (Json.of_string "  { \"a\" : [ ] }\n" = Json.Obj [ ("a", Json.List []) ]);
  Alcotest.(check bool) "unicode escape" true
    (Json.of_string "\"\\u0041\\u00e9\"" = Json.String "A\xc3\xa9");
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" s)
        true
        (match Json.of_string s with
        | exception Failure _ -> true
        | _ -> false))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

(* -- profile accounting ----------------------------------------------------- *)

let cls_lock = Verify.lock_class "obs.test.lock"
let cls_res = Verify.lock_class "obs.test.reserve"

let find_row rows name =
  match List.find_opt (fun (r : Obs.row) -> r.Obs.row_class = name) rows with
  | Some r -> r
  | None -> Alcotest.failf "no profile row for %s" name

let test_lock_accounting () =
  (* Two procs per cluster. p0 acquires free, p1 waits through p0's hold
     (contended + handoff), p2 (cluster 1) try-acquires. *)
  let o = Obs.create ~cluster_of:(fun p -> p / 2) ~n_clusters:2 ~n_procs:4 () in
  Obs.on_event o ~proc:0 ~now:0 (Verify.Wait (cls_lock, 1));
  Obs.on_event o ~proc:0 ~now:10 (Verify.Acquired (cls_lock, 1));
  Obs.on_event o ~proc:1 ~now:20 (Verify.Wait (cls_lock, 1));
  Obs.on_event o ~proc:0 ~now:50 (Verify.Released (cls_lock, 1));
  Obs.on_event o ~proc:1 ~now:60 (Verify.Acquired (cls_lock, 1));
  Obs.on_event o ~proc:1 ~now:90 (Verify.Released (cls_lock, 1));
  Obs.on_event o ~proc:2 ~now:0 (Verify.Try_acquired (cls_lock, 2));
  Obs.on_event o ~proc:2 ~now:5 (Verify.Released (cls_lock, 2));
  let r = find_row (Obs.profile_rows o) "obs.test.lock" in
  Alcotest.(check int) "acqs" 3 r.Obs.total.Obs.acqs;
  Alcotest.(check int) "contended" 1 r.Obs.total.Obs.contended;
  Alcotest.(check int) "wait cycles" 50 r.Obs.total.Obs.wait_cycles;
  Alcotest.(check int) "hold cycles" 75 r.Obs.total.Obs.hold_cycles;
  Alcotest.(check int) "handoffs" 1 r.Obs.total.Obs.handoffs;
  (* Attribution splits by the acting processor's cluster. *)
  let c0 = List.assoc 0 r.Obs.by_cluster and c1 = List.assoc 1 r.Obs.by_cluster in
  Alcotest.(check int) "cluster 0 acqs" 2 c0.Obs.acqs;
  Alcotest.(check int) "cluster 0 wait" 50 c0.Obs.wait_cycles;
  Alcotest.(check int) "cluster 1 acqs" 1 c1.Obs.acqs;
  Alcotest.(check int) "cluster 1 hold" 5 c1.Obs.hold_cycles

let test_reserve_accounting () =
  let o = Obs.create ~cluster_of:(fun p -> p / 2) ~n_clusters:2 ~n_procs:4 () in
  (* p2 (cluster 1) sets word 7; p3 spins on it; p2 clears mid-spin. *)
  Obs.on_event o ~proc:2 ~now:0
    (Verify.Reserve_set { cls = cls_res; word = 7; label = "" });
  Obs.on_event o ~proc:3 ~now:5
    (Verify.Reserve_wait
       { cls = cls_res; word = 7; label = ""; in_interrupt = false });
  Obs.on_event o ~proc:2 ~now:40 (Verify.Reserve_clear { word = 7 });
  Obs.on_event o ~proc:3 ~now:45 Verify.Reserve_wait_done;
  let r = find_row (Obs.profile_rows o) "obs.test.reserve" in
  Alcotest.(check int) "acqs" 1 r.Obs.total.Obs.acqs;
  Alcotest.(check int) "contended (completed spins)" 1 r.Obs.total.Obs.contended;
  Alcotest.(check int) "spin cycles" 40 r.Obs.total.Obs.wait_cycles;
  Alcotest.(check int) "hold cycles" 40 r.Obs.total.Obs.hold_cycles;
  Alcotest.(check int) "cleared over a spinner = handoff" 1
    r.Obs.total.Obs.handoffs

let test_rpc_accounting () =
  let o = Obs.create ~n_procs:2 () in
  Obs.on_event o ~proc:0 ~now:0 (Verify.Rpc_issue { target = 1 });
  Obs.on_event o ~proc:0 ~now:10 Verify.Rpc_retry;
  Obs.on_event o ~proc:0 ~now:30 Verify.Rpc_reply;
  let r = find_row (Obs.profile_rows o) "rpc" in
  Alcotest.(check int) "issues" 1 r.Obs.total.Obs.acqs;
  Alcotest.(check int) "retries" 1 r.Obs.total.Obs.contended;
  Alcotest.(check int) "call cycles" 30 r.Obs.total.Obs.wait_cycles

let test_unmatched_events_tolerated () =
  (* An observer installed mid-run sees completions with no start; nothing
     may be counted for them and nothing may raise. *)
  let o = Obs.create ~n_procs:2 () in
  Obs.on_event o ~proc:0 ~now:10 (Verify.Released (cls_lock, 9));
  Obs.on_event o ~proc:0 ~now:10 Verify.Wait_abandoned;
  Obs.on_event o ~proc:0 ~now:10 (Verify.Reserve_clear { word = 3 });
  Obs.on_event o ~proc:0 ~now:10 Verify.Reserve_wait_done;
  Obs.on_event o ~proc:0 ~now:10 Verify.Rpc_reply;
  let rows = Obs.profile_rows o in
  Alcotest.(check bool) "only silent rows" true
    (List.for_all (fun (r : Obs.row) -> r.Obs.total.Obs.wait_cycles = 0) rows)

(* -- snapshot consistency ---------------------------------------------------

   The profile is sampled mid-run by host-side readers (gauges, tests):
   after *every* hook, every row — total and per-cluster — must satisfy
   [contended <= acqs + aborts]. The ordering inside the abandon/optimistic-abort hooks (abort bumped
   before contended) is exactly what this property pins: a random
   interleaving of waits, acquisitions, abandonments, try-acquires and
   optimistic aborts across processors, clusters and two classes, with
   the invariant checked between every pair of events. *)

let cls_snap_a = Verify.lock_class "obs.test.snap.a"
let cls_snap_b = Verify.lock_class "obs.test.snap.b"

let snapshot_consistent rows =
  let ok (c : Obs.cells) = c.Obs.contended <= c.Obs.acqs + c.Obs.aborts in
  List.for_all
    (fun (r : Obs.row) ->
      ok r.Obs.total && List.for_all (fun (_, c) -> ok c) r.Obs.by_cluster)
    rows

let prop_snapshot_consistent =
  QCheck.Test.make
    ~name:"every mid-run sample satisfies contended <= acqs + aborts"
    ~count:50
    QCheck.(pair (int_range 2 6) (int_range 0 100_000))
    (fun (p, seed) ->
      let o =
        Obs.create ~cluster_of:(fun q -> q mod 2) ~n_clusters:2 ~n_procs:p ()
      in
      let rng = Rng.create seed in
      let state = Array.make p `Idle in
      let now = ref 0 in
      let ok = ref true in
      for _ = 1 to 200 do
        now := !now + 1 + Rng.int rng 50;
        let proc = Rng.int rng p in
        let cls = if Rng.int rng 2 = 0 then cls_snap_a else cls_snap_b in
        (match state.(proc) with
        | `Idle -> (
          match Rng.int rng 3 with
          | 0 ->
            Obs.on_event o ~proc ~now:!now (Verify.Wait (cls, proc));
            state.(proc) <- `Waiting cls
          | 1 ->
            Obs.on_event o ~proc ~now:!now (Verify.Try_acquired (cls, proc));
            state.(proc) <- `Holding cls
          | _ -> Obs.on_event o ~proc ~now:!now (Verify.Optimistic_abort cls))
        | `Waiting wcls ->
          if Rng.int rng 3 = 0 then begin
            Obs.on_event o ~proc ~now:!now Verify.Wait_abandoned;
            state.(proc) <- `Idle
          end
          else begin
            Obs.on_event o ~proc ~now:!now (Verify.Acquired (wcls, proc));
            state.(proc) <- `Holding wcls
          end
        | `Holding hcls ->
          Obs.on_event o ~proc ~now:!now (Verify.Released (hcls, proc));
          state.(proc) <- `Idle);
        if not (snapshot_consistent (Obs.profile_rows o)) then ok := false
      done;
      !ok)

(* -- trace ring ------------------------------------------------------------ *)

let test_trace_ring_bounded () =
  let o = Obs.create ~trace:4 ~n_procs:1 () in
  for i = 1 to 10 do
    Obs.on_event o ~proc:0 ~now:i (Verify.Try_acquired (cls_lock, 1))
  done;
  Alcotest.(check int) "recorded" 10 (Obs.trace_recorded o);
  Alcotest.(check int) "dropped" 6 (Obs.trace_dropped o);
  let evs = Obs.trace o in
  Alcotest.(check int) "retained = capacity" 4 (List.length evs);
  Alcotest.(check (list int)) "oldest-first tail" [ 7; 8; 9; 10 ]
    (List.map (fun (e : Obs.event) -> e.Obs.time) evs)

let test_trace_off_records_nothing () =
  let o = Obs.create ~n_procs:1 () in
  Obs.on_event o ~proc:0 ~now:1 (Verify.Try_acquired (cls_lock, 1));
  Alcotest.(check int) "no ring" 0 (Obs.trace_recorded o);
  Alcotest.(check (list int)) "empty" []
    (List.map (fun (e : Obs.event) -> e.Obs.time) (Obs.trace o))

let test_trace_json_shape () =
  let o = Obs.create ~trace:64 ~cluster_of:(fun p -> p / 2) ~n_clusters:2
      ~n_procs:4 ()
  in
  Obs.on_event o ~proc:1 ~now:0 (Verify.Wait (cls_lock, 1));
  Obs.on_event o ~proc:1 ~now:400 (Verify.Acquired (cls_lock, 1));
  Obs.on_event o ~proc:1 ~now:720 (Verify.Released (cls_lock, 1));
  Obs.on_event o ~proc:3 ~now:100 (Verify.Rpc_issue { target = 0 });
  let doc = Obs.trace_json o ~us_per_cycle:(1.0 /. 16.0) in
  (* The export must itself be valid JSON. *)
  let parsed = Json.of_string (Json.to_string ~compact:true doc) in
  Alcotest.(check bool) "round trips" true (parsed = doc);
  match Json.get doc "traceEvents" with
  | Json.List evs ->
    let phase e =
      match Json.get e "ph" with Json.String s -> s | _ -> "?"
    in
    let spans = List.filter (fun e -> phase e = "X") evs in
    let instants = List.filter (fun e -> phase e = "i") evs in
    let meta = List.filter (fun e -> phase e = "M") evs in
    Alcotest.(check int) "two spans (acquire + hold)" 2 (List.length spans);
    Alcotest.(check int) "one instant (rpc issue)" 1 (List.length instants);
    (* 2 procs appear -> process_name + thread_name each. *)
    Alcotest.(check int) "metadata per proc" 4 (List.length meta);
    List.iter
      (fun e ->
        (match Json.get e "ts" with
        | Json.Float ts -> Alcotest.(check bool) "ts >= 0" true (ts >= 0.0)
        | _ -> Alcotest.fail "ts not a float");
        match Json.get e "dur" with
        | Json.Float d -> Alcotest.(check bool) "dur >= 0" true (d >= 0.0)
        | _ -> Alcotest.fail "dur not a float")
      spans;
    (* Complete events convert cycles to microseconds: the 400-cycle wait
       at 16 cycles/us is 25 us starting at ts 0. *)
    let acquire =
      List.find
        (fun e -> Json.get e "name" = Json.String "obs.test.lock acquire")
        spans
    in
    Alcotest.(check bool) "acquire ts" true (Json.get acquire "ts" = Json.Float 0.0);
    Alcotest.(check bool) "acquire dur" true
      (Json.get acquire "dur" = Json.Float 25.0)
  | _ -> Alcotest.fail "traceEvents not a list"

(* -- storms: no perturbation, real attribution ------------------------------ *)

(* Mirror of test_verify's checker identity: a dosed storm must return
   structurally identical results with profiling + tracing installed. *)
let test_observer_identity () =
  let config =
    {
      Fault_storm.default_config with
      window_us = 8_000.0;
      stall_every_us = 1000.0;
    }
  in
  let plain = Fault_storm.run ~config Fault_storm.Timeout in
  let o =
    Obs.create ~trace:4096
      ~cluster_of:(Config.station_of_proc Config.hector)
      ~n_clusters:Config.hector.Config.stations
      ~n_procs:(Config.n_procs Config.hector) ()
  in
  let observed = Fault_storm.run ~config ~obs:o Fault_storm.Timeout in
  Alcotest.(check bool) "identical results" true (plain = observed);
  Alcotest.(check bool) "and the profile is non-trivial" true
    (Obs.profile_rows o <> []);
  Alcotest.(check bool) "and the trace recorded events" true
    (Obs.trace_recorded o > 0)

(* The obs study's profile, from the claims suite's run. That each class's
   per-cluster rows sum to its total is the study's claim. *)
let test_storm_attribution () =
  let obs, _ = Test_claims.obs_profile () in
  let rows = Obs.profile_rows obs in
  (* The storm's coarse locks, reserve bits and RPCs must all appear, with
     waiting attributed to the lock classes... *)
  let mcs = find_row rows "mcs" in
  let reserve = find_row rows "reserve" in
  let rpc = find_row rows "rpc" in
  Alcotest.(check bool) "mcs waits" true (mcs.Obs.total.Obs.wait_cycles > 0);
  Alcotest.(check bool) "mcs contended" true (mcs.Obs.total.Obs.contended > 0);
  Alcotest.(check bool) "reserve holds" true
    (reserve.Obs.total.Obs.hold_cycles > 0);
  Alcotest.(check bool) "rpc waits" true (rpc.Obs.total.Obs.wait_cycles > 0);
  (* ... and per cluster (station): the 8 workers span 2 stations. *)
  Alcotest.(check bool) "mcs split across clusters" true
    (List.length mcs.Obs.by_cluster >= 2);
  Alcotest.(check bool) "storm rows snapshot-consistent" true
    (snapshot_consistent rows)

(* -- BENCH_results.json ----------------------------------------------------- *)

let reduced =
  { Registry.procs = Some [ 2 ]; sizes = Some [ 4 ]; iters = Some 5;
    rounds = Some 2 }

(* Every exported entry run on reduced knobs, and the export of them:
   shared by the two tests below. *)
let reduced_outcomes =
  lazy
    (Registry.run ~knobs:reduced ~jobs:2
       (List.map Registry.find (Bench_json.default_names ())))

let reduced_document =
  lazy (Bench_json.of_outcomes (Lazy.force reduced_outcomes))

(* The schema fields are present, the document round-trips, and the abort
   and crash sections' claims give their declared verdicts. *)
let test_bench_json_schema () =
  let doc = Lazy.force reduced_document in
  Alcotest.(check bool) "document round trips" true
    (Json.of_string (Json.to_string doc) = doc);
  Alcotest.(check bool) "schema_version" true
    (Json.get doc "schema_version" = Json.Int Bench_json.schema_version);
  Alcotest.(check bool) "latency unit" true
    (Json.get (Json.get doc "units") "latency" = Json.String "us");
  let exps = Json.get doc "experiments" in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (Json.member exps n <> None))
    (Bench_json.default_names ());
  List.iter
    (fun o ->
      match Registry.json o with
      | ("abort_storm" | "crash_storm"), _ ->
        Alcotest.(check (list string)) "claims as declared" []
          (Registry.unexpected o)
      | _ -> ())
    (Lazy.force reduced_outcomes)

(* Every exported spec's section of the export is its cells, run directly
   on the same knobs and encoded by the spec: the registry, the domain pool
   and the document add and drop nothing. *)
let test_sections_are_specs () =
  let exps = Json.get (Lazy.force reduced_document) "experiments" in
  let specs = Spec.paper () @ Spec.extensions () in
  Alcotest.(check (list string)) "one spec per section"
    (Bench_json.default_names ())
    (List.map (fun (Spec.Spec s) -> s.section) specs);
  List.iter
    (fun (Spec.Spec s) ->
      let cells = List.map (fun c -> (c, s.run reduced c)) s.grid in
      Alcotest.(check bool) (s.section ^ " is its cells encoded") true
        (Json.get exps s.section = Spec.json s cells))
    specs

let test_bench_json_rejects_unknown () =
  List.iter
    (fun (names, why) ->
      match Bench_json.document ~names () with
      | _ -> Alcotest.failf "%s exported" (String.concat " " names)
      | exception Invalid_argument msg ->
        List.iter
          (fun affix ->
            Alcotest.(check bool) (affix ^ " in the message") true
              (Astring.String.is_infix ~affix msg))
          (why :: Bench_json.default_names ()))
    (* A name no entry has, a study's, and a name given twice. *)
    [
      ([ "fig9000" ], "unknown");
      ([ "retries" ], "a study, not exported");
      ([ "constants"; "constants" ], "named twice");
    ]

let suite =
  [
    Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parser" `Quick test_json_parse;
    Alcotest.test_case "lock accounting" `Quick test_lock_accounting;
    Alcotest.test_case "reserve accounting" `Quick test_reserve_accounting;
    Alcotest.test_case "rpc accounting" `Quick test_rpc_accounting;
    Alcotest.test_case "unmatched events tolerated" `Quick
      test_unmatched_events_tolerated;
    Qc.to_alcotest prop_snapshot_consistent;
    Alcotest.test_case "trace ring bounded" `Quick test_trace_ring_bounded;
    Alcotest.test_case "trace off records nothing" `Quick
      test_trace_off_records_nothing;
    Alcotest.test_case "trace json shape" `Quick test_trace_json_shape;
    Alcotest.test_case "observer on/off identity" `Quick test_observer_identity;
    Alcotest.test_case "storm attribution per class and cluster" `Quick
      test_storm_attribution;
    Alcotest.test_case "bench json schema and values" `Quick
      test_bench_json_schema;
    Alcotest.test_case "every export section is its spec's cells encoded"
      `Quick test_sections_are_specs;
    Alcotest.test_case "bench json rejects unknown names" `Quick
      test_bench_json_rejects_unknown;
  ]
