(* The full hook stream, pinned: four instrumented workloads on reduced
   knobs, each traced by an observer whose ring keeps every event. A run's
   trace export is hashed and compared against a recorded digest, so any
   change to which hook events fire, in what order, on which processor, at
   what cycle or with what payload shows up here, even when every profile
   total and exported number still agrees. Verify's violation and recovery
   counts are pinned beside the digests. *)

open Hector
open Hkernel
open Workloads

let capacity = 1 lsl 18
let cfg = Config.hector

let clustered_obs ~p ~n_clusters =
  let clustering =
    Clustering.create ~n_procs:p
      ~cluster_size:((p + n_clusters - 1) / n_clusters)
  in
  Obs.create ~trace:capacity
    ~cluster_of:(Clustering.cluster_of_proc clustering)
    ~n_clusters:(Clustering.n_clusters clustering)
    ~n_procs:(Config.n_procs cfg) ()

let check_digest obs expected =
  Alcotest.(check int) "ring kept every event" 0 (Obs.trace_dropped obs);
  Alcotest.(check bool) "events recorded" true (Obs.trace_recorded obs > 0);
  let doc = Obs.trace_json obs ~us_per_cycle:(Config.us_of_cycles cfg 1) in
  Alcotest.(check string) "trace digest" expected
    (Digest.to_hex (Digest.string (Json.to_string doc)))

let test_fault_storm () =
  let obs =
    Obs.create ~trace:capacity ~cluster_of:(Config.station_of_proc cfg)
      ~n_clusters:cfg.Config.stations ~n_procs:(Config.n_procs cfg) ()
  in
  let verify = Verify.create ~n_procs:(Config.n_procs cfg) () in
  let fault =
    {
      Eventsim.Fault.disabled with
      seed = 3;
      stall_every = Config.cycles_of_us cfg 1500.0;
      stall_cycles = Config.cycles_of_us cfg 400.0;
    }
  in
  let config =
    {
      Fault_storm.default_config with
      p = 6;
      window_us = 6000.0;
      fault = Some fault;
    }
  in
  let r = Fault_storm.run ~cfg ~config ~verify ~obs Fault_storm.Timeout in
  Alcotest.(check bool) "stalls injected" true
    (r.Fault_storm.stalls_injected > 0);
  Alcotest.(check int) "violations" 0 (Verify.violation_count verify);
  Alcotest.(check int) "recoveries" 0 (Verify.recoveries verify);
  check_digest obs "637622125f63a4a7263170b453e8fc7b"

let test_crash_storm () =
  let config =
    { Crash_storm.default_config with n_kills = 3; window_us = 3000.0 }
  in
  let obs =
    clustered_obs ~p:config.Crash_storm.p
      ~n_clusters:config.Crash_storm.n_clusters
  in
  let r = Crash_storm.run ~cfg ~config ~obs Locks.Lock.Mcs_h2 in
  Alcotest.(check int) "kills" 3 r.Crash_storm.kills;
  Alcotest.(check int) "violations" 0 r.Crash_storm.lockdep_violations;
  Alcotest.(check int) "recoveries" 3 r.Crash_storm.lockdep_recoveries;
  check_digest obs "b69e32e4cbb1d8daee01030d0b013b18"

let test_rw_scaling () =
  let config =
    {
      Rw_scaling.default_config with
      ops = 40;
      style =
        Rw_scaling.Rw_lock
          {
            writer = Locks.Lock.Mcs_h2;
            policy = Locks.Rwlock.Writer_blocking;
            centralised = false;
          };
    }
  in
  let obs =
    clustered_obs ~p:config.Rw_scaling.p
      ~n_clusters:config.Rw_scaling.n_clusters
  in
  let r = Rw_scaling.run ~cfg ~config ~obs () in
  Alcotest.(check bool) "readers overlap" true (r.Rw_scaling.peak_readers > 1);
  Alcotest.(check int) "violations" 0 r.Rw_scaling.lockdep_violations;
  check_digest obs "0c2f922be51e650f37c97773018e2042"

let test_diurnal () =
  let config =
    { Diurnal.default_config with algo = Locks.Lock.cna; phase_us = 500.0 }
  in
  let obs =
    clustered_obs ~p:config.Diurnal.p_hot ~n_clusters:config.Diurnal.n_clusters
  in
  let r = Diurnal.run ~cfg ~config ~obs () in
  Alcotest.(check bool) "free" true r.Diurnal.final_free;
  Alcotest.(check int) "violations" 0 r.Diurnal.lockdep_violations;
  check_digest obs "87d69eeb4d7b12fedcf34f30c3a1d247"

let suite =
  [
    Alcotest.test_case "fault storm under verify: stream digest" `Quick
      test_fault_storm;
    Alcotest.test_case "crash storm on h2: stream digest" `Quick
      test_crash_storm;
    Alcotest.test_case "rw-style scaling: stream digest" `Quick test_rw_scaling;
    Alcotest.test_case "diurnal on cna: stream digest" `Quick test_diurnal;
  ]
