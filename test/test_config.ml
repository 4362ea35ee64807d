(* Tests for the machine configuration. *)

open Hector

let test_hector_shape () =
  let c = Config.hector in
  Alcotest.(check int) "16 processors" 16 (Config.n_procs c);
  Alcotest.(check int) "stations" 4 c.Config.stations;
  Alcotest.(check int) "local latency" 10 c.Config.local_latency;
  Alcotest.(check int) "station latency" 19 c.Config.station_latency;
  Alcotest.(check int) "ring latency" 23 c.Config.ring_latency;
  Alcotest.(check bool) "no CAS" false c.Config.has_cas;
  Alcotest.(check int) "swap = 2 accesses" 2 c.Config.atomic_mem_accesses

let test_station_mapping () =
  let c = Config.hector in
  Alcotest.(check int) "proc 0" 0 (Config.station_of_proc c 0);
  Alcotest.(check int) "proc 3" 0 (Config.station_of_proc c 3);
  Alcotest.(check int) "proc 4" 1 (Config.station_of_proc c 4);
  Alcotest.(check int) "proc 15" 3 (Config.station_of_proc c 15);
  Alcotest.(check int) "index in station" 3 (Config.index_in_station c 7)

let test_time_conversion () =
  let c = Config.hector in
  Alcotest.(check (float 0.0001)) "16 cycles = 1us" 1.0
    (Config.us_of_cycles c 16);
  Alcotest.(check int) "25us = 400 cycles" 400 (Config.cycles_of_us c 25.0);
  Alcotest.(check (float 0.0001)) "roundtrip" 25.0
    (Config.us_of_cycles c (Config.cycles_of_us c 25.0))

let test_with_cas () =
  let c = Config.with_cas Config.hector in
  Alcotest.(check bool) "has CAS" true c.Config.has_cas;
  Alcotest.(check int) "single-access atomics" 1 c.Config.atomic_mem_accesses

let test_validate_rejects_bad () =
  let bad_cases =
    [
      { Config.hector with Config.stations = 0 };
      { Config.hector with Config.procs_per_station = -1 };
      { Config.hector with Config.mhz = 0 };
      { Config.hector with Config.station_latency = 5 } (* < local *);
      { Config.hector with Config.atomic_mem_accesses = 0 };
    ]
  in
  List.iteri
    (fun i c ->
      match Config.validate c with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "bad config %d accepted" i)
    bad_cases

(* Negative latencies, services and costs, and a coherent machine whose
   cache-hit spin iteration takes no time, are rejected with a message
   naming the field. The zero-time spin would hang the host: simulated time
   stands still and no event runs, so the event budget never catches it. *)
let test_validate_rejects_negative_and_zero_time () =
  let rejects what c expected =
    Alcotest.check_raises what (Invalid_argument expected) (fun () ->
        ignore (Config.validate c))
  in
  let negative name =
    Printf.sprintf "Config: %s must not be negative (got -1)" name
  in
  rejects "mem_service" { Config.hector with Config.mem_service = -1 }
    (negative "mem_service");
  rejects "bus_service" { Config.hector with Config.bus_service = -1 }
    (negative "bus_service");
  rejects "ring_service" { Config.hector with Config.ring_service = -1 }
    (negative "ring_service");
  rejects "atomic_module_overhead"
    { Config.hector with Config.atomic_module_overhead = -1 }
    (negative "atomic_module_overhead");
  rejects "reg_cost" { Config.hector with Config.reg_cost = -1 }
    (negative "reg_cost");
  rejects "branch_cost" { Config.hector with Config.branch_cost = -1 }
    (negative "branch_cost");
  rejects "atomic_overlap" { Config.hector with Config.atomic_overlap = -1 }
    (negative "atomic_overlap");
  rejects "irq_entry" { Config.hector with Config.irq_entry = -1 }
    (negative "irq_entry");
  rejects "irq_exit" { Config.hector with Config.irq_exit = -1 }
    (negative "irq_exit");
  rejects "cache_hit" { Config.numachine with Config.cache_hit = -1 }
    (negative "cache_hit");
  rejects "zero-time coherent spin"
    { Config.numachine with Config.cache_hit = 0; branch_cost = 0 }
    "Config: a coherent machine needs cache_hit + branch_cost > 0 (a \
     cache-hit spin iteration would take no time)";
  (* Either cost alone keeps time moving; an uncached machine never hits. *)
  List.iter
    (fun c -> ignore (Config.validate c))
    [
      { Config.numachine with Config.cache_hit = 0 };
      { Config.numachine with Config.branch_cost = 0 };
      { Config.hector with Config.cache_hit = 0; branch_cost = 0 };
    ]

(* Processor and cluster bitmasks are one word wide: [Sys.int_size]
   processors is the largest machine [validate] accepts. *)
let test_validate_bitmask_width () =
  let machine procs =
    { Config.hector with Config.stations = procs; procs_per_station = 1 }
  in
  let widest = machine Sys.int_size in
  Alcotest.(check bool) "Sys.int_size processors accepted" true
    (Config.validate widest == widest);
  let too_wide = Sys.int_size + 1 in
  Alcotest.check_raises "one more is rejected"
    (Invalid_argument
       (Printf.sprintf
          "Config: %d processors exceed the %d-bit processor bitmask \
           (Sys.int_size)"
          too_wide Sys.int_size))
    (fun () -> ignore (Config.validate (machine too_wide)))

let test_validate_accepts_hector () =
  Alcotest.(check bool) "hector valid" true
    (Config.validate Config.hector == Config.hector)

let suite =
  [
    Alcotest.test_case "HECTOR preset shape" `Quick test_hector_shape;
    Alcotest.test_case "station mapping" `Quick test_station_mapping;
    Alcotest.test_case "cycle/us conversion" `Quick test_time_conversion;
    Alcotest.test_case "with_cas" `Quick test_with_cas;
    Alcotest.test_case "validate rejects bad configs" `Quick
      test_validate_rejects_bad;
    Alcotest.test_case "validate rejects negative costs and zero-time spins"
      `Quick test_validate_rejects_negative_and_zero_time;
    Alcotest.test_case "validate rejects more processors than bitmask bits"
      `Quick test_validate_bitmask_width;
    Alcotest.test_case "validate accepts hector" `Quick
      test_validate_accepts_hector;
  ]
