(* Direct tests for the Kernel wiring: creation variants, the memory-bound
   work model, idle service loops and counters. *)

open Eventsim
open Hector
open Hkernel

let make ?(cluster_size = 4) ?(lockless = false) () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let kernel = Kernel.create machine ~cluster_size ~lockless ~seed:111 in
  (eng, machine, kernel)

let test_creation_shapes () =
  List.iter
    (fun cluster_size ->
      let _, _, kernel = make ~cluster_size () in
      Alcotest.(check int)
        (Printf.sprintf "clusters for size %d" cluster_size)
        ((16 + cluster_size - 1) / cluster_size)
        (Clustering.n_clusters (Kernel.clustering kernel));
      Alcotest.(check int) "16 contexts" 16 (Kernel.n_procs kernel))
    [ 1; 2; 4; 8; 16 ]

let test_cluster_structures_distinct () =
  let _, _, kernel = make () in
  let c0 = Kernel.cluster kernel 0 and c1 = Kernel.cluster kernel 1 in
  Alcotest.(check bool) "distinct hashes" true
    (c0.Kernel.page_hash != c1.Kernel.page_hash);
  Alcotest.(check int) "ids" 0 c0.Kernel.c_id;
  Alcotest.(check (list int)) "procs of cluster 1" [ 4; 5; 6; 7 ]
    c1.Kernel.procs

let test_kernel_work_duration () =
  let eng, machine, kernel = make () in
  Process.spawn eng (fun () ->
      let ctx = Kernel.ctx kernel 0 in
      let t0 = Machine.now machine in
      Kernel.kernel_work kernel ctx 500;
      let dt = Machine.now machine - t0 in
      Alcotest.(check bool) "at least the requested cycles" true (dt >= 500);
      (* Memory-bound, not a sleep: reads must have been issued. *)
      Alcotest.(check bool) "issues memory accesses" true
        (Machine.reads machine > 10));
  Engine.run eng

let test_struct_work_hits_the_right_module () =
  let eng, machine, kernel = make () in
  Process.spawn eng (fun () ->
      let ctx = Kernel.ctx kernel 0 in
      Kernel.struct_work kernel ctx ~home:9 400);
  Engine.run eng;
  Alcotest.(check bool) "module 9 served the accesses" true
    (Resource.n_requests (Machine.mem_resource machine 9) > 5)

(* The padding loops as written before their own-PMM reads were elided:
   [kernel_work] reads [local] except on every eighth iteration, which
   touches a random cluster-shared word (writing it on every sixteenth);
   [struct_work] writes [cell] on every fourth iteration and reads it
   otherwise. *)
let plain_kernel_work kernel ctx ~local cycles =
  let scratch = (Kernel.local_cluster kernel ctx).Kernel.scratch in
  let deadline = Ctx.now ctx + cycles in
  let rec step i =
    if Ctx.now ctx < deadline then begin
      let c =
        if i land 7 = 0 then
          scratch.(Rng.int (Ctx.rng ctx) (Array.length scratch))
        else local
      in
      if i land 15 = 0 then Ctx.write ctx c i else ignore (Ctx.read ctx c);
      Ctx.work ctx 6;
      step (i + 1)
    end
  in
  step 1

let plain_struct_work ctx ~cell cycles =
  let deadline = Ctx.now ctx + cycles in
  let rec step i =
    if Ctx.now ctx < deadline then begin
      if i land 3 = 0 then Ctx.write ctx cell i
      else ignore (Ctx.read ctx cell);
      Ctx.work ctx 6;
      step (i + 1)
    end
  in
  step 1

(* [work kernel ctx ~local] from processor 0 of an idle HECTOR, [local]
   being a fresh word on its PMM: when it ends, the reads and instruction
   cycles it ran, and the events executed. *)
let pad_run work =
  let eng, machine, kernel = make () in
  let ctx = Kernel.ctx kernel 0 in
  let local = Machine.alloc machine ~home:0 0 in
  Process.spawn eng (fun () -> work kernel ctx ~local);
  Engine.run eng;
  ((Engine.now eng, Machine.reads machine, Ctx.instr_cycles ctx),
   Engine.events_executed eng)

(* The own-PMM reads between the shared or written iterations run as
   elided chains: same end, reads and instruction cycles as the loops, under
   a pinned event bound. As loops, [kernel_work 500] runs 63 events and
   [struct_work] on its own PMM for 400 cycles 51; elided they run 11 (a
   sixth) and 20. A write and its work keep their two events every fourth
   iteration, so [struct_work] cannot reach a third. *)
let test_padding_elided () =
  List.iter
    (fun (what, lib, plain, max_events) ->
      let got, events = pad_run lib and expected, ref_events = pad_run plain in
      Alcotest.(check (triple int int int))
        (what ^ ": end, reads and instruction cycles as the loop") expected
        got;
      if events > max_events then
        Alcotest.failf "%s: %d events, the loop %d" what events ref_events)
    [
      ( "kernel_work",
        (fun k c ~local:_ -> Kernel.kernel_work k c 500),
        (fun k c ~local -> plain_kernel_work k c ~local 500),
        11 );
      ( "struct_work",
        (fun k c ~local:_ -> Kernel.struct_work k c ~home:0 400),
        (fun _ c ~local -> plain_struct_work c ~cell:local 400),
        20 );
    ]

let test_lockless_kernel_uses_null_locks () =
  let _, _, kernel = make ~lockless:true () in
  Alcotest.(check bool) "lockless flag" true (Kernel.lockless kernel);
  Alcotest.(check bool) "null algo" true (Kernel.lock_algo kernel = Locks.Lock.Null)

let test_populate_and_find () =
  let _, _, kernel = make () in
  Kernel.populate_page kernel ~vpage:7 ~master_cluster:2 ~frame:7;
  (match Kernel.find_descriptor_untimed kernel ~cluster:2 ~vpage:7 with
  | Some e ->
    let d = e.Khash.payload in
    Alcotest.(check int) "master" 2 d.Page.master_cluster;
    Alcotest.(check int) "starts valid-write" Page.st_valid_write
      (Cell.peek d.Page.vstate);
    Alcotest.(check int) "owner is the master" 3 (Cell.peek d.Page.dir_owner)
  | None -> Alcotest.fail "not found at master");
  Alcotest.(check bool) "absent elsewhere" true
    (Kernel.find_descriptor_untimed kernel ~cluster:0 ~vpage:7 = None)

let test_idle_procs_serve_and_terminate () =
  let eng, _, kernel = make () in
  (* All processors idle except 0; the engine must terminate even though 15
     idle loops are parked. *)
  Kernel.spawn_idle_except kernel ~active:[ 0 ];
  let served = ref 0 in
  Process.spawn eng (fun () ->
      let ctx = Kernel.ctx kernel 0 in
      for target = 1 to 15 do
        (match
          Rpc.call (Kernel.rpc kernel) ctx ~target (fun _ ->
              incr served;
              Rpc.Ok 0)
        with
        | Rpc.Ok _ -> ()
        | _ -> Alcotest.fail "rpc failed")
      done);
  Engine.run eng;
  Alcotest.(check int) "every idle processor served" 15 !served

let test_counters_start_zero () =
  let _, _, kernel = make () in
  Alcotest.(check int) "faults" 0 (Kernel.faults kernel);
  Alcotest.(check int) "retries" 0 (Kernel.retries kernel);
  Alcotest.(check int) "replications" 0 (Kernel.replications kernel);
  Kernel.count_fault kernel;
  Kernel.count_retry kernel;
  Alcotest.(check int) "fault counted" 1 (Kernel.faults kernel);
  Alcotest.(check int) "retry counted" 1 (Kernel.retries kernel)

let test_zero_costs_kernel_runs () =
  (* The Costs.zero variant must still execute a fault correctly. *)
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let kernel =
    Kernel.create machine ~cluster_size:4 ~costs:Costs.zero ~seed:7
  in
  Kernel.populate_page kernel ~vpage:3 ~master_cluster:0 ~frame:3;
  Process.spawn eng (fun () ->
      Memmgr.fault kernel (Kernel.ctx kernel 0) ~vpage:3 ~write:true);
  Engine.run eng;
  Alcotest.(check int) "fault ran" 1 (Kernel.faults kernel)

let suite =
  [
    Alcotest.test_case "creation shapes" `Quick test_creation_shapes;
    Alcotest.test_case "per-cluster structures are distinct" `Quick
      test_cluster_structures_distinct;
    Alcotest.test_case "kernel_work is memory-bound" `Quick
      test_kernel_work_duration;
    Alcotest.test_case "struct_work hits its module" `Quick
      test_struct_work_hits_the_right_module;
    Alcotest.test_case "own-PMM padding elided exactly" `Quick
      test_padding_elided;
    Alcotest.test_case "lockless kernel" `Quick test_lockless_kernel_uses_null_locks;
    Alcotest.test_case "populate and find" `Quick test_populate_and_find;
    Alcotest.test_case "idle processors serve and terminate" `Quick
      test_idle_procs_serve_and_terminate;
    Alcotest.test_case "counters" `Quick test_counters_start_zero;
    Alcotest.test_case "zero-cost kernel runs" `Quick test_zero_costs_kernel_runs;
  ]
