(* Tests for the memory manager: fault paths, page-table state, the
   coherence protocol and its invariants, combining, and retries. *)

open Eventsim
open Hector
open Hkernel

let make ?(cluster_size = 4) ?(lock_algo = Locks.Lock.Mcs_h2) ?(seed = 71) () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let kernel = Kernel.create machine ~cluster_size ~lock_algo ~seed in
  (eng, machine, kernel)

(* Coherence invariant: at most one cluster holds a valid-for-write
   replica, and then nobody else holds any valid replica. *)
let check_coherence kernel ~vpage =
  let states = ref [] in
  let n = Clustering.n_clusters (Kernel.clustering kernel) in
  for c = 0 to n - 1 do
    match Kernel.find_descriptor_untimed kernel ~cluster:c ~vpage with
    | None -> ()
    | Some e -> states := Cell.peek e.Khash.payload.Page.vstate :: !states
  done;
  let writers = List.length (List.filter (fun s -> s = Page.st_valid_write) !states) in
  let readers = List.length (List.filter (fun s -> s = Page.st_valid_read) !states) in
  Alcotest.(check bool) "at most one writer" true (writers <= 1);
  if writers = 1 then
    Alcotest.(check int) "no readers besides a writer" 0 readers

let test_simple_fault_maps_page () =
  let eng, _, kernel = make () in
  Kernel.populate_page kernel ~vpage:100 ~master_cluster:0 ~frame:100;
  Process.spawn eng (fun () ->
      let ctx = Kernel.ctx kernel 0 in
      Memmgr.fault kernel ctx ~vpage:100 ~write:true;
      (* The page-table word records the mapping. *)
      Alcotest.(check int) "pte set" (100 lor 1)
        (Cell.peek (Kernel.pte_cell kernel 0)));
  Engine.run eng;
  Alcotest.(check int) "fault counted" 1 (Kernel.faults kernel);
  match Kernel.find_descriptor_untimed kernel ~cluster:0 ~vpage:100 with
  | None -> Alcotest.fail "descriptor lost"
  | Some e ->
    Alcotest.(check int) "refcount" 1 (Cell.peek e.Khash.payload.Page.refcount);
    Alcotest.(check bool) "reserve released" false
      (Locks.Reserve.write_reserved e.Khash.status)

let test_unmap_decrements () =
  let eng, _, kernel = make () in
  Kernel.populate_page kernel ~vpage:101 ~master_cluster:0 ~frame:101;
  Process.spawn eng (fun () ->
      let ctx = Kernel.ctx kernel 0 in
      Memmgr.fault kernel ctx ~vpage:101 ~write:true;
      Memmgr.unmap kernel ctx ~vpage:101;
      Alcotest.(check int) "pte cleared" 0 (Cell.peek (Kernel.pte_cell kernel 0)));
  Engine.run eng;
  match Kernel.find_descriptor_untimed kernel ~cluster:0 ~vpage:101 with
  | None -> Alcotest.fail "descriptor lost"
  | Some e ->
    Alcotest.(check int) "refcount back to 0" 0
      (Cell.peek e.Khash.payload.Page.refcount)

let test_read_fault_replicates () =
  let eng, _, kernel = make () in
  Kernel.populate_page kernel ~vpage:102 ~master_cluster:0 ~frame:102;
  Kernel.spawn_idle_except kernel ~active:[ 4 ];
  Process.spawn eng (fun () ->
      (* Processor 4 lives in cluster 1; its read fault replicates the
         descriptor there. *)
      Memmgr.fault kernel (Kernel.ctx kernel 4) ~vpage:102 ~write:false);
  Engine.run eng;
  Alcotest.(check int) "one replication" 1 (Kernel.replications kernel);
  (match Kernel.find_descriptor_untimed kernel ~cluster:1 ~vpage:102 with
  | None -> Alcotest.fail "no replica in cluster 1"
  | Some e ->
    Alcotest.(check int) "replica valid for read" Page.st_valid_read
      (Cell.peek e.Khash.payload.Page.vstate));
  (* Master directory now lists cluster 1 as a sharer. *)
  (match Kernel.find_descriptor_untimed kernel ~cluster:0 ~vpage:102 with
  | None -> Alcotest.fail "master lost"
  | Some e ->
    Alcotest.(check bool) "sharer recorded" true
      (Page.has_sharer (Cell.peek e.Khash.payload.Page.dir_sharers) 1));
  check_coherence kernel ~vpage:102

let test_write_fault_takes_ownership () =
  let eng, _, kernel = make () in
  Kernel.populate_page kernel ~vpage:103 ~master_cluster:0 ~frame:103;
  Kernel.spawn_idle_except kernel ~active:[ 8 ];
  Process.spawn eng (fun () ->
      (* Cluster 2 writes: master's own copy must be invalidated and the
         directory transferred. *)
      Memmgr.fault kernel (Kernel.ctx kernel 8) ~vpage:103 ~write:true);
  Engine.run eng;
  (match Kernel.find_descriptor_untimed kernel ~cluster:2 ~vpage:103 with
  | None -> Alcotest.fail "no replica in writer's cluster"
  | Some e ->
    Alcotest.(check int) "writer valid-write" Page.st_valid_write
      (Cell.peek e.Khash.payload.Page.vstate));
  (match Kernel.find_descriptor_untimed kernel ~cluster:0 ~vpage:103 with
  | None -> Alcotest.fail "master lost"
  | Some e ->
    let d = e.Khash.payload in
    Alcotest.(check int) "master invalidated" Page.st_invalid
      (Cell.peek d.Page.vstate);
    Alcotest.(check int) "owner recorded" (2 + 1) (Cell.peek d.Page.dir_owner);
    Alcotest.(check bool) "master reserve released after confirm" false
      (Locks.Reserve.write_reserved e.Khash.status));
  check_coherence kernel ~vpage:103

let test_ownership_pingpong () =
  let eng, _, kernel = make () in
  Kernel.populate_page kernel ~vpage:104 ~master_cluster:0 ~frame:104;
  Kernel.spawn_idle_except kernel ~active:[ 0; 4; 8; 12 ];
  (* One writer per cluster, sequential rounds via pauses. *)
  List.iteri
    (fun i proc ->
      Process.spawn eng (fun () ->
          let ctx = Kernel.ctx kernel proc in
          Process.pause eng (i * 20_000);
          Memmgr.fault kernel ctx ~vpage:104 ~write:true;
          Memmgr.unmap kernel ctx ~vpage:104;
          Ctx.idle_loop ctx))
    [ 0; 4; 8; 12 ];
  Engine.run eng;
  (* Final owner must be cluster 3 and everyone else invalid. *)
  (match Kernel.find_descriptor_untimed kernel ~cluster:3 ~vpage:104 with
  | None -> Alcotest.fail "no replica in last writer's cluster"
  | Some e ->
    Alcotest.(check int) "final writer owns" Page.st_valid_write
      (Cell.peek e.Khash.payload.Page.vstate));
  check_coherence kernel ~vpage:104;
  Alcotest.(check bool) "invalidations happened" true
    (Kernel.invalidations kernel >= 2)

let test_concurrent_writers_race () =
  let eng, _, kernel = make ~seed:5 () in
  Kernel.populate_page kernel ~vpage:105 ~master_cluster:0 ~frame:105;
  let writers = [ 1; 5; 9; 13 ] in
  Kernel.spawn_idle_except kernel ~active:writers;
  List.iter
    (fun proc ->
      Process.spawn eng (fun () ->
          let ctx = Kernel.ctx kernel proc in
          for _ = 1 to 3 do
            Memmgr.fault kernel ctx ~vpage:105 ~write:true;
            Memmgr.unmap kernel ctx ~vpage:105
          done;
          Ctx.idle_loop ctx))
    writers;
  Engine.run eng;
  Alcotest.(check int) "all faults completed" 12 (Kernel.faults kernel);
  check_coherence kernel ~vpage:105

let test_combining_single_rpc_per_cluster () =
  let eng, _, kernel = make () in
  Kernel.populate_page kernel ~vpage:106 ~master_cluster:0 ~frame:106;
  (* All four processors of cluster 1 read-fault simultaneously: the
     placeholder combines them into one replication. *)
  let readers = [ 4; 5; 6; 7 ] in
  Kernel.spawn_idle_except kernel ~active:readers;
  List.iter
    (fun proc ->
      Process.spawn eng (fun () ->
          Memmgr.fault kernel (Kernel.ctx kernel proc) ~vpage:106 ~write:false))
    readers;
  Engine.run eng;
  Alcotest.(check int) "exactly one replication" 1 (Kernel.replications kernel);
  match Kernel.find_descriptor_untimed kernel ~cluster:1 ~vpage:106 with
  | None -> Alcotest.fail "no replica"
  | Some e ->
    Alcotest.(check int) "all four mapped it" 4
      (Cell.peek e.Khash.payload.Page.refcount)

let test_lockless_calibration_path () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let kernel = Kernel.create machine ~cluster_size:16 ~lockless:true ~seed:6 in
  Kernel.populate_page kernel ~vpage:107 ~master_cluster:0 ~frame:107;
  Process.spawn eng (fun () ->
      let ctx = Kernel.ctx kernel 0 in
      Memmgr.fault kernel ctx ~vpage:107 ~write:true;
      Memmgr.unmap kernel ctx ~vpage:107);
  Engine.run eng;
  Alcotest.(check int) "no atomics at all" 0 (Machine.atomics machine)

let test_read_fault_downgrades_writer () =
  let eng, _, kernel = make () in
  Kernel.populate_page kernel ~vpage:108 ~master_cluster:0 ~frame:108;
  Kernel.spawn_idle_except kernel ~active:[ 4; 8 ];
  Process.spawn eng (fun () ->
      let ctx = Kernel.ctx kernel 4 in
      (* Cluster 1 takes write ownership... *)
      Memmgr.fault kernel ctx ~vpage:108 ~write:true;
      Ctx.idle_loop ctx);
  Process.spawn eng (fun () ->
      Process.pause eng 30_000;
      (* ...then cluster 2 reads: the writer must be downgraded. *)
      Memmgr.fault kernel (Kernel.ctx kernel 8) ~vpage:108 ~write:false);
  Engine.run eng;
  (match Kernel.find_descriptor_untimed kernel ~cluster:1 ~vpage:108 with
  | None -> Alcotest.fail "writer replica missing"
  | Some e ->
    Alcotest.(check bool) "writer downgraded" true
      (Cell.peek e.Khash.payload.Page.vstate <= Page.st_valid_read));
  check_coherence kernel ~vpage:108

let test_no_combining_path () =
  let eng, _, kernel = make () in
  Kernel.populate_page kernel ~vpage:109 ~master_cluster:0 ~frame:109;
  let readers = [ 4; 5; 6; 7 ] in
  Kernel.spawn_idle_except kernel ~active:readers;
  List.iter
    (fun proc ->
      Process.spawn eng (fun () ->
          Memmgr.read_fault_no_combining kernel (Kernel.ctx kernel proc)
            ~vpage:109))
    readers;
  Engine.run eng;
  Alcotest.(check int) "all faults ran" 4 (Kernel.faults kernel);
  Alcotest.(check bool) "more than one replication without combining" true
    (Kernel.replications kernel >= 1);
  match Kernel.find_descriptor_untimed kernel ~cluster:1 ~vpage:109 with
  | None -> Alcotest.fail "no replica"
  | Some e ->
    Alcotest.(check int) "replica readable" Page.st_valid_read
      (Cell.peek e.Khash.payload.Page.vstate)

(* Random concurrent storms keep the coherence invariant. *)
let prop_coherence_under_storm =
  QCheck.Test.make ~name:"coherence invariant under random write storms"
    ~count:15
    QCheck.(pair (int_range 1 8) (int_bound 10_000))
    (fun (writers, seed) ->
      let eng, _, kernel = make ~seed () in
      Kernel.populate_page kernel ~vpage:200 ~master_cluster:0 ~frame:200;
      let procs = List.init writers (fun i -> (i * 3) mod 16) in
      let procs = List.sort_uniq compare procs in
      Kernel.spawn_idle_except kernel ~active:procs;
      List.iter
        (fun proc ->
          Process.spawn eng (fun () ->
              let ctx = Kernel.ctx kernel proc in
              for _ = 1 to 2 do
                Memmgr.fault kernel ctx ~vpage:200 ~write:true;
                Memmgr.unmap kernel ctx ~vpage:200
              done;
              Ctx.idle_loop ctx))
        procs;
      Engine.run eng;
      let states = ref [] in
      let n = Clustering.n_clusters (Kernel.clustering kernel) in
      for c = 0 to n - 1 do
        match Kernel.find_descriptor_untimed kernel ~cluster:c ~vpage:200 with
        | None -> ()
        | Some e -> states := Cell.peek e.Khash.payload.Page.vstate :: !states
      done;
      List.length (List.filter (fun s -> s = Page.st_valid_write) !states) <= 1)

let suite =
  [
    Alcotest.test_case "fault maps the page" `Quick test_simple_fault_maps_page;
    Alcotest.test_case "unmap decrements" `Quick test_unmap_decrements;
    Alcotest.test_case "read fault replicates" `Quick test_read_fault_replicates;
    Alcotest.test_case "write fault takes ownership" `Quick
      test_write_fault_takes_ownership;
    Alcotest.test_case "ownership ping-pong" `Quick test_ownership_pingpong;
    Alcotest.test_case "concurrent writers race safely" `Quick
      test_concurrent_writers_race;
    Alcotest.test_case "combining: one RPC per cluster" `Quick
      test_combining_single_rpc_per_cluster;
    Alcotest.test_case "lockless calibration path" `Quick
      test_lockless_calibration_path;
    Alcotest.test_case "read fault downgrades a writer" `Quick
      test_read_fault_downgrades_writer;
    Alcotest.test_case "no-combining read fault" `Quick test_no_combining_path;
    Qc.to_alcotest prop_coherence_under_storm;
  ]
