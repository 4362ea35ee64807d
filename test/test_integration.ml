(* Whole-system integration ("monkey") tests: faults, copy-on-write breaks,
   destruction, message passing and file reads all running concurrently on
   one kernel, with every global invariant checked at quiescence. Random
   schedules come from qcheck seeds. *)

open Eventsim
open Hector
open Hkernel

(* Build a kernel with a full mixed workload and run it to quiescence.
   Returns everything needed for invariant checks. *)
let run_monkey ~seed ~cluster_size =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let kernel = Kernel.create machine ~cluster_size ~seed in
  let clustering = Kernel.clustering kernel in
  let n_clusters = Clustering.n_clusters clustering in
  let procs_t = Procs.create ~layout:Procs.Combined kernel in
  let server = Fserver.create ~read_ahead:1 kernel in
  (* Shared pages for write faults. *)
  let shared_pages = [ 300_000; 300_001 ] in
  List.iter
    (fun vpage -> Kernel.populate_page kernel ~vpage ~master_cluster:0 ~frame:1)
    shared_pages;
  (* A COW page shared by 4 breakers. *)
  Kernel.populate_page kernel ~vpage:310_000 ~master_cluster:0 ~frame:2;
  (match Kernel.find_descriptor_untimed kernel ~cluster:0 ~vpage:310_000 with
  | Some e -> Cell.poke e.Khash.payload.Page.refcount 4
  | None -> assert false);
  (* A process tree. *)
  Procs.spawn_process_untimed procs_t ~pid:1 ~parent:0;
  let victims = List.init 6 (fun i -> 30 + i) in
  List.iter (fun pid -> Procs.spawn_process_untimed procs_t ~pid ~parent:1) victims;
  let servers = List.init n_clusters (fun c ->
      let rec find p = if p mod n_clusters = c then p else find (p + 1) in
      find (60 + (10 * c)))
  in
  List.iter (fun pid -> Procs.spawn_process_untimed procs_t ~pid ~parent:1) servers;
  (* A file. *)
  Fserver.create_file_untimed server ~file:n_clusters ~blocks:8;
  let n = Machine.n_procs machine in
  let active = List.init n (fun i -> i) in
  Kernel.spawn_idle_except kernel ~active;
  let rng = Rng.create seed in
  let completed = ref 0 in
  for proc = 0 to n - 1 do
    let ctx = Kernel.ctx kernel proc in
    let my_rng = Rng.split rng in
    let my_cluster = Clustering.cluster_of_proc clustering proc in
    Process.spawn eng (fun () ->
        for round = 1 to 4 do
          Ctx.work ctx (50 + Rng.int my_rng 300);
          (match (proc + round) mod 5 with
          | 0 ->
            (* Write fault on a shared page, then unmap. *)
            let vpage = List.nth shared_pages (Rng.int my_rng 2) in
            Memmgr.fault kernel ctx ~vpage ~write:true;
            Memmgr.unmap kernel ctx ~vpage
          | 1 ->
            (* COW break, once per processor. *)
            if round = 1 && proc < 4 then
              ignore
                (Memmgr.cow_fault kernel ctx ~strategy:Procs.Optimistic
                   ~vpage:310_000
                   ~private_vpage:(320_000 + proc))
          | 2 ->
            (* Destroy a victim (racy: several processors may try). *)
            let pid = List.nth victims (Rng.int my_rng 6) in
            ignore (Procs.destroy procs_t ctx pid)
          | 3 ->
            (* Message between servers. *)
            let src = List.nth servers my_cluster in
            let dst = List.nth servers (Rng.int my_rng n_clusters) in
            ignore (Procs.send procs_t ctx ~src ~dst)
          | _ ->
            (* File read. *)
            ignore
              (Fserver.read_block server ctx ~file:n_clusters
                 ~index:(Rng.int my_rng 8)));
          ()
        done;
        incr completed;
        Ctx.idle_loop ctx)
  done;
  Engine.run eng;
  (kernel, procs_t, server, clustering, !completed)

(* Invariants at quiescence. *)
let check_invariants (kernel, procs_t, server, clustering, completed) =
  Alcotest.(check int) "every processor finished" 16 completed;
  (* Page coherence: at most one valid-write replica per page; a writer
     excludes readers. *)
  let n_clusters = Clustering.n_clusters clustering in
  List.iter
    (fun vpage ->
      let states = ref [] in
      for c = 0 to n_clusters - 1 do
        match Kernel.find_descriptor_untimed kernel ~cluster:c ~vpage with
        | None -> ()
        | Some e ->
          let st = Cell.peek e.Khash.payload.Page.vstate in
          Alcotest.(check bool) "no reserve left behind" false
            (Locks.Reserve.write_reserved e.Khash.status);
          states := st :: !states
      done;
      let writers =
        List.length (List.filter (fun s -> s = Page.st_valid_write) !states)
      in
      let readers =
        List.length (List.filter (fun s -> s = Page.st_valid_read) !states)
      in
      Alcotest.(check bool) "single writer" true (writers <= 1);
      if writers = 1 then Alcotest.(check int) "writer excludes readers" 0 readers)
    [ 300_000; 300_001 ];
  (* COW: the shared page's share count is consistent (gone, or the
     remaining shares). *)
  (match Kernel.find_descriptor_untimed kernel ~cluster:0 ~vpage:310_000 with
  | None -> ()
  | Some e ->
    Alcotest.(check bool) "share count non-negative" true
      (Cell.peek e.Khash.payload.Page.refcount >= 0));
  (* Process tree: no destroyed pid is still someone's child. *)
  let root_children = Procs.children_untimed procs_t 1 in
  List.iter
    (fun pid ->
      if not (Procs.alive_untimed procs_t pid) then
        Alcotest.(check bool)
          (Printf.sprintf "dead pid %d unlinked" pid)
          false
          (List.mem pid root_children))
    (List.init 6 (fun i -> 30 + i));
  (* File server: hits + misses = reads. *)
  Alcotest.(check bool) "fs accounting" true
    (Fserver.hits server <= Fserver.reads server)

let test_monkey_fixed_seeds () =
  List.iter
    (fun seed -> check_invariants (run_monkey ~seed ~cluster_size:4))
    [ 1; 2; 3; 42 ]

let test_monkey_cluster_sizes () =
  List.iter
    (fun cluster_size ->
      check_invariants (run_monkey ~seed:9 ~cluster_size))
    [ 2; 4; 8 ]

let prop_monkey =
  QCheck.Test.make ~name:"mixed-workload invariants under random seeds"
    ~count:10
    QCheck.(int_bound 100_000)
    (fun seed ->
      check_invariants (run_monkey ~seed ~cluster_size:4);
      true)

(* The footnote-2 discipline: memory for kernel objects is type-stable, so
   a reserve-bit waiter that re-searches after the spin can never adopt a
   recycled object of another type. The observable contract at our level:
   a waiter whose element is removed mid-wait gets [None] (re-search) and
   never a stale element. *)
let test_reserve_waiter_survives_removal () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let table =
    Khash.create machine ~nbins:8 ~lock_algo:Locks.Lock.Mcs_h2
      ~homes:(List.init 16 (fun i -> i))
  in
  let rng = Rng.create 77 in
  let ctx p = Ctx.create machine ~proc:p (Rng.split rng) in
  let waiter_result = ref (Some ()) in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      ignore (Khash.insert table c 5 ~make:(fun _ -> ()));
      match Khash.reserve_existing table c 5 with
      | None -> Alcotest.fail "setup"
      | Some e ->
        Process.pause eng 2000;
        (* Remove the element while the waiter spins on its reserve bit,
           then clear the bit (the type-stable discipline: clear before
           free). *)
        ignore (Khash.remove table c 5);
        Khash.release_reserve c e);
  Process.spawn eng (fun () ->
      let c = ctx 1 in
      Process.pause eng 500;
      waiter_result := Option.map (fun _ -> ()) (Khash.reserve_existing table c 5));
  Engine.run eng;
  Alcotest.(check bool) "waiter re-searched and saw the removal" true
    (!waiter_result = None)

let suite =
  [
    Alcotest.test_case "monkey, fixed seeds" `Slow test_monkey_fixed_seeds;
    Alcotest.test_case "monkey, cluster sizes" `Slow test_monkey_cluster_sizes;
    Qc.to_alcotest prop_monkey;
    Alcotest.test_case "reserve waiter survives element removal" `Quick
      test_reserve_waiter_survives_removal;
  ]
