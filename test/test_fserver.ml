(* Tests for the clustered file server (Section 5.1). *)

open Eventsim
open Hector
open Hkernel

let make ?(read_ahead = 0) ?(cluster_size = 4) () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let kernel = Kernel.create machine ~cluster_size ~seed:101 in
  let server = Fserver.create ~read_ahead kernel in
  (eng, kernel, server)

let test_open_and_length () =
  let eng, kernel, server = make () in
  Fserver.create_file_untimed server ~file:8 ~blocks:10;
  Kernel.spawn_idle_except kernel ~active:[ 4 ];
  let len = ref None in
  Process.spawn eng (fun () ->
      len := Fserver.open_file server (Kernel.ctx kernel 4) ~file:8);
  Engine.run eng;
  Alcotest.(check (option int)) "length" (Some 10) !len;
  Alcotest.(check int) "open counted in cluster 1" 1
    (Fserver.open_count_untimed server ~cluster:1 ~file:8)

let test_open_missing_file () =
  let eng, kernel, server = make () in
  Kernel.spawn_idle_except kernel ~active:[ 0 ];
  let len = ref (Some 0) in
  Process.spawn eng (fun () ->
      len := Fserver.open_file server (Kernel.ctx kernel 0) ~file:999);
  Engine.run eng;
  Alcotest.(check (option int)) "absent" None !len

let test_open_close_counts () =
  let eng, kernel, server = make () in
  Fserver.create_file_untimed server ~file:8 ~blocks:4;
  Kernel.spawn_idle_except kernel ~active:[ 0 ];
  Process.spawn eng (fun () ->
      let ctx = Kernel.ctx kernel 0 in
      ignore (Fserver.open_file server ctx ~file:8);
      ignore (Fserver.open_file server ctx ~file:8);
      Fserver.close_file server ctx ~file:8);
  Engine.run eng;
  Alcotest.(check int) "two opens, one close" 1
    (Fserver.open_count_untimed server ~cluster:0 ~file:8)

let test_read_miss_then_hit () =
  let eng, kernel, server = make () in
  Fserver.create_file_untimed server ~file:8 ~blocks:4;
  Kernel.spawn_idle_except kernel ~active:[ 4 ];
  Process.spawn eng (fun () ->
      let ctx = Kernel.ctx kernel 4 in
      Alcotest.(check bool) "first read" true
        (Fserver.read_block server ctx ~file:8 ~index:0);
      Alcotest.(check bool) "second read" true
        (Fserver.read_block server ctx ~file:8 ~index:0));
  Engine.run eng;
  Alcotest.(check int) "one miss, one hit" 1 (Fserver.hits server);
  Alcotest.(check int) "one fetch RPC" 1 (Fserver.fetch_rpcs server);
  Alcotest.(check int) "one block moved" 1 (Fserver.fetches server)

let test_read_past_eof () =
  let eng, kernel, server = make () in
  Fserver.create_file_untimed server ~file:8 ~blocks:4;
  Kernel.spawn_idle_except kernel ~active:[ 0 ];
  Process.spawn eng (fun () ->
      Alcotest.(check bool) "eof" false
        (Fserver.read_block server (Kernel.ctx kernel 0) ~file:8 ~index:9));
  Engine.run eng

let test_read_ahead_prefetches () =
  let eng, kernel, server = make ~read_ahead:3 () in
  Fserver.create_file_untimed server ~file:8 ~blocks:8;
  Kernel.spawn_idle_except kernel ~active:[ 0 ];
  Process.spawn eng (fun () ->
      let ctx = Kernel.ctx kernel 0 in
      for index = 0 to 7 do
        Alcotest.(check bool) "read ok" true
          (Fserver.read_block server ctx ~file:8 ~index)
      done);
  Engine.run eng;
  (* 8 sequential reads with read-ahead 3: two fetch RPCs of 4 blocks. *)
  Alcotest.(check int) "two fetch RPCs" 2 (Fserver.fetch_rpcs server);
  Alcotest.(check int) "all blocks moved once" 8 (Fserver.fetches server);
  Alcotest.(check int) "six hits" 6 (Fserver.hits server)

let test_combining_one_fetch_per_cluster () =
  let eng, kernel, server = make () in
  Fserver.create_file_untimed server ~file:8 ~blocks:1;
  let readers = [ 4; 5; 6; 7 ] in
  Kernel.spawn_idle_except kernel ~active:readers;
  List.iter
    (fun proc ->
      Process.spawn eng (fun () ->
          let ctx = Kernel.ctx kernel proc in
          Alcotest.(check bool) "read" true
            (Fserver.read_block server ctx ~file:8 ~index:0);
          Ctx.idle_loop ctx))
    readers;
  Engine.run eng;
  Alcotest.(check int) "one fetch for the whole cluster" 1
    (Fserver.fetch_rpcs server);
  Alcotest.(check int) "three combined hits" 3 (Fserver.hits server)

let test_rewrite_invalidates () =
  let eng, kernel, server = make () in
  (* file 8 is homed at cluster 0. *)
  Fserver.create_file_untimed server ~file:8 ~blocks:2;
  Kernel.spawn_idle_except kernel ~active:[ 0; 4 ];
  let refetched = ref false in
  (* The reader (cluster 1) caches a block, waits for the rewrite, then
     rereads. *)
  Process.spawn eng (fun () ->
      let reader = Kernel.ctx kernel 4 in
      ignore (Fserver.read_block server reader ~file:8 ~index:0);
      (* Park until well after the rewrite below, serving its invalidation
         RPC in the meantime. *)
      Ctx.interruptible_pause reader 60_000;
      let before = Fserver.fetch_rpcs server in
      Alcotest.(check bool) "reread" true
        (Fserver.read_block server reader ~file:8 ~index:0);
      refetched := Fserver.fetch_rpcs server = before + 1;
      Ctx.idle_loop reader);
  (* The home cluster rewrites the file after the reader cached it. *)
  Process.spawn eng (fun () ->
      let home_ctx = Kernel.ctx kernel 0 in
      Ctx.interruptible_pause home_ctx 20_000;
      Alcotest.(check bool) "rewrite ok" true
        (Fserver.rewrite_file server home_ctx ~file:8);
      Ctx.idle_loop home_ctx);
  Engine.run eng;
  Alcotest.(check int) "version bumped" 2 (Fserver.file_version_untimed server 8);
  Alcotest.(check bool) "blocks dropped" true
    (Fserver.invalidated_blocks server >= 1);
  Alcotest.(check bool) "next read refetched" true !refetched

let test_workload_grid_sane () =
  let config = { Workloads.File_read.default_config with passes = 2; p = 4 } in
  List.iter
    (fun (sharing, read_ahead) ->
      let r =
        Workloads.File_read.run ~config:{ config with sharing; read_ahead } ()
      in
      Alcotest.(check bool)
        (r.Workloads.File_read.summary.Workloads.Measure.label ^ " hit rate")
        true
        (r.Workloads.File_read.hit_rate >= 0.4
        && r.Workloads.File_read.hit_rate <= 1.0))
    Workloads.File_read.
      [
        (Private_files, 0);
        (Private_files, config.read_ahead);
        (Shared_file, 0);
        (Shared_file, config.read_ahead);
      ]

let test_read_ahead_cuts_fetch_rpcs () =
  let run read_ahead =
    Workloads.File_read.run
      ~config:
        { Workloads.File_read.default_config with read_ahead; p = 4 }
      ()
  in
  let r0 = run 0 and r3 = run 3 in
  Alcotest.(check bool) "read-ahead divides fetch RPCs" true
    (r3.Workloads.File_read.fetch_rpcs * 3
    < r0.Workloads.File_read.fetch_rpcs)

let suite =
  [
    Alcotest.test_case "open replicates and reports length" `Quick
      test_open_and_length;
    Alcotest.test_case "open missing file" `Quick test_open_missing_file;
    Alcotest.test_case "open/close counts" `Quick test_open_close_counts;
    Alcotest.test_case "read miss then hit" `Quick test_read_miss_then_hit;
    Alcotest.test_case "read past EOF" `Quick test_read_past_eof;
    Alcotest.test_case "read-ahead prefetches" `Quick test_read_ahead_prefetches;
    Alcotest.test_case "combining: one fetch per cluster" `Quick
      test_combining_one_fetch_per_cluster;
    Alcotest.test_case "rewrite invalidates caches" `Quick
      test_rewrite_invalidates;
    Alcotest.test_case "FS workload grid" `Slow test_workload_grid_sane;
    Alcotest.test_case "read-ahead cuts fetch RPCs" `Slow
      test_read_ahead_cuts_fetch_rpcs;
  ]
