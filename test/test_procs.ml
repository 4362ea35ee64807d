(* Tests for process descriptors, the family tree, and destruction under
   both deadlock-management strategies. *)

open Eventsim
open Hector
open Hkernel

let make ?(cluster_size = 4) ?(strategy = Procs.Optimistic)
    ?(layout = Procs.Combined) ?(seed = 81) () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let kernel = Kernel.create machine ~cluster_size ~seed in
  let procs = Procs.create ~strategy ~layout kernel in
  (eng, kernel, procs)

let test_spawn_and_tree () =
  let _, _, procs = make () in
  Procs.spawn_process_untimed procs ~pid:1 ~parent:0;
  Procs.spawn_process_untimed procs ~pid:2 ~parent:1;
  Procs.spawn_process_untimed procs ~pid:3 ~parent:1;
  Alcotest.(check bool) "root alive" true (Procs.alive_untimed procs 1);
  Alcotest.(check (list int)) "children" [ 2; 3 ]
    (List.sort compare (Procs.children_untimed procs 1))

let test_spawn_validates () =
  let _, _, procs = make () in
  Alcotest.(check bool) "pid 0 rejected" true
    (match Procs.spawn_process_untimed procs ~pid:0 ~parent:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "unknown parent rejected" true
    (match Procs.spawn_process_untimed procs ~pid:5 ~parent:99 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_destroy_leaf () =
  let eng, kernel, procs = make () in
  Procs.spawn_process_untimed procs ~pid:1 ~parent:0;
  Procs.spawn_process_untimed procs ~pid:2 ~parent:1;
  Kernel.spawn_idle_except kernel ~active:[ 0 ];
  let ok = ref false in
  Process.spawn eng (fun () -> ok := Procs.destroy procs (Kernel.ctx kernel 0) 2);
  Engine.run eng;
  Alcotest.(check bool) "destroyed" true !ok;
  Alcotest.(check bool) "dead" false (Procs.alive_untimed procs 2);
  Alcotest.(check (list int)) "unlinked from parent" []
    (Procs.children_untimed procs 1);
  Alcotest.(check int) "counted" 1 (Procs.destroys procs)

let test_destroy_middle_reparents () =
  let eng, kernel, procs = make () in
  (* 1 -> 2 -> {3, 4}: destroying 2 must hand 3 and 4 to 1. *)
  Procs.spawn_process_untimed procs ~pid:1 ~parent:0;
  Procs.spawn_process_untimed procs ~pid:2 ~parent:1;
  Procs.spawn_process_untimed procs ~pid:3 ~parent:2;
  Procs.spawn_process_untimed procs ~pid:4 ~parent:2;
  Kernel.spawn_idle_except kernel ~active:[ 0 ];
  Process.spawn eng (fun () ->
      ignore (Procs.destroy procs (Kernel.ctx kernel 0) 2));
  Engine.run eng;
  Alcotest.(check bool) "2 gone" false (Procs.alive_untimed procs 2);
  Alcotest.(check (list int)) "grandchildren adopted" [ 3; 4 ]
    (List.sort compare (Procs.children_untimed procs 1))

let test_destroy_missing_pid () =
  let eng, kernel, procs = make () in
  Procs.spawn_process_untimed procs ~pid:1 ~parent:0;
  Kernel.spawn_idle_except kernel ~active:[ 0 ];
  let r = ref true in
  Process.spawn eng (fun () -> r := Procs.destroy procs (Kernel.ctx kernel 0) 42);
  Engine.run eng;
  Alcotest.(check bool) "returns false" false !r

let test_double_destroy_one_winner () =
  let eng, kernel, procs = make () in
  Procs.spawn_process_untimed procs ~pid:1 ~parent:0;
  Procs.spawn_process_untimed procs ~pid:2 ~parent:1;
  Kernel.spawn_idle_except kernel ~active:[ 0; 1 ];
  let wins = ref 0 in
  for p = 0 to 1 do
    Process.spawn eng (fun () ->
        if Procs.destroy procs (Kernel.ctx kernel p) 2 then incr wins)
  done;
  Engine.run eng;
  Alcotest.(check int) "exactly one destroyer wins" 1 !wins;
  Alcotest.(check bool) "dead" false (Procs.alive_untimed procs 2)

(* A full storm must leave a consistent tree regardless of strategy. *)
let storm strategy =
  let eng, kernel, procs = make ~strategy () in
  Procs.spawn_process_untimed procs ~pid:1 ~parent:0;
  let children = List.init 8 (fun i -> 10 + i) in
  List.iter (fun pid -> Procs.spawn_process_untimed procs ~pid ~parent:1) children;
  let destroyers = [ 0; 1; 2; 3 ] in
  Kernel.spawn_idle_except kernel ~active:destroyers;
  List.iteri
    (fun i proc ->
      Process.spawn eng (fun () ->
          let ctx = Kernel.ctx kernel proc in
          (* Each destroyer takes every other child (overlapping targets to
             force lost races too). *)
          List.iteri
            (fun j pid -> if j mod 2 = i mod 2 then ignore (Procs.destroy procs ctx pid))
            children;
          Ctx.idle_loop ctx))
    destroyers;
  Engine.run eng;
  List.iter
    (fun pid ->
      Alcotest.(check bool)
        (Printf.sprintf "pid %d destroyed" pid)
        false
        (Procs.alive_untimed procs pid))
    children;
  Alcotest.(check (list int)) "root has no children left" []
    (Procs.children_untimed procs 1);
  procs

let test_storm_optimistic () =
  let procs = storm Procs.Optimistic in
  Alcotest.(check int) "no revalidations when optimistic" 0
    (Procs.revalidations procs)

let test_storm_pessimistic () =
  let procs = storm Procs.Pessimistic in
  Alcotest.(check bool) "pessimistic pays revalidations" true
    (Procs.revalidations procs > 0)

let test_retries_happen_under_contention () =
  (* Siblings on different clusters dying simultaneously contend on the
     parent's reservation: the paper's "retries are common". *)
  let eng, kernel, procs = make ~cluster_size:2 () in
  Procs.spawn_process_untimed procs ~pid:1 ~parent:0;
  let children = List.init 12 (fun i -> 20 + i) in
  List.iter (fun pid -> Procs.spawn_process_untimed procs ~pid ~parent:1) children;
  let destroyers = [ 0; 1; 2; 3; 10; 11 ] in
  Kernel.spawn_idle_except kernel ~active:destroyers;
  List.iteri
    (fun i proc ->
      Process.spawn eng (fun () ->
          let ctx = Kernel.ctx kernel proc in
          List.iteri
            (fun j pid ->
              if j mod List.length destroyers = i then
                ignore (Procs.destroy procs ctx pid))
            children;
          (* Keep serving unlink/reparent RPCs after finishing. *)
          Ctx.idle_loop ctx))
    destroyers;
  Engine.run eng;
  Alcotest.(check int) "all destroyed" 12 (Procs.destroys procs);
  Alcotest.(check bool) "retries occurred" true (Procs.retries procs > 0)

let test_send_local_and_remote () =
  let eng, kernel, procs = make () in
  Procs.spawn_process_untimed procs ~pid:1 ~parent:0;
  (* pid 4 lives in cluster 0 (4 mod 4), pid 5 in cluster 1. *)
  Procs.spawn_process_untimed procs ~pid:4 ~parent:1;
  Procs.spawn_process_untimed procs ~pid:5 ~parent:1;
  Kernel.spawn_idle_except kernel ~active:[ 0 ];
  Process.spawn eng (fun () ->
      let ctx = Kernel.ctx kernel 0 in
      Alcotest.(check bool) "local send" true (Procs.send procs ctx ~src:4 ~dst:4);
      Alcotest.(check bool) "remote send" true (Procs.send procs ctx ~src:4 ~dst:5);
      Alcotest.(check bool) "to dead process" false
        (Procs.send procs ctx ~src:4 ~dst:99));
  Engine.run eng;
  Alcotest.(check int) "self message arrived" 1 (Procs.mailbox_untimed procs 4);
  Alcotest.(check int) "remote message arrived" 1 (Procs.mailbox_untimed procs 5);
  Alcotest.(check int) "sends counted" 2 (Procs.sends procs)

let test_send_requires_local_src () =
  let eng, kernel, procs = make () in
  Procs.spawn_process_untimed procs ~pid:1 ~parent:0;
  Procs.spawn_process_untimed procs ~pid:5 ~parent:1;
  let raised = ref false in
  Process.spawn eng (fun () ->
      let ctx = Kernel.ctx kernel 0 in
      try ignore (Procs.send procs ctx ~src:5 ~dst:5)
      with Invalid_argument _ -> raised := true);
  Engine.run eng;
  Alcotest.(check bool) "rejected" true !raised

let test_separate_layout_tree_ops () =
  let eng, kernel, procs = make ~layout:Procs.Separate () in
  Procs.spawn_process_untimed procs ~pid:1 ~parent:0;
  Procs.spawn_process_untimed procs ~pid:2 ~parent:1;
  Procs.spawn_process_untimed procs ~pid:3 ~parent:2;
  Kernel.spawn_idle_except kernel ~active:[ 0 ];
  Process.spawn eng (fun () ->
      ignore (Procs.destroy procs (Kernel.ctx kernel 0) 2));
  Engine.run eng;
  Alcotest.(check bool) "dead" false (Procs.alive_untimed procs 2);
  Alcotest.(check (list int)) "grandchild adopted" [ 3 ]
    (Procs.children_untimed procs 1)

let suite =
  [
    Alcotest.test_case "spawn and family tree" `Quick test_spawn_and_tree;
    Alcotest.test_case "spawn validates arguments" `Quick test_spawn_validates;
    Alcotest.test_case "destroy a leaf" `Quick test_destroy_leaf;
    Alcotest.test_case "destroying a middle node reparents" `Quick
      test_destroy_middle_reparents;
    Alcotest.test_case "destroy a missing pid" `Quick test_destroy_missing_pid;
    Alcotest.test_case "double destroy has one winner" `Quick
      test_double_destroy_one_winner;
    Alcotest.test_case "storm, optimistic strategy" `Quick test_storm_optimistic;
    Alcotest.test_case "storm, pessimistic strategy" `Quick
      test_storm_pessimistic;
    Alcotest.test_case "contention causes retries" `Quick
      test_retries_happen_under_contention;
    Alcotest.test_case "message passing, local and remote" `Quick
      test_send_local_and_remote;
    Alcotest.test_case "send requires a local source" `Quick
      test_send_requires_local_src;
    Alcotest.test_case "separate-tree layout destroys correctly" `Quick
      test_separate_layout_tree_ops;
  ]
