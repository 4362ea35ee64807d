(* Tests for the copy-on-write fault path (Sections 2.3 / 2.5). *)

open Eventsim
open Hector
open Hkernel

let make ?(cluster_size = 4) ?(seed = 91) () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let kernel = Kernel.create machine ~cluster_size ~seed in
  (eng, machine, kernel)

let populate_shared kernel ~vpage ~shares =
  Kernel.populate_page kernel ~vpage ~master_cluster:0 ~frame:vpage;
  match Kernel.find_descriptor_untimed kernel ~cluster:0 ~vpage with
  | Some e -> Cell.poke e.Khash.payload.Page.refcount shares
  | None -> assert false

let shared_exists kernel ~vpage =
  Kernel.find_descriptor_untimed kernel ~cluster:0 ~vpage <> None

let test_single_break () =
  let eng, _, kernel = make () in
  populate_shared kernel ~vpage:500 ~shares:2;
  Kernel.spawn_idle_except kernel ~active:[ 4 ];
  let got = ref None in
  Process.spawn eng (fun () ->
      got :=
        Some
          (Memmgr.cow_fault kernel (Kernel.ctx kernel 4)
             ~strategy:Procs.Optimistic ~vpage:500 ~private_vpage:501));
  Engine.run eng;
  Alcotest.(check bool) "broke" true (!got = Some Memmgr.Broke);
  (* One share left; shared page survives. *)
  Alcotest.(check bool) "shared page remains" true (shared_exists kernel ~vpage:500);
  (match Kernel.find_descriptor_untimed kernel ~cluster:0 ~vpage:500 with
  | Some e ->
    Alcotest.(check int) "share count dropped" 1
      (Cell.peek e.Khash.payload.Page.refcount)
  | None -> Alcotest.fail "gone");
  (* The private page exists in the writer's cluster, valid for write. *)
  match Kernel.find_descriptor_untimed kernel ~cluster:1 ~vpage:501 with
  | Some e ->
    Alcotest.(check int) "private valid-write" Page.st_valid_write
      (Cell.peek e.Khash.payload.Page.vstate)
  | None -> Alcotest.fail "no private page"

let test_last_break_removes_shared () =
  let eng, _, kernel = make () in
  populate_shared kernel ~vpage:510 ~shares:1;
  Kernel.spawn_idle_except kernel ~active:[ 0 ];
  Process.spawn eng (fun () ->
      ignore
        (Memmgr.cow_fault kernel (Kernel.ctx kernel 0)
           ~strategy:Procs.Optimistic ~vpage:510 ~private_vpage:511));
  Engine.run eng;
  Alcotest.(check bool) "shared page removed with last share" false
    (shared_exists kernel ~vpage:510)

let test_concurrent_breaks_all_succeed () =
  List.iter
    (fun strategy ->
      let eng, _, kernel = make () in
      let writers = [ 0; 4; 8; 12 ] in
      populate_shared kernel ~vpage:520 ~shares:(List.length writers);
      Kernel.spawn_idle_except kernel ~active:writers;
      let outcomes = ref [] in
      List.iteri
        (fun i proc ->
          Process.spawn eng (fun () ->
              let ctx = Kernel.ctx kernel proc in
              let r =
                Memmgr.cow_fault kernel ctx ~strategy ~vpage:520
                  ~private_vpage:(530 + i)
              in
              outcomes := r :: !outcomes;
              Ctx.idle_loop ctx))
        writers;
      Engine.run eng;
      Alcotest.(check int)
        (Procs.strategy_name strategy ^ ": all broke")
        4
        (List.length !outcomes);
      Alcotest.(check bool)
        (Procs.strategy_name strategy ^ ": shared page gone")
        false (shared_exists kernel ~vpage:520))
    [ Procs.Optimistic; Procs.Pessimistic ]

let suite =
  [
    Alcotest.test_case "single COW break" `Quick test_single_break;
    Alcotest.test_case "last break removes the shared page" `Quick
      test_last_break_removes_shared;
    Alcotest.test_case "concurrent breaks all succeed" `Quick
      test_concurrent_breaks_all_succeed;
  ]
