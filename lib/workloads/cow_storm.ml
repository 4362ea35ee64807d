(* Copy-on-write fault storm (experiment COW, Sections 2.3 / 2.5).

   An SPMD program's processes write simultaneously to the same
   copy-on-write pages: every writer must break the sharing, so the shared
   descriptor's share count is a brief cross-cluster hot spot and the last
   unshare removes it. The paper uses this as the example where retries
   are needed "independent of the strategy chosen", and where the
   pessimistic strategy "would likely find that its copy of the page had
   disappeared by the time it completed its remote operation". *)

open Eventsim
open Hector
open Hkernel

type config = {
  p : int;
  n_pages : int; (* COW pages broken per round *)
  rounds : int;
  cluster_size : int;
  strategy : Procs.strategy;
  seed : int;
}

let default_config =
  {
    p = 8;
    n_pages = 4;
    rounds = 10;
    cluster_size = 4;
    strategy = Procs.Optimistic;
    seed = 59;
  }

type result = {
  summary : Measure.summary;
  broke : int;
  found_gone : int; (* pessimistic: shared page vanished before we broke it *)
  retries : int;
}

let shared_page ~round ~j = 600_000 + (100 * round) + j
let private_page ~proc ~round ~j = 650_000 + (10_000 * proc) + (100 * round) + j

let run ?(cfg = Config.hector) ?(config = default_config) () =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let kernel =
    Kernel.create machine ~cluster_size:config.cluster_size ~seed:config.seed
  in
  (* Shared COW pages, mastered at cluster 0, pre-shared by all p
     writers. *)
  for round = 0 to config.rounds - 1 do
    for j = 0 to config.n_pages - 1 do
      let vpage = shared_page ~round ~j in
      Kernel.populate_page kernel ~vpage ~master_cluster:0 ~frame:vpage;
      match Kernel.find_descriptor_untimed kernel ~cluster:0 ~vpage with
      | Some e -> Machine.poke machine e.Khash.payload.Page.refcount config.p
      | None -> assert false
    done
  done;
  let active = List.init config.p (fun i -> i) in
  Kernel.spawn_idle_except kernel ~active;
  let stat = Stat.create "cow" in
  let broke = ref 0 and gone = ref 0 in
  let barrier = Barrier.create ~parties:config.p in
  List.iter
    (fun proc ->
      let ctx = Kernel.ctx kernel proc in
      Process.spawn eng (fun () ->
          for round = 0 to config.rounds - 1 do
            (* Everyone hits the same COW pages at once. *)
            Barrier.wait barrier ctx;
            for j = 0 to config.n_pages - 1 do
              let t0 = Machine.now machine in
              (match
                 Memmgr.cow_fault kernel ctx ~strategy:config.strategy
                   ~vpage:(shared_page ~round ~j)
                   ~private_vpage:(private_page ~proc ~round ~j)
               with
              | Memmgr.Broke -> incr broke
              | Memmgr.Already_gone -> incr gone);
              Stat.add stat (Machine.now machine - t0)
            done
          done;
          Ctx.idle_loop ctx))
    active;
  Engine.run eng;
  {
    summary =
      Measure.of_stat cfg ~label:(Procs.strategy_name config.strategy) stat;
    broke = !broke;
    found_gone = !gone;
    retries = Kernel.retries kernel;
  }
