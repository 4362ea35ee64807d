(* Program destruction storm (Section 2.5, the RETRY experiment).

   A parallel program is a root process with children spread across the
   clusters. All of its processes are destroyed at approximately the same
   time by different processors, so the parent descriptor's reservation is
   hotly contended and the deadlock-management protocol retries often —
   "independent of the strategy chosen". The experiment compares the
   optimistic and pessimistic strategies on the same storm: total time,
   retries, and (for the pessimistic one) revalidations. *)

open Eventsim
open Hector
open Hkernel

type config = {
  n_programs : int; (* storms run back-to-back *)
  children : int; (* processes per program, one destroyer each *)
  cluster_size : int;
  strategy : Procs.strategy;
  seed : int;
}

let default_config =
  {
    n_programs = 12;
    children = 8;
    cluster_size = 4;
    strategy = Procs.Optimistic;
    seed = 21;
  }

type result = {
  destroy_summary : Measure.summary;
  destroys : int;
  retries : int;
  revalidations : int;
  lost_races : int;
  total_us : float;
}

(* Pids: program g has root 1000*g+100 and children 1000*g+100+1..children.
   Consecutive pids land on consecutive clusters (pid mod n_clusters). *)
let root_pid g = (1000 * g) + 100
let child_pid g i = root_pid g + 1 + i

let run ?(cfg = Config.hector) ?(config = default_config) () =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let kernel =
    Kernel.create machine ~cluster_size:config.cluster_size ~seed:config.seed
  in
  let procs = Procs.create ~strategy:config.strategy kernel in
  for g = 0 to config.n_programs - 1 do
    Procs.spawn_process_untimed procs ~pid:(root_pid g) ~parent:0;
    for i = 0 to config.children - 1 do
      Procs.spawn_process_untimed procs ~pid:(child_pid g i)
        ~parent:(root_pid g)
    done
  done;
  let destroyers = min config.children (Machine.n_procs machine) in
  let active = List.init destroyers (fun p -> p) in
  Kernel.spawn_idle_except kernel ~active;
  let stat = Stat.create "destroy" in
  let barrier = Barrier.create ~parties:destroyers in
  List.iter
    (fun proc ->
      let ctx = Kernel.ctx kernel proc in
      Process.spawn eng (fun () ->
          for g = 0 to config.n_programs - 1 do
            (* Every destroyer hits the same program at the same time. *)
            Barrier.wait barrier ctx;
            let rec my_children i acc =
              if i >= config.children then acc
              else
                my_children (i + destroyers) (child_pid g i :: acc)
            in
            List.iter
              (fun pid ->
                let t0 = Machine.now machine in
                ignore (Procs.destroy procs ctx pid);
                Stat.add stat (Machine.now machine - t0))
              (my_children proc []);
            Barrier.wait barrier ctx;
            (* One processor finishes the root off. *)
            if proc = 0 then ignore (Procs.destroy procs ctx (root_pid g))
          done;
          (* Finished workers keep serving incoming RPCs. *)
          Ctx.idle_loop ctx))
    active;
  Engine.run eng;
  {
    destroy_summary =
      Measure.of_stat cfg ~label:(Procs.strategy_name config.strategy) stat;
    destroys = Procs.destroys procs;
    retries = Procs.retries procs;
    revalidations = Procs.revalidations procs;
    lost_races = Procs.lost_races procs;
    total_us = Config.us_of_cycles cfg (Engine.now eng);
  }
