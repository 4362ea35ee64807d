(* Independent page-fault test (Figure 6a / Figures 7a and 7c).

   [p] processes repeatedly fault on per-process private pages of local
   memory. The faults touch different physical resources, so the only lock
   contention is "unnecessary" conflicts inside the kernel — chiefly the
   cluster's coarse page-descriptor lock. Each iteration faults the page in
   (measured) and unmaps it again (not measured), keeping every fault a
   soft fault. *)

open Eventsim
open Hector
open Locks
open Hkernel

type config = {
  p : int;
  iters : int; (* measured faults per processor; one private page each *)
  cluster_size : int;
  lock_algo : Lock.algo;
  nbins : int;
  think_us : float; (* application work between faults (jittered) *)
  seed : int;
}

let default_config =
  {
    p = 16;
    iters = 120;
    cluster_size = 16;
    lock_algo = Lock.Mcs_h2;
    nbins = 512;
    think_us = 30.0;
    seed = 11;
  }

type result = {
  summary : Measure.summary;
  faults : int;
  retries : int;
  rpcs : int;
  reserve_conflicts : int;
}

let vpage_of ~proc ~j = 100_000 + (1000 * proc) + j

let run ?(cfg = Config.hector) ?(config = default_config) () =
  if config.p < 1 || config.p > Config.n_procs cfg then
    invalid_arg
      (Printf.sprintf "Independent_faults.run: p must be in 1..%d (got %d)"
         (Config.n_procs cfg) config.p);
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let kernel =
    Kernel.create machine ~cluster_size:config.cluster_size
      ~lock_algo:config.lock_algo ~nbins:config.nbins ~seed:config.seed
  in
  (* Each processor walks its own private region of local memory, faulting
     every page exactly once — each fault a fresh soft fault, as in the
     paper's test. *)
  let active = List.init config.p (fun p -> p) in
  List.iter
    (fun proc ->
      for j = 0 to config.iters - 1 do
        Kernel.populate_page kernel ~vpage:(vpage_of ~proc ~j)
          ~master_cluster:(Kernel.cluster_of_proc kernel proc)
          ~frame:(vpage_of ~proc ~j)
      done)
    active;
  Kernel.spawn_idle_except kernel ~active;
  let stat = Stat.create "independent" in
  List.iter
    (fun proc ->
      let ctx = Kernel.ctx kernel proc in
      Process.spawn eng (fun () ->
          let think = Config.cycles_of_us cfg config.think_us in
          for i = 0 to config.iters - 1 do
            (* The application touches the freshly mapped page and computes
               for a while before the next fault — local work. *)
            if think > 0 then begin
              let d = (think / 2) + Rng.int (Ctx.rng ctx) (max 1 think) in
              Ctx.work ctx d
            end;
            let vpage = vpage_of ~proc ~j:i in
            let t0 = Machine.now machine in
            Memmgr.fault kernel ctx ~vpage ~write:true;
            Stat.add stat (Machine.now machine - t0)
          done;
          (* Finished workers keep serving incoming RPCs. *)
          Ctx.idle_loop ctx))
    active;
  Engine.run eng;
  let reserve_conflicts =
    Array.fold_left
      (fun acc c -> acc + Khash.reserve_conflicts c.Kernel.page_hash)
      0
      (Array.init
         (Clustering.n_clusters (Kernel.clustering kernel))
         (fun i -> Kernel.cluster kernel i))
  in
  {
    summary =
      Measure.of_stat cfg ~label:(Lock.algo_name config.lock_algo) stat;
    faults = Kernel.faults kernel;
    retries = Kernel.retries kernel;
    rpcs = Rpc.calls (Kernel.rpc kernel);
    reserve_conflicts;
  }
