(* Combining-tree ablation (experiment ABL2).

   All [p] processors read-fault the same cold page (mastered at cluster 0,
   no replicas anywhere else) at the same instant — the bursty SPMD access
   pattern of Section 2.2. With the combining tree, the first misser per
   cluster inserts a reserved placeholder and goes remote while its
   cluster-mates wait on the reserve bit: the master absorbs one RPC per
   cluster. Without it, every misser goes remote itself. *)

open Eventsim
open Hector
open Hkernel

type config = {
  p : int;
  cluster_size : int;
  storms : int; (* repetitions, each on a fresh page *)
  seed : int;
}

let default_config = { p = 16; cluster_size = 4; storms = 20; seed = 23 }

type result = {
  summary : Measure.summary;
  master_rpcs_per_storm : float;
  replications_per_storm : float;
}

let vpage_of storm = 900_000 + storm

let run ?(cfg = Config.hector) ?(config = default_config) ~combining () =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let kernel =
    Kernel.create machine ~cluster_size:config.cluster_size ~seed:config.seed
  in
  for s = 0 to config.storms - 1 do
    Kernel.populate_page kernel ~vpage:(vpage_of s) ~master_cluster:0
      ~frame:(vpage_of s)
  done;
  let active = List.init config.p (fun p -> p) in
  Kernel.spawn_idle_except kernel ~active;
  let stat = Stat.create (if combining then "combining" else "direct") in
  let barrier = Barrier.create ~parties:config.p in
  List.iter
    (fun proc ->
      let ctx = Kernel.ctx kernel proc in
      Process.spawn eng (fun () ->
          for s = 0 to config.storms - 1 do
            (* Everyone hits the cold page at the same time. *)
            Barrier.wait barrier ctx;
            let t0 = Machine.now machine in
            if combining then
              Memmgr.fault kernel ctx ~vpage:(vpage_of s) ~write:false
            else Memmgr.read_fault_no_combining kernel ctx ~vpage:(vpage_of s);
            Stat.add stat (Machine.now machine - t0);
            Barrier.wait barrier ctx
          done;
          (* Finished workers keep serving incoming RPCs. *)
          Ctx.idle_loop ctx))
    active;
  Engine.run eng;
  let storms = float_of_int config.storms in
  {
    summary =
      Measure.of_stat cfg
        ~label:(if combining then "combining" else "no-combining")
        stat;
    master_rpcs_per_storm = float_of_int (Kernel.fault_rpcs kernel) /. storms;
    replications_per_storm =
      float_of_int (Kernel.replications kernel) /. storms;
  }
