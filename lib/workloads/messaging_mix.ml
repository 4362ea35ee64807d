(* Data-structure-design ablation (Section 2.5, experiment ABL8).

   The paper's lesson: process descriptors did double duty — family-tree
   links (destruction, tree-ordered) and message passing (arbitrary pairs,
   no order) — and "combining two structures with different locking
   characteristics into a single entity" caused concurrency-control
   problems. This workload mixes a message-passing storm with a destruction
   storm over the same processes and compares the shipped [Combined] layout
   (one reserve bit does both jobs) against the wished-for [Separate] one
   (the tree has its own tables and reserve bits).

   Expected: with the combined layout, senders and destroyers trip over
   each other's reservations; separating the structures removes almost all
   of that interference. *)

open Eventsim
open Hector
open Hkernel

type config = {
  cluster_size : int;
  senders : int; (* one per cluster index, sending from local processes *)
  destroyers : int;
  messages_per_sender : int;
  victims : int; (* processes destroyed during the storm *)
  layout : Procs.layout;
  seed : int;
}

let default_config =
  {
    cluster_size = 4;
    senders = 4;
    destroyers = 4;
    messages_per_sender = 60;
    victims = 16;
    layout = Procs.Combined;
    seed = 47;
  }

type result = {
  sends : int;
  send_retries : int;
  destroys : int;
  destroy_retries : int;
  send_summary : Measure.summary;
  destroy_summary : Measure.summary;
}

(* Process ids: a root, one long-lived "server" process per cluster
   (message targets), and the victims (children of the root, destroyed
   mid-storm). *)
let root = 1
let victim_pid i = 1000 + i

let run ?(cfg = Config.hector) ?(config = default_config) () =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let kernel =
    Kernel.create machine ~cluster_size:config.cluster_size ~seed:config.seed
  in
  let clustering = Kernel.clustering kernel in
  let procs = Procs.create ~layout:config.layout kernel in
  Procs.spawn_process_untimed procs ~pid:root ~parent:0;
  (* One server process homed in each cluster: pick pids congruent to the
     cluster id so cluster_of_pid places them correctly. *)
  let n_clusters = Clustering.n_clusters clustering in
  let server c =
    let rec find pid = if pid mod n_clusters = c then pid else find (pid + 1) in
    find (100 + (100 * c))
  in
  for c = 0 to n_clusters - 1 do
    Procs.spawn_process_untimed procs ~pid:(server c) ~parent:root
  done;
  (* Victims: children of the servers, scattered over clusters. *)
  for i = 0 to config.victims - 1 do
    Procs.spawn_process_untimed procs ~pid:(victim_pid i)
      ~parent:(server (i mod n_clusters))
  done;
  let send_stat = Stat.create "send" in
  let destroy_stat = Stat.create "destroy" in
  let rng = Rng.create config.seed in
  let active = ref [] in
  (* Senders: processor 0 of each of the first [senders] clusters, sending
     from their cluster's server to other clusters' servers. *)
  for s = 0 to min config.senders n_clusters - 1 do
    let proc = List.hd (Clustering.procs_of_cluster clustering s) in
    active := proc :: !active;
    let ctx = Kernel.ctx kernel proc in
    let my_rng = Rng.split rng in
    Process.spawn eng (fun () ->
        for _ = 1 to config.messages_per_sender do
          let dst = server (Rng.int my_rng n_clusters) in
          let t0 = Machine.now machine in
          ignore (Procs.send procs ctx ~src:(server s) ~dst);
          Stat.add send_stat (Machine.now machine - t0);
          Ctx.work ctx (200 + Rng.int my_rng 400)
        done;
        Ctx.idle_loop ctx)
  done;
  (* Destroyers: the second processor of each of the first [destroyers]
     clusters, killing the victims concurrently with the message storm. *)
  for d = 0 to min config.destroyers n_clusters - 1 do
    match Clustering.procs_of_cluster clustering d with
    | _ :: proc :: _ ->
      active := proc :: !active;
      let ctx = Kernel.ctx kernel proc in
      let my_rng = Rng.split rng in
      Process.spawn eng (fun () ->
          let rec kill i =
            if i < config.victims then begin
              let t0 = Machine.now machine in
              ignore (Procs.destroy procs ctx (victim_pid i));
              Stat.add destroy_stat (Machine.now machine - t0);
              Ctx.work ctx (100 + Rng.int my_rng 300);
              kill (i + min config.destroyers n_clusters)
            end
          in
          kill d;
          Ctx.idle_loop ctx)
    | _ -> ()
  done;
  Kernel.spawn_idle_except kernel ~active:!active;
  Engine.run eng;
  {
    sends = Procs.sends procs;
    send_retries = Procs.send_retries procs;
    destroys = Procs.destroys procs;
    destroy_retries = Procs.retries procs;
    send_summary = Measure.of_stat cfg ~label:"send" send_stat;
    destroy_summary = Measure.of_stat cfg ~label:"destroy" destroy_stat;
  }
