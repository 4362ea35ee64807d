(* File-server read stress (experiment FS, Section 5.1).

   [p] processes sequentially read files through the clustered file server:
   either private files (concurrent independent requests) or one hot shared
   file (concurrent read-shared requests). Reports per-read latency, cache
   hit rate and home-fetch traffic, with and without read-ahead — showing
   the paper's server-side claim: the same clustering + hybrid-locking
   machinery gives the file system its concurrency too. *)

open Eventsim
open Hector
open Hkernel

type sharing = Private_files | Shared_file

let sharing_name = function
  | Private_files -> "private"
  | Shared_file -> "shared"

type config = {
  p : int;
  blocks_per_file : int;
  passes : int; (* sequential passes over the file(s) *)
  cluster_size : int;
  read_ahead : int;
  sharing : sharing;
  seed : int;
}

let default_config =
  {
    p = 8;
    blocks_per_file = 24;
    passes = 2;
    cluster_size = 4;
    read_ahead = 3;
    sharing = Private_files;
    seed = 61;
  }

type result = {
  summary : Measure.summary;
  hit_rate : float;
  fetch_rpcs : int;
}

(* Private file ids are chosen so each lands at its reader's home cluster;
   the shared file lives at cluster 0. *)
let shared_file = 4000

let run ?(cfg = Config.hector) ?(config = default_config) () =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let kernel =
    Kernel.create machine ~cluster_size:config.cluster_size ~seed:config.seed
  in
  let clustering = Kernel.clustering kernel in
  let n_clusters = Clustering.n_clusters clustering in
  let server = Fserver.create ~read_ahead:config.read_ahead kernel in
  let private_file proc =
    (* A file homed in the reader's own cluster. *)
    let c = Clustering.cluster_of_proc clustering proc in
    let rec find f = if f mod n_clusters = c then f else find (f + 1) in
    find (5000 + (100 * proc))
  in
  (match config.sharing with
  | Shared_file ->
    Fserver.create_file_untimed server ~file:shared_file
      ~blocks:config.blocks_per_file
  | Private_files ->
    for proc = 0 to config.p - 1 do
      Fserver.create_file_untimed server ~file:(private_file proc)
        ~blocks:config.blocks_per_file
    done);
  let active = List.init config.p (fun i -> i) in
  Kernel.spawn_idle_except kernel ~active;
  let stat = Stat.create "read" in
  let rng = Rng.create config.seed in
  List.iter
    (fun proc ->
      let ctx = Kernel.ctx kernel proc in
      let my_rng = Rng.split rng in
      let file =
        match config.sharing with
        | Shared_file -> shared_file
        | Private_files -> private_file proc
      in
      Process.spawn eng (fun () ->
          (match Fserver.open_file server ctx ~file with
          | Some _ -> ()
          | None -> failwith "file_read: open failed");
          for _pass = 1 to config.passes do
            for index = 0 to config.blocks_per_file - 1 do
              Ctx.work ctx (40 + Rng.int my_rng 80);
              let t0 = Machine.now machine in
              if not (Fserver.read_block server ctx ~file ~index) then
                failwith "file_read: read failed";
              Stat.add stat (Machine.now machine - t0)
            done
          done;
          Fserver.close_file server ctx ~file;
          Ctx.idle_loop ctx))
    active;
  Engine.run eng;
  {
    summary =
      Measure.of_stat cfg
        ~label:
          (Printf.sprintf "%s/ra=%d" (sharing_name config.sharing)
             config.read_ahead)
        stat;
    hit_rate = Fserver.hit_rate server;
    fetch_rpcs = Fserver.fetch_rpcs server;
  }
