(* A file server built from the paper's techniques (Section 5.1: "We have
   applied the techniques described in this paper to several of our system
   servers, in particular the file system, and have found the benefits of
   reduced latency and increased concurrency ... apply.").

   Structure, all per cluster (hierarchical clustering):
   - an open-file table: a hybrid-locked hash of file descriptors,
     replicated on demand from the file's home cluster, each replica with
     its own open count;
   - a block cache: a hybrid-locked hash of cached file blocks. A miss
     inserts a reserved placeholder (combining: one fetch per cluster no
     matter how many local readers want the block) and fetches the data by
     RPC from the file's home cluster, optionally with read-ahead.

   File data is read-mostly (a 1994 file cache's job is mapping cached
   executables and libraries); a rewrite bumps the home version and
   broadcasts invalidations to the caching clusters — the page directory's
   write path in a simpler, version-based form. *)

open Hector

(* Cached-block payload. *)
type block = {
  b_file : int;
  b_index : int;
  version : Cell.t; (* 0 = placeholder, not yet filled *)
}

(* Open-file descriptor (per-cluster replica). *)
type ofile = {
  f_file : int;
  mutable f_blocks : int; (* file length, filled on first open *)
  opens : Cell.t; (* per-cluster open count *)
}

(* Home-side file metadata. *)
type home_file = {
  h_blocks : int;
  h_version : Cell.t;
  h_caching : Cell.t; (* bitmask of clusters caching blocks *)
}

type t = {
  kernel : Kernel.t;
  block_caches : block Khash.t array; (* per cluster *)
  open_tables : ofile Khash.t array; (* per cluster *)
  homes : (int, home_file) Hashtbl.t; (* file -> home metadata *)
  read_ahead : int; (* extra blocks fetched per miss *)
  mutable reads : int;
  mutable hits : int;
  mutable fetches : int; (* blocks transferred from homes *)
  mutable fetch_rpcs : int;
  mutable invalidated_blocks : int;
}

let block_key ~file ~index = (file * 10_000) + index

let create ?(read_ahead = 0) kernel =
  let clustering = Kernel.clustering kernel in
  let machine = Kernel.machine kernel in
  let mk nbins vname () =
    Array.init (Clustering.n_clusters clustering) (fun c ->
        Khash.create machine ~nbins ~vname
          ~lock_algo:(Kernel.lock_algo kernel)
          ~homes:(Clustering.procs_of_cluster clustering c))
  in
  {
    kernel;
    block_caches = mk 128 "fsrv.blocks" ();
    open_tables = mk 32 "fsrv.open" ();
    homes = Hashtbl.create 16;
    read_ahead;
    reads = 0;
    hits = 0;
    fetches = 0;
    fetch_rpcs = 0;
    invalidated_blocks = 0;
  }

let reads t = t.reads
let hits t = t.hits
let fetches t = t.fetches
let fetch_rpcs t = t.fetch_rpcs
let invalidated_blocks t = t.invalidated_blocks

let hit_rate t =
  if t.reads = 0 then 0.0 else float_of_int t.hits /. float_of_int t.reads

let home_cluster t file =
  file mod Clustering.n_clusters (Kernel.clustering t.kernel)

(* Untimed setup: create a file of [blocks] blocks at its home cluster. *)
let create_file_untimed t ~file ~blocks =
  if Hashtbl.mem t.homes file then invalid_arg "Fserver: file exists";
  let clustering = Kernel.clustering t.kernel in
  let home = home_cluster t file in
  let cell v =
    Machine.alloc (Kernel.machine t.kernel)
      ~home:(Clustering.home_in_cluster clustering ~cluster:home ~salt:file)
      v
  in
  Hashtbl.replace t.homes file
    { h_blocks = blocks; h_version = cell 1; h_caching = cell 0 }

let file_exists t file = Hashtbl.mem t.homes file

let file_version_untimed t file =
  match Hashtbl.find_opt t.homes file with
  | None -> 0
  | Some h -> Cell.peek h.h_version

let my_cluster t ctx =
  Clustering.cluster_of_proc (Kernel.clustering t.kernel) (Ctx.proc ctx)

let rpc_to_cluster t ctx cluster service =
  let target =
    Clustering.rpc_target (Kernel.clustering t.kernel) ~from:(Ctx.proc ctx)
      ~target_cluster:cluster
  in
  Rpc.call (Kernel.rpc t.kernel) ctx ~target service

(* -- home-side services (never wait) ---------------------------------------- *)

(* Register the requester as a caching cluster; reply with the file length
   (version * 1e6 + blocks, packed). *)
let home_open_service t ~file ~req_cluster tctx =
  match Hashtbl.find_opt t.homes file with
  | None -> Rpc.Absent
  | Some h ->
    Kernel.kernel_work t.kernel tctx 80 (* inode lookup *);
    let caching = Ctx.read tctx h.h_caching in
    Ctx.write tctx h.h_caching (Page.add_sharer caching req_cluster);
    let v = Ctx.read tctx h.h_version in
    Rpc.Ok ((v * 1_000_000) + h.h_blocks)

(* Transfer up to [count] blocks starting at [index] to [req_cluster],
   registering it as a caching cluster; replies with the number
   transferred (version * 1e6 + n, packed). *)
let home_fetch_service t ~file ~index ~count ~req_cluster tctx =
  match Hashtbl.find_opt t.homes file with
  | None -> Rpc.Absent
  | Some h ->
    if index >= h.h_blocks then Rpc.Absent
    else begin
      let n = min count (h.h_blocks - index) in
      (* Per-block copy out of the home's cache. *)
      Kernel.kernel_work t.kernel tctx (60 + (180 * n));
      let caching = Ctx.read tctx h.h_caching in
      if not (Page.has_sharer caching req_cluster) then
        Ctx.write tctx h.h_caching (Page.add_sharer caching req_cluster);
      let v = Ctx.read tctx h.h_version in
      Rpc.Ok ((v * 1_000_000) + n)
    end

(* Drop this cluster's cached blocks of [file]. Fails with a deadlock
   indication if any of them is reserved (a fetch in flight). *)
let invalidate_file_service t ~file tctx =
  let c = my_cluster t tctx in
  let cache = t.block_caches.(c) in
  let mine = ref [] in
  Khash.iter_untimed cache (fun e ->
      if e.Khash.payload.b_file = file then mine := e :: !mine);
  if
    List.exists
      (fun e -> Locks.Reserve.write_reserved e.Khash.status)
      !mine
  then Rpc.Would_deadlock
  else begin
    List.iter
      (fun (e : block Khash.elem) ->
        ignore (Khash.remove cache tctx e.Khash.key);
        t.invalidated_blocks <- t.invalidated_blocks + 1)
      !mine;
    Rpc.Ok (List.length !mine)
  end

(* -- client operations -------------------------------------------------------- *)

(* Open a file: find or replicate the descriptor in the local open table
   and count the open. Returns the length in blocks, or None if the file
   does not exist. *)
let open_file t ctx ~file =
  let c = my_cluster t ctx in
  let table = t.open_tables.(c) in
  match
    Khash.reserve_or_insert table ctx file ~make:(fun home ->
        {
          f_file = file;
          f_blocks = 0;
          opens = Machine.alloc (Kernel.machine t.kernel) ~home 0;
        })
  with
  | `Reserved e ->
    let f = e.Khash.payload in
    let n = Ctx.read ctx f.opens in
    Ctx.write ctx f.opens (n + 1);
    Khash.release_reserve ctx e;
    Some f.f_blocks
  | `Inserted e ->
    (* First open in this cluster: replicate the descriptor from home. *)
    let f = e.Khash.payload in
    let outcome =
      if home_cluster t file = c then home_open_service t ~file ~req_cluster:c ctx
      else
        rpc_to_cluster t ctx (home_cluster t file)
          (home_open_service t ~file ~req_cluster:c)
    in
    (match outcome with
    | Rpc.Ok packed ->
      f.f_blocks <- packed mod 1_000_000;
      Ctx.write ctx f.opens 1;
      Khash.release_reserve ctx e;
      Some f.f_blocks
    | Rpc.Absent | Rpc.Would_deadlock | Rpc.Gave_up | Rpc.Dead_target ->
      (* No such file: drop the placeholder. *)
      ignore (Khash.remove table ctx file);
      Khash.release_reserve ctx e;
      None)

let close_file t ctx ~file =
  let c = my_cluster t ctx in
  match Khash.reserve_existing t.open_tables.(c) ctx file with
  | None -> ()
  | Some e ->
    let f = e.Khash.payload in
    let n = Ctx.read ctx f.opens in
    Ctx.write ctx f.opens (max 0 (n - 1));
    Khash.release_reserve ctx e

let open_count_untimed t ~cluster ~file =
  let found = ref 0 in
  Khash.iter_untimed t.open_tables.(cluster) (fun e ->
      if e.Khash.key = file then found := Cell.peek e.Khash.payload.opens);
  !found

(* Read one block: hit in the cluster cache, or fetch it (plus read-ahead)
   from the file's home. Concurrent local misses combine on the
   placeholder's reserve bit. Returns false if the block does not exist. *)
let read_block t ctx ~file ~index =
  t.reads <- t.reads + 1;
  let c = my_cluster t ctx in
  let cache = t.block_caches.(c) in
  let make_placeholder idx home =
    {
      b_file = file;
      b_index = idx;
      version = Machine.alloc (Kernel.machine t.kernel) ~home 0;
    }
  in
  match
    Khash.reserve_or_insert cache ctx (block_key ~file ~index)
      ~make:(make_placeholder index)
  with
  | `Reserved e ->
    let b = e.Khash.payload in
    let v = Ctx.read ctx b.version in
    if v > 0 then begin
      t.hits <- t.hits + 1;
      (* Copy to the user: local work. *)
      Kernel.kernel_work t.kernel ctx 120;
      Khash.release_reserve ctx e;
      true
    end
    else begin
      (* A placeholder left by a failed fetch: drop it and report. *)
      ignore (Khash.remove cache ctx (block_key ~file ~index));
      Khash.release_reserve ctx e;
      false
    end
  | `Inserted e -> (
    (* Miss: fetch this block and [read_ahead] more. *)
    t.fetch_rpcs <- t.fetch_rpcs + 1;
    let count = 1 + t.read_ahead in
    let home = home_cluster t file in
    let outcome =
      if home = c then
        home_fetch_service t ~file ~index ~count ~req_cluster:c ctx
      else
        rpc_to_cluster t ctx home
          (home_fetch_service t ~file ~index ~count ~req_cluster:c)
    in
    match outcome with
    | Rpc.Ok packed ->
      let v = packed / 1_000_000 and n = packed mod 1_000_000 in
      t.fetches <- t.fetches + n;
      (* Install the fetched blocks: ours first... *)
      Kernel.struct_work t.kernel ctx ~home:(Cell.home e.Khash.status) 150;
      Ctx.write ctx e.Khash.payload.version v;
      (* ...then the read-ahead blocks, skipping any that are present or
         being fetched by someone else. *)
      for ahead = 1 to n - 1 do
        let idx = index + ahead in
        match
          Khash.reserve_or_insert cache ctx (block_key ~file ~index:idx)
            ~make:(make_placeholder idx)
        with
        | `Inserted e2 ->
          Kernel.struct_work t.kernel ctx ~home:(Cell.home e2.Khash.status) 90;
          Ctx.write ctx e2.Khash.payload.version v;
          Khash.release_reserve ctx e2
        | `Reserved e2 ->
          (* Already cached (or racing): leave it be. *)
          Khash.release_reserve ctx e2
      done;
      Kernel.kernel_work t.kernel ctx 120 (* copy to the user *);
      Khash.release_reserve ctx e;
      true
    | Rpc.Absent | Rpc.Would_deadlock | Rpc.Gave_up | Rpc.Dead_target ->
      ignore (Khash.remove cache ctx (block_key ~file ~index));
      Khash.release_reserve ctx e;
      false)

(* Rewrite a file: bump the home version and invalidate every caching
   cluster's blocks, with the optimistic retry protocol. Must be called
   from a processor of the file's home cluster. *)
let rewrite_file t ctx ~file =
  let c = my_cluster t ctx in
  if home_cluster t file <> c then
    invalid_arg "Fserver.rewrite_file: must run at the file's home cluster";
  match Hashtbl.find_opt t.homes file with
  | None -> false
  | Some h ->
    let v = Ctx.read ctx h.h_version in
    Ctx.write ctx h.h_version (v + 1);
    let mask = Ctx.read ctx h.h_caching in
    let rec invalidate todo n =
      match Page.sharers_to_list todo with
      | [] -> ()
      | d :: _ when d = c ->
        (* Our own cache: invalidate inline. *)
        ignore (invalidate_file_service t ~file ctx);
        invalidate (Page.remove_sharer todo d) n
      | d :: _ -> (
        match rpc_to_cluster t ctx d (invalidate_file_service t ~file) with
        | Rpc.Ok _ | Rpc.Absent -> invalidate (Page.remove_sharer todo d) n
        | Rpc.Dead_target ->
          (* The sharer's service processor fail-stopped: its cache dies
             with it, so the invalidation is moot — drop it from the mask
             instead of retrying into a corpse forever. *)
          invalidate (Page.remove_sharer todo d) n
        | Rpc.Would_deadlock | Rpc.Gave_up ->
          Kernel.count_retry t.kernel;
          Ctx.interruptible_pause ctx (200 * min n 8);
          invalidate todo (n + 1))
    in
    invalidate mask 1;
    Ctx.write ctx h.h_caching (Page.sharer_bit c);
    true
