(* Page descriptors.

   A descriptor instance exists per cluster that uses the page (hierarchical
   clustering replicates them on demand). Each instance keeps its own
   reference count — the paper's example of data that software replication
   handles better than hardware coherence would. The master cluster's
   instance additionally carries the ownership directory: which clusters
   hold replicas (sharers) and which one holds write ownership. *)

open Hector

(* Validity of a cluster's replica. *)
let st_invalid = 0
let st_valid_read = 1
let st_valid_write = 2

type pdesc = {
  vpage : int;
  frame : int; (* physical frame; soft faults never change it *)
  master_cluster : int;
  refcount : Cell.t; (* local mappings in this cluster *)
  vstate : Cell.t; (* st_invalid / st_valid_read / st_valid_write *)
  (* Directory fields — meaningful on the master instance only. *)
  dir_sharers : Cell.t; (* bitmask of clusters holding a replica *)
  dir_owner : Cell.t; (* 1 + owning cluster id; 0 = none *)
}

let make machine ~home ~vpage ~frame ~master_cluster ~vstate:v0 =
  {
    vpage;
    frame;
    master_cluster;
    refcount = Machine.alloc machine ~label:"refcnt" ~home 0;
    vstate = Machine.alloc machine ~label:"vstate" ~home v0;
    dir_sharers = Machine.alloc machine ~label:"sharers" ~home 0;
    dir_owner = Machine.alloc machine ~label:"owner" ~home 0;
  }

(* Sharer bitmask helpers. *)
let sharer_bit c = 1 lsl c
let has_sharer mask c = mask land sharer_bit c <> 0
let add_sharer mask c = mask lor sharer_bit c
let remove_sharer mask c = mask land lnot (sharer_bit c)

let sharers_to_list mask =
  let rec go c acc =
    if c < 0 then acc
    else go (c - 1) (if has_sharer mask c then c :: acc else acc)
  in
  go 62 []
