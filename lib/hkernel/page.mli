(** Page descriptors and the per-page ownership directory.

    A descriptor instance exists in every cluster that uses the page; each
    keeps its own reference count (the paper's example of replication that
    hardware coherence cannot provide). The master cluster's instance also
    carries the directory: the sharer set and the write owner. *)

open Hector

(** Replica validity states, ordered: invalid < valid-read < valid-write. *)
val st_invalid : int

val st_valid_read : int
val st_valid_write : int

type pdesc = {
  vpage : int;
  frame : int;
  master_cluster : int;
  refcount : Cell.t; (** local mappings in this cluster *)
  vstate : Cell.t; (** replica validity *)
  dir_sharers : Cell.t; (** master only: bitmask of clusters with replicas *)
  dir_owner : Cell.t; (** master only: 1 + owning cluster; 0 = none *)
}

val make :
  Machine.t ->
  home:int ->
  vpage:int ->
  frame:int ->
  master_cluster:int ->
  vstate:int ->
  pdesc

(** Sharer-bitmask helpers. *)

val sharer_bit : int -> int
val has_sharer : int -> int -> bool
val add_sharer : int -> int -> int
val remove_sharer : int -> int -> int
val sharers_to_list : int -> int list
