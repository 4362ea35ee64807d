(** The memory manager: soft page faults, unmapping, and page-level
    coherence across clusters, implemented with the paper's machinery —
    hybrid locking (coarse lock + reserve bits), combining-tree descriptor
    replication, cross-cluster RPC, and the optimistic deadlock-avoidance
    protocol. The implementation comment in [memmgr.ml] walks the full
    path. *)

open Hector

(** Service a soft page fault for [vpage] on the calling processor: map the
    page, acquiring a replica (read) or write ownership (write) from the
    page's master cluster if the local replica is insufficient. Must run
    inside a simulated process; retries internally until it succeeds. *)
val fault : Kernel.t -> Ctx.t -> vpage:int -> write:bool -> unit

(** Remove the calling processor's mapping and drop the replica's reference
    count. *)
val unmap : Kernel.t -> Ctx.t -> vpage:int -> unit

(** Read fault that bypasses the combining tree: simultaneous missers in
    one cluster each go remote. Only for the ABL2 ablation. *)
val read_fault_no_combining : Kernel.t -> Ctx.t -> vpage:int -> unit

(** Page-table update helper (the caller holds the descriptor's reserve). *)

val map_page : Kernel.t -> Ctx.t -> Page.pdesc -> unit

(** Copy-on-write faults (Sections 2.3 / 2.5): break the sharing of
    [vpage] for the caller — drop a share at the master (removing the
    shared descriptor with the last share) and map a fresh private page
    [private_vpage]. With [Procs.Pessimistic] the caller releases
    everything around the remote call and may observe the shared page
    already gone. [degrade_after] (0, the default, = never) bounds the
    optimistic attempts before the fault degrades to the pessimistic
    protocol (counted by {!Kernel.degradations}). *)

type cow_outcome = Broke | Already_gone

val cow_fault :
  ?degrade_after:int ->
  Kernel.t ->
  Ctx.t ->
  strategy:Procs.strategy ->
  vpage:int ->
  private_vpage:int ->
  cow_outcome
