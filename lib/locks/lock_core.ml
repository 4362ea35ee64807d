(* First-class-module lock interface (see lock_core.mli).

   The module types are the contract; the [packed] existential is the glue
   that lets [Lock.make] pick constituent algorithms at runtime and hand
   them to the cohort engine, which only ever sees OPS. *)

open Hector

type topo = { n_clusters : int; cluster_of : int -> int }

let topo ~n_clusters ~cluster_of =
  if n_clusters <= 0 then
    invalid_arg "Lock_core.topo: n_clusters must be positive";
  { n_clusters; cluster_of }

(* Hardware stations as the default topology: a machine-level analogue of
   the kernel's Clustering when no explicit clustering is in play. *)
let topo_of_machine machine =
  let cfg = Machine.config machine in
  { n_clusters = cfg.Config.stations; cluster_of = Config.station_of_proc cfg }

module type OPS = sig
  type t

  val name : t -> string
  val acquire : t -> Ctx.t -> unit
  val release : t -> Ctx.t -> unit
  val try_acquire : t -> Ctx.t -> bool
  val try_acquire_for : t -> Ctx.t -> deadline:int -> bool
  val abortable : bool
  val recover : t -> Ctx.t -> bool
  val recoverable : bool
  val is_free : t -> bool
  val waiters : t -> bool
  val acquisitions : t -> int
  val vclass : t -> Verify.lock_class
  val vid : t -> int
end

module type S = sig
  include OPS

  val algo : string
  val create : ?home:int -> ?vclass:string -> Machine.t -> t
end

type packed = Packed : (module OPS with type t = 'a) * 'a -> packed

let pack (type a) (module M : OPS with type t = a) (v : a) =
  Packed ((module M), v)

let p_name (Packed ((module M), v)) = M.name v
let p_acquire (Packed ((module M), v)) ctx = M.acquire v ctx
let p_release (Packed ((module M), v)) ctx = M.release v ctx
let p_try_acquire (Packed ((module M), v)) ctx = M.try_acquire v ctx

let p_try_acquire_for (Packed ((module M), v)) ctx ~deadline =
  M.try_acquire_for v ctx ~deadline

let p_abortable (Packed ((module M), _)) = M.abortable
let p_recover (Packed ((module M), v)) ctx = M.recover v ctx
let p_recoverable (Packed ((module M), _)) = M.recoverable
let p_is_free (Packed ((module M), v)) = M.is_free v
let p_waiters (Packed ((module M), v)) = M.waiters v
let p_acquisitions (Packed ((module M), v)) = M.acquisitions v

(* Tell the checker the calling processor inherited this (still-held) lock:
   a cohort pass moves the session to a cluster-mate without the global
   constituent changing hands, so the checker's registered holder must
   follow or the eventual release looks foreign. *)
let p_transferred (Packed ((module M), v)) ctx =
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Transferred (M.vclass v, M.vid v))
