(** A word of simulated shared memory, with a home PMM.

    Simulated code must access cells through {!Machine} or {!Ctx} so that
    latency and contention are charged; [peek]/[poke] are untimed and exist
    for initialisation and test assertions only. *)

type t

(** The cell takes the next id. *)
val make : ?label:string -> home:int -> int -> t

(** Consume the id the next {!make} would take, for a later
    {!make_reserved}. *)
val reserve_id : unit -> int

(** Consume the ids the next [n] {!make}s would take, in one step; returns
    the first, and the other [n - 1] follow it. *)
val reserve_ids : int -> int

(** A cell taking [id], handed out earlier by {!reserve_id}: for a cell
    built later than the moment it stands for (a deferred table element). *)
val make_reserved : ?label:string -> id:int -> home:int -> int -> t

val home : t -> int
val id : t -> int
val label : t -> string

(** Untimed read — initialisation and tests only. *)
val peek : t -> int

(** Untimed write — initialisation and tests only. *)
val poke : t -> int -> unit

val pp : Format.formatter -> t -> unit

(** Cache-state helpers for machines with hardware coherence (untimed —
    {!Machine} charges the costs). *)

val cached_by : t -> int -> bool
val exclusive_of : t -> int
val cache_fill : t -> int -> unit
val cache_take_exclusive : t -> int -> unit
val cache_drop_exclusive : t -> unit
val cache_flush : t -> unit
