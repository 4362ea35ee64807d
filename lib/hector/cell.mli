(** A word of simulated shared memory, with a home PMM.

    Simulated code must access cells through {!Machine} or {!Ctx} so that
    latency and contention are charged; [peek]/[poke] are untimed and exist
    for initialisation and test assertions only. *)

type t

(** A cell taking [id]. Ids are numbered per machine: build cells with
    {!Machine.alloc}, which takes the machine's next id, or
    {!Machine.alloc_reserved}, for one reserved earlier with
    {!Machine.reserve_ids}. *)
val create : ?label:string -> id:int -> home:int -> int -> t

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
