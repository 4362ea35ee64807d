(** FIFO server resource (memory module, bus, ring).

    A request arriving at time [now] starts service at
    [max now (next_free t)] and occupies the resource for [service] cycles.
    Requests are served in arrival order; queueing delay is what produces the
    second-order contention effects the paper measures. *)

type t

val create : string -> t

val name : t -> string

(** [reserve t ~now ~service] claims the next service slot and returns the
    completion time. The caller is expected to [Process.wait_until] it. *)
val reserve : t -> now:int -> service:int -> int

(** Time at which the resource next becomes idle. *)
val next_free : t -> int

val busy_cycles : t -> int

(** Total cycles requests spent queued before service began. *)
val queued_cycles : t -> int

val n_requests : t -> int

(** Fraction of [horizon] cycles the resource was busy. *)
val utilization : t -> horizon:int -> float

val pp : Format.formatter -> t -> unit
