(** One-shot synchronisation variable for simulated processes.

    RPC replies and barrier releases use this: readers suspend until some
    process fills the variable. An ivar can be filled exactly once. *)

type 'a t

exception Already_filled

val create : unit -> 'a t

val is_full : 'a t -> bool

(** Value if filled, without suspending. *)
val peek : 'a t -> 'a option

(** Fill and wake all waiting readers (at the current virtual time, in their
    arrival order), and materialise every watching wait
    ({!Engine.materialise}) before returning.
    @raise Already_filled on a second fill. *)
val fill : Engine.t -> 'a t -> 'a -> unit

(** [watch t w]: [w] is an elided poll of [t] ({!Engine.elide}), so
    {!fill} must materialise it in the filling dispatch itself. Watching
    twice is watching once. *)
val watch : 'a t -> Engine.wait -> unit

(** Return the value, suspending the calling process until filled. Must be
    called from within a {!Process.spawn}ed process. *)
val read : 'a t -> 'a
