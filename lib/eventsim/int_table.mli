(** A map from non-negative int keys to fixed-width int records, by open
    addressing with linear probing. A binding is addressed by its slot:
    [find] and [add] return one, [get]/[set] read and write its fields. An
    [add] that doubles the table or a [remove] moves bindings, so a slot
    taken before either is stale. No operation allocates except the
    doubling [add]. *)

type t

(** [create ~width] is an empty table of [width]-field records (0 makes a
    set). *)
val create : width:int -> t

(** [find t k] is the slot of [k], or -1 when [k] is unbound (or
    negative). *)
val find : t -> int -> int

(** [add t k] is the slot of [k], binding it first, with every field 0,
    when it is unbound. Raises [Invalid_argument] on a negative key. *)
val add : t -> int -> int

(** [get t s f] is field [f] of the binding at slot [s]. *)
val get : t -> int -> int -> int

val set : t -> int -> int -> int -> unit

(** [remove t k] unbinds [k], if bound. *)
val remove : t -> int -> unit

(** [iter f t] calls [f key slot] on every binding, in slot order. *)
val iter : (int -> int -> unit) -> t -> unit

(** The key's home: a table of capacity [c] (a power of two, 16 at
    [create]) probes [k] from slot [hash k land (c - 1)]. Exposed so tests
    can build keys that collide. *)
val hash : int -> int
