(** A stack of fixed-width int records, newest on top, stored in one flat
    int array that grows on demand. Entries are addressed by index, 0 the
    oldest and [length t - 1] the newest; a [remove] shifts the entries
    above it down one, so indexes taken before it are stale. Once the
    array has grown to the stack's high-water mark, no operation
    allocates. *)

type t

(** [create ~width] is an empty stack of [width]-field records. *)
val create : width:int -> t

val length : t -> int
val clear : t -> unit

(** [get t i f] is field [f] of entry [i]. *)
val get : t -> int -> int -> int

val set : t -> int -> int -> int -> unit

(** [push t] adds an entry on top, its fields unset, and returns its
    index; the caller [set]s each field. *)
val push : t -> int

(** [remove t i] deletes entry [i], keeping the others in order. *)
val remove : t -> int -> unit

(** Deletes the newest entry, if any. *)
val pop : t -> unit

(** [find t f v] is the newest entry whose field [f] is [v], or -1. *)
val find : t -> int -> int -> int
