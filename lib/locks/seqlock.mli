(** Sequence lock: an optimistic read path over writer-excluded data.

    A seqlock is one word of simulated memory holding a sequence number:
    even while the protected data is stable, odd while a writer is inside a
    mutation. Writers — already serialised by some real lock (in {!Hkernel.Khash},
    the shard lock) — bump the word to odd before mutating and back to even
    after. Readers sample the word, probe the data with plain loads, and
    re-sample: an unchanged even value proves no writer overlapped the probe,
    so the read cost is two extra loads instead of a lock acquire/release
    pair (the "RMA lock" read-path idea of the PAPERS.md distributed-locks
    line of work, scaled down to one word).

    The writer side charges one timed store per transition (the holder of
    the writer lock knows the last value it wrote, so no read is needed);
    the reader side charges one timed load per sample. A successful
    optimistic read is reported to an installed {!Verify} checker / {!Obs}
    observer as a zero-length try-acquire/release pair under the seqlock's
    class, so read traffic shows up in contention profiles without ever
    adding lock-order edges (an optimistic read cannot block, hence can
    never be the waiting side of a deadlock). *)

open Hector

type t

(** [create machine ~home ()] allocates the sequence word on PMM [home].
    [vclass] names the {!Verify.lock_class} successful optimistic reads are
    attributed to. *)
val create : Machine.t -> ?home:int -> ?vclass:string -> unit -> t

(** Untimed: current sequence value (tests / assertions). *)
val peek : t -> int

(** Untimed: is a writer inside a critical section? *)
val write_in_progress : t -> bool

(** Completed write sections. Crash repairs ({!recover_write}) roll the
    sequence forward without counting here — a repair is not a write. *)
val writes : t -> int

(** Sequence words rolled forward by {!recover_write}. *)
val repairs : t -> int

(** Successful optimistic reads ({!read_validate} returning [true]). *)
val read_hits : t -> int

(** Failed validations plus writer-busy samples — optimistic attempts that
    had to fall back to the caller's locked path. Each is also reported to
    an installed observer ([Verify.Optimistic_abort]) under the lock's
    class, at zero simulated cost. *)
val read_aborts : t -> int

val vclass : t -> Verify.lock_class

(** {2 Writer side — caller must hold the data's writer lock} *)

(** Bump the sequence to odd: one timed store. Readers sampling from here
    on fail validation. *)
val write_begin : t -> Ctx.t -> unit

(** Bump the sequence back to even: one timed store. *)
val write_end : t -> Ctx.t -> unit

(** [write_begin]/[write_end] around [f], exception-safe. *)
val with_write : t -> Ctx.t -> (unit -> 'a) -> 'a

(** Crash repair: if the last [write_begin] was issued by a processor that
    has since fail-stopped, roll the sequence forward to even on its
    behalf (one timed store, charged to the recoverer) and return [true].
    The caller must guarantee no live writer can be inside — in
    {!Hkernel.Khash}, the corpse still holds the shard lock while its
    shard is repaired, which excludes them. *)
val recover_write : t -> Ctx.t -> bool

(** {2 Reader side — no lock held} *)

(** Sample the sequence word (one timed load): the even sample, or [-1] if
    a writer is inside a mutation — the caller should fall back to its
    locked path rather than spin. An int, not an option, so the optimistic
    path allocates nothing. *)
val read_begin : t -> Ctx.t -> int

(** Re-sample and compare (one timed load): [true] iff no writer ran since
    the matching {!read_begin}, i.e. everything probed in between was
    consistent. Reports the hit/abort to an installed checker/observer. *)
val read_validate : t -> Ctx.t -> int -> bool
