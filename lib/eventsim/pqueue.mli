(** Binary min-heap of timestamped events, ordered by [(time, seq)], with
    an in-order lane beside it.

    The sequence number breaks ties between events scheduled for the same
    instant, so the queue pops same-time events in insertion (FIFO) order and
    every simulation run is deterministic.

    Storage is structure-of-arrays: [times] / [seqs] / [slots] int columns
    in heap order, and a slot table that holds each payload at the slot id
    its entry names. Payloads never move: [push] writes the payload once
    into a free slot and [pop_payload] overwrites the root's slot once, so
    each costs one write barrier, and the sift loops move only unboxed
    ints. Each sift moves a hole: the moving entry stays in locals, each
    level moves one entry into the hole, and the entry is written once at
    its final position. The hot path ([push], [min_time], [pop_payload])
    allocates nothing except occasional capacity doublings; a test pins a
    steady pop+push stream at zero minor words. The [entry]-record views
    ([peek] / [pop] / [drain]) are convenience wrappers that do allocate.

    The lane keeps a pre-scheduled plan out of the heap. Once the heap
    holds 32 entries, a push that sorts after the lane's last entry is
    appended to the lane, a FIFO ring of the same columns, with no sift;
    the accessors take the smaller of the heap root and the lane head, so
    the pop order is exactly the heap's. A workload whose heap stays a few
    entries deep never reaches the lane (the threshold's measurement is in
    [pqueue.ml]'s header).

    The queue retains no popped payload except one filler: the first
    payload ever pushed stays referenced for the queue's lifetime. *)

type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push t ~time ~seq payload] inserts an event. [seq] must be unique per
    queue for deterministic ordering; the engine supplies a counter.
    Allocation-free except when the heap or the lane grows. *)
val push : 'a t -> time:int -> seq:int -> 'a -> unit

(** Earliest entry without removing it. Allocates the record. *)
val peek : 'a t -> 'a entry option

(** Timestamp of the earliest entry. Allocates the option. *)
val peek_time : 'a t -> int option

(** Timestamp of the earliest entry, or [max_int] when the queue is empty.
    Allocation-free; this is what the engine's run loop compares against. *)
val min_time : 'a t -> int

(** Sequence number of the earliest entry, or [max_int] when the queue is
    empty. Allocation-free; the engine reads it to place each dispatch. *)
val min_seq : 'a t -> int

(** Entries in the in-order lane; the rest are in the heap. For tests. *)
val lane_length : 'a t -> int

(** Remove and return the earliest entry. Allocates the record. *)
val pop : 'a t -> 'a entry option

(** Remove the earliest entry and return only its payload; allocation-free.
    The payload's table or lane entry is overwritten with the filler, so
    the queue does not retain it.
    @raise Invalid_argument on an empty queue — callers check [is_empty]. *)
val pop_payload : 'a t -> 'a

(** Remove every entry; the queue then retains only the filler. *)
val clear : 'a t -> unit

(** Pop everything, in order. Mainly for tests. *)
val drain : 'a t -> 'a entry list
