(** Chained hash table under the hybrid coarse-grain/fine-grain locking
    strategy of Figures 1 and 2.

    A single coarse lock protects the whole table but is held only long
    enough to search a chain and set a reserve bit in the found element; the
    reserve bit then protects the element for the long operation. Waiters on
    a reserved element release the coarse lock, spin on the status word with
    backoff, and re-search.

    The [Coarse] and [Fine] granularities implement the strategies the
    hybrid is compared against (experiment ABL1). Every coarse-lock hold
    sets the processor's soft interrupt mask, so RPC service handlers can
    never deadlock against the lock their own processor holds
    (Section 3.2).

    {2 Sharded granularity}

    [Sharded] splits the bin array into [shards] groups (bin [b] belongs to
    shard [b mod shards]); each shard has its own coarse lock — any
    {!Lock.algo}, including the NUMA composites — homed on a distinct PMM,
    together with that shard's bin-head words. Operations behave exactly as
    in [Hybrid] mode but take the key's shard lock instead of the table
    lock, so reserve-bit dances on different shards proceed in parallel and
    load distinct memory modules.

    Each shard also carries a {!Locks.Seqlock}. Chain-mutating writers
    ({!insert}, {!remove}, the placeholder arm of {!reserve_or_insert})
    bump it {e inside} the shard lock. Read-only {!lookup}s use it as an
    optimistic read path: sample the sequence word, probe the chain with
    plain (unlocked) loads, validate the sequence. The contract is:

    - a lookup whose validation succeeds observed a chain no writer touched
      between the two samples, so its answer is consistent;
    - a writer-busy sample or a failed validation makes the lookup fall
      back to {!lookup_locked} — one bounded retry through the shard lock,
      never an unbounded optimistic spin;
    - reserve bits protect element {e payloads}, not chain structure, so
      optimistic lookups may return a currently-reserved element — exactly
      what a locked search would do. Callers that need the payload stable
      must go through {!reserve_existing}/{!with_element} as usual. *)

open Hector
open Locks

type granularity = Hybrid | Coarse | Fine | Sharded

val granularity_name : granularity -> string

type 'a elem = {
  key : int;
  status : Cell.t;
      (** Header word holding the reserve bits. It lives on the element's
          home PMM — the one passed to [make] — so [Cell.home e.status] is
          the element's home. *)
  elem_lock : Spin_lock.t option; (* Fine mode only *)
  payload : 'a;
  mutable reserver : int;
      (** Processor holding the write reservation, -1 when none — host-side
          bookkeeping the crash sweep ({!recover}) uses to tell an orphaned
          reservation from a live one. *)
}

type 'a t

(** [create machine ~lock_algo ~homes] makes a table whose storage (lock
    word, bin heads, elements) lives on PMMs drawn from [homes] — the lock
    and its neighbours, as a real table occupies a contiguous region.
    [make] callbacks receive the chosen element home. [vname] prefixes the
    table's {!Verify.lock_class} names (coarse lock [<vname>.lock], bins
    [<vname>.bin], element locks [<vname>.elem], reserve bits
    [<vname>.reserve]; under [Sharded], shard locks [<vname>.shard<i>] and
    seqlocks [<vname>.seq<i>] — one class per shard, so contention profiles
    attribute waits to individual shards), giving each table its own place
    in the lock-order graph.

    [shards] is only meaningful with [~granularity:Sharded] (ignored
    otherwise) and must be in [1, nbins]; shard [s]'s lock, sequence word
    and bin heads are homed on [homes.(s mod length homes)].

    A bin costs one word until an operation first touches it. Its head
    word is built when a search first reads it, taking the cell id
    [create] reserved for it: [create] takes the [nbins] ids after those
    of its locks, and the head of bin [b] is the [b]-th, so ids, homes and
    every simulated result are as if [create] had built the heads. *)
val create :
  ?granularity:granularity ->
  ?nbins:int ->
  ?shards:int ->
  ?vname:string ->
  lock_algo:Lock.algo ->
  homes:int list ->
  Machine.t ->
  'a t

val granularity : 'a t -> granularity
val size : 'a t -> int
val searches : 'a t -> int
val probes : 'a t -> int

(** Times a reserver found the element already reserved and had to wait. *)
val reserve_conflicts : 'a t -> int

(** {!lookup}s served entirely by the optimistic (unlocked) read path. *)
val optimistic_hits : 'a t -> int

(** {!lookup}s that sampled a writer-busy sequence word or failed
    validation and fell back to the locked path. *)
val optimistic_fallbacks : 'a t -> int

val coarse_lock : 'a t -> Lock.t

(** Shard count: 1 unless the granularity is [Sharded]. *)
val shards : 'a t -> int

(** The shard a key's bin belongs to ([bin_of_key mod shards]). *)
val shard_of_key : 'a t -> int -> int

(** Shard [s]'s coarse lock / sequence word. Only meaningful under
    [Sharded]; raises [Invalid_argument] otherwise (empty arrays). *)
val shard_lock : 'a t -> int -> Lock.t

val seqlock : 'a t -> int -> Seqlock.t

(** The bin for a key: multiplicative hash reduced with
    {!Clustering.positive_mod}, so it is total and in [0, nbins) for every
    key including [min_int] (where the previous [abs _ mod _] reduction
    went negative). For a power-of-two [nbins] the reduction is the hash's
    low bits ([land (nbins - 1)]), which equals that modulus for every
    int. Exposed for property tests. *)
val bin_of_key : 'a t -> int -> int

(** Bin [b]'s head word, once a search has read it ([None] before).
    Exposed for tests. *)
val bin_head : 'a t -> int -> Cell.t option

(** Run [f] with the coarse lock held and the soft interrupt mask set.
    Exception-safe: the lock is released and the mask cleared if [f]
    raises. *)
val with_coarse : 'a t -> Ctx.t -> (unit -> 'b) -> 'b

(** Search a chain; requires the protecting lock (or [with_coarse]).
    Charges one read of the bin head plus one per element examined. Of a
    bin's unbuilt run members ({!insert_untimed}) it builds only the one it
    returns: the others' status words, untouched since the run began, are
    read by arithmetic ({!Ctx.read_untouched}) at the same charge.
    On a cache-coherent machine, where a read fills the line, it builds
    each member it reads. *)
val search_locked : Ctx.t -> 'a t -> int -> 'a elem option

(** Acquire the key's protecting lock (table lock, or shard lock under
    [Sharded]), search, reserve; retry through reserve-bit waits. [None] if
    absent. *)
val reserve_existing : 'a t -> Ctx.t -> int -> 'a elem option

(** Like {!reserve_existing} but inserts a *reserved placeholder* under the
    same lock hold when the key is absent — the combining-tree trick of
    Section 2.2. *)
val reserve_or_insert :
  'a t ->
  Ctx.t ->
  int ->
  make:(int -> 'a) ->
  [ `Inserted of 'a elem | `Reserved of 'a elem ]

(** Non-blocking reservation, for RPC service handlers (Section 2.3): a
    reserved element yields [`Would_deadlock] instead of waiting. *)
val try_reserve_existing :
  'a t -> Ctx.t -> int -> [ `Absent | `Reserved of 'a elem | `Would_deadlock ]

(** Clear an element's reservation (plain store). *)
val release_reserve : Ctx.t -> 'a elem -> unit

(** Remove a key under the protecting lock; the caller holds the element's
    reservation, which dies with it. *)
val remove : 'a t -> Ctx.t -> int -> bool

(** Insert a fresh, unreserved element. *)
val insert : 'a t -> Ctx.t -> int -> make:(int -> 'a) -> 'a elem

(** Read-only lookup. Under [Sharded] this is the optimistic read path
    described above (unlocked probe validated by the shard's seqlock,
    locked fallback on conflict); under every other granularity it is
    {!lookup_locked}. Like {!search_locked}, it builds no run member but
    the one it returns. *)
val lookup : 'a t -> Ctx.t -> int -> 'a elem option

(** Search under the key's protecting lock (bin spin lock in [Fine] mode).
    The pessimistic path {!lookup} falls back to. *)
val lookup_locked : 'a t -> Ctx.t -> int -> 'a elem option

(** Run [f] on the element under the configured granularity's protection:
    reserve bit (Hybrid / Sharded), the coarse lock (Coarse), or
    bin+element spin locks (Fine). [None] if the key is absent. All arms
    release their locks (and reservation) if [f] raises. *)
val with_element : 'a t -> Ctx.t -> int -> ('a elem -> 'b) -> 'b option

(** Untimed setup insertion (pre-populating before a run). The element's
    home is picked, [make] called and its status cell's id reserved at
    once, in insert order, as for {!insert}.

    A table's first untimed inserts build nothing and cost no per-key
    memory while they form a dense run: power-of-two [nbins], not [Fine],
    keys [k0 >= 0], [k0 + 1], ..., one [status0], one payload (physically
    equal), cell ids and homes in sequence (no cell allocated on the
    table's machine between two inserts), and no bin walked since the
    first. A run member is built only when an operation keeps it: the
    element a search returns, or every member of its bin once a {!remove},
    {!mem_untimed}, {!find_untimed} or {!iter_untimed} walks the bin. A
    timed insert links in front of them and builds none. Chain order,
    homes, status words, probe counts and every simulated result are as if
    each member had been built at insert; a table pre-populated with many
    keys but visited on few builds only the elements its searches return.
    Every other untimed insert builds and links its element at once, which
    closes the run for good. *)
val insert_untimed : 'a t -> int -> status0:int -> make:(int -> 'a) -> unit

(** Untimed iteration/membership, for tests and invariant checks. Both
    build the run members they walk ([iter_untimed]: all of them). *)
val iter_untimed : 'a t -> ('a elem -> unit) -> unit

val mem_untimed : 'a t -> int -> bool

(** Untimed lookup of [key]'s element, walking (and building) its bin
    only. *)
val find_untimed : 'a t -> int -> 'a elem option

(** Crash repair: force the release of every protecting lock whose holder
    has fail-stopped (coarse, shard, and Fine-mode bin / element locks),
    roll forward any shard sequence word a dead writer left odd (so
    optimistic readers resume instead of falling back forever), and clear
    reserve bits whose recorded owner is dead. Per shard, the sequence
    word is repaired {e before} the shard lock changes hands, so the next
    writer's [write_begin] finds it even. Returns the number of repairs
    performed; free when no processor has died. Run members
    ({!insert_untimed}) that nothing has walked yet are skipped, not
    built: no processor reserved them and no lock of theirs exists to be
    held. *)
val recover : 'a t -> Ctx.t -> int
