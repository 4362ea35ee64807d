(** Contention observability: per-lock-class profiles and a bounded event
    trace, fed by the same {!Verify.event} reports as the checker.

    The discipline matches [lib/verify]: nothing here touches the engine,
    draws random numbers or charges simulated cycles. With no sink
    installed, every hook site is a single branch; installed, the hooks do
    pure host-side bookkeeping, so an instrumented run is bit-identical in
    simulated time to a plain one.

    Lock classes are {!Verify}'s interned classes — the profile speaks the
    same vocabulary as the checker and the [?vclass] arguments the locks
    already take. Proc-to-cluster attribution is a caller-supplied mapping
    (stations for a bare machine, {!Hkernel.Clustering} for clustered
    workloads).

    Per-lock state lives in int columns indexed by the lock-instance id
    (see {!Verify.event}): ids are the small, dense per-machine numbers
    [Hector.Machine.fresh_lock_id] hands out, so an observer serves one
    machine's locks. Reserve words are keyed by cell id in an
    open-addressing table, so their ids may be as large as a machine's
    cell count. A lock, reserve or RPC report allocates nothing. *)

type t

(** The interned class RPC waits are accounted under. *)
val rpc_class : Verify.lock_class

(** [create ~n_procs ()] profiles only. [trace] > 0 additionally keeps the
    last [trace] events in a ring (older events are dropped, counted in
    {!trace_dropped}). [cluster_of]/[n_clusters] default to one cluster;
    [cluster_of] is read once per processor here, and a processor it maps
    outside [0, n_clusters) (or refuses with [Invalid_argument]) counts in
    cluster 0. *)
val create :
  ?trace:int ->
  ?cluster_of:(int -> int) ->
  ?n_clusters:int ->
  n_procs:int ->
  unit ->
  t

(** {2 The hook entry point} *)

(** [on_event t ~proc ~now e] applies one {!Verify.event} (delivered by
    [Hector.Machine.emit] after the checker has seen it; see
    {!Verify.event} for each kind's contract). Kinds with no profile
    meaning ([Transferred], [Proc_revived]) are ignored. Every report
    tolerates a missing start (an observer installed mid-run). *)
val on_event : t -> proc:int -> now:int -> Verify.event -> unit

(** {2 Reader concurrency}

    A gauge of concurrent shared (reader-side) holders per lock class,
    fed by the [*_shared] and [Released_dead] events. Kept beside the
    profile like the crash buckets: {!cells} is schema-stable and a
    high-water mark is a gauge, not a counter. *)

(** Peak concurrent shared holders observed for [cls]; 0 if never held.
    Readers > 1 is the reader-parallelism evidence no exclusive
    [Lock.algo] can produce. *)
val rw_read_peak : t -> cls:Verify.lock_class -> int

(** Per-cluster peaks, clusters with no shared activity omitted. *)
val rw_read_peak_by_cluster : t -> cls:Verify.lock_class -> (int * int) list

(** {2 Crash and recovery}

    Kept beside the profile, not inside {!cells}: the profile schema is
    stable across versions, and crash evidence wants per-event latency
    samples. *)

(** The interned class crash instants are traced under. *)
val crash_class : Verify.lock_class

type crash_row = {
  cr_cluster : int;
  cr_crashes : int;
  cr_recoveries : int;
  cr_latencies : int list;  (** recovery latencies in cycles, chronological *)
}

(** One row per cluster with any crash/recovery activity. *)
val crash_rows : t -> crash_row list

val crashes_observed : t -> int
val recoveries_observed : t -> int

(** {2 Contention profile} *)

type cells = {
  acqs : int;  (** successful acquisitions (incl. try / reserve sets) *)
  contended : int;
      (** acquisitions that found the lock held / completed spin waits *)
  wait_cycles : int;  (** cycles from wait start to acquisition (or abandon) *)
  max_wait_cycles : int;  (** worst single wait (lock, spin or RPC) *)
  hold_cycles : int;  (** cycles from acquisition to release *)
  handoffs : int;  (** releases made with at least one recorded waiter *)
  handoffs_local : int;
      (** contended acquisitions whose previous releaser was in the
          receiving processor's cluster *)
  handoffs_remote : int;
      (** contended acquisitions that pulled the lock across a cluster
          boundary — the transfers a NUMA-aware lock minimises *)
  aborts : int;  (** timed acquisitions that expired and gave up *)
  abandon_repairs : int;
      (** abandoned queue nodes reclaimed by a later hand-off *)
}

type row = {
  row_class : string;
  total : cells;
  by_cluster : (int * cells) list;
      (** attribution by the waiting/holding processor's cluster; clusters
          with no activity for the class are omitted *)
}

(** One row per lock class with any activity, heaviest wait first. *)
val profile_rows : t -> row list

(** {2 Event trace} *)

type kind =
  | Lock_acquired  (** span: wait start to acquisition *)
  | Lock_released  (** span: acquisition to release *)
  | Lock_try  (** instant: non-blocking acquisition *)
  | Lock_abandoned  (** span: wait start to timeout *)
  | Lock_recovered  (** span: kill to recovery release (dur = latency) *)
  | Reserve_set  (** instant *)
  | Reserve_cleared  (** span: set to clear *)
  | Reserve_spin  (** span: spin-wait on a reserve bit *)
  | Rpc_issue  (** instant *)
  | Rpc_retry  (** instant: [Would_deadlock] resend/backoff *)
  | Rpc_reply  (** span: issue to reply *)
  | Proc_crash  (** instant: a processor fail-stopped *)

val kind_name : kind -> string

type event = {
  kind : kind;
  proc : int;
  cls : Verify.lock_class;
  time : int;  (** cycle at which the span ended / the instant occurred *)
  dur : int;  (** span length in cycles; 0 for instants *)
}

(** Oldest retained first. *)
val trace : t -> event list

val trace_capacity : t -> int
val trace_recorded : t -> int

(** Events evicted from the ring. *)
val trace_dropped : t -> int

(** Chrome trace-event document (the JSON object format Perfetto and
    [chrome://tracing] load): clusters as processes, processors as
    threads, spans as ["X"] complete events, instants as ["i"].
    [us_per_cycle] converts simulated cycles to trace microseconds. *)
val trace_json : t -> us_per_cycle:float -> Json.t
