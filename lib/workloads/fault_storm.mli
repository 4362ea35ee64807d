(** Fault-injection storm: workers run the hybrid-locking fast path (coarse
    MCS lock + reserve bits) plus periodic RPCs to a server a "hog" keeps
    reserved, while a {!Eventsim.Fault} plan injects holder stalls, RPC
    delay/loss and memory hot-spots. Compares the unbounded pre-existing
    protocol against timeout-capable locking and bounded-retry RPC. *)

open Hector

type mechanism =
  | No_timeout  (** plain acquire, unbounded spins, unbounded RPC retry *)
  | Timeout
      (** lock/reserve timeouts (defer or re-search); RPC retry unbounded *)
  | Bounded_retry  (** timeouts plus an RPC attempt budget ([Gave_up]) *)

val mechanism_name : mechanism -> string

type config = {
  p : int;  (** worker processors (server and hog take two more) *)
  s : int;  (** independent structures, each with its own coarse lock *)
  k : int;  (** elements per structure *)
  hold_us : float;
  think_us : float;
  window_us : float;
  rpc_every : int;  (** one op in [rpc_every] also calls the server *)
  lock_timeout_us : float;
  reserve_timeout_us : float;
  max_attempts : int;  (** RPC attempt budget under [Bounded_retry] *)
  hog_hold_us : float;
  hog_idle_us : float;
  seed : int;  (** seeds the storm and its fault plan *)
  stall_every_us : float;
      (** the fault plan, which injects nothing with no stall period and
          both rates zero: one holder stall each period (0 = none) *)
  stall_us : float;  (** length of an injected stall *)
  drop_rate : float;
      (** P(loss) per RPC call; callers resend after {!reply_timeout_us} *)
  delay_rate : float;  (** P(delay by {!rpc_delay_us}) per RPC message *)
}

val rpc_delay_us : float
val reply_timeout_us : float

(** A stall of 1 ms every 2 ms, no RPC faults. *)
val default_config : config

type result = {
  ops : int;
  deferred : int;  (** ops deferred locally after a lock timeout *)
  rpc_ok : int;
  rpc_calls : int;
  rpc_resends : int;
  rpc_gave_ups : int;
  lock_timeouts : int;
  lock_gcs : int;
  reserve_timeouts : int;
  stalls_injected : int;
  delays_injected : int;
  drops_injected : int;
  hotspots_injected : int;
  recovery : Measure.summary;
      (** per injected stall: stall start to the next reserve acquisition *)
}

(** Run the storm. With [verify] the lockdep checker is installed on the
    machine before any lock traffic and its stall watchdog runs alongside
    the workload; [Verify.finish] is called at the end so leaked reserve
    bits are reported. The hooks are host-side only: results are identical
    with and without a checker. Pair [verify] with a drop-free fault plan —
    reply-drop recovery re-executes services at-least-once, which the
    ownership checker rightly flags as a double clear.

    With [obs] a contention observer ({!Obs}) is installed before any lock
    traffic; like the checker its hooks are host-side only, so profiling or
    tracing a storm cannot move its simulated timing.

    Raises [Invalid_argument] if [config.p < 1], if [config.p + 2]
    processors do not fit the machine, or if the fault plan does not
    validate. *)
val run :
  ?cfg:Config.t ->
  ?config:config ->
  ?verify:Verify.t ->
  ?obs:Obs.t ->
  mechanism ->
  result
