(** Uncontended lock latency (Section 4.1.1): one processor, a local lock,
    a tight measurement loop whose bookkeeping is charged as the paper's
    measurements include it. *)

open Hector
open Locks

type result = {
  pair_us : float;  (** measured lock+unlock+loop time *)
  predicted_us : float option;  (** static Figure-4 model, where defined *)
}

val run : ?cfg:Config.t -> ?iters:int -> Lock.algo -> result

(** MCS, H1, H2 and the 35 µs spin lock — the Section 4.1.1 table. *)
val algos : Lock.algo list
