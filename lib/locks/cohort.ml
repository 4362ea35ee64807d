(* Lock cohorting (Dice, Marathe & Shavit): a generic combinator that
   turns any per-cluster local lock plus any global lock into a NUMA-aware
   lock.

   The composite's invariant: a processor is in the critical section iff it
   holds its cluster's local lock AND its cluster owns the global lock.
   Ownership of the global lock is a *cluster* property ([owned]): a
   releaser that sees local waiters hands the local lock over without
   touching the global one, so the lock — and the data it protects — stay
   in the cluster's memory across consecutive critical sections. That is
   the paper's hierarchical-clustering insight pushed into the lock itself:
   hand-offs are cluster-local until either the cohort drains or the
   [max_handoffs] fairness bound trips, and only then does the global lock
   change hands (one cross-cluster transfer per cohort session instead of
   one per critical section).

   The combinator works over {!Lock_core.packed}, so the constituent
   algorithms are chosen at run time ([Lock.build]), and it is itself a
   {!Lock_core.OPS} instance ({!Core}) whose capabilities are its
   constituents'. Requirements on the constituents (the cohorting paper's
   terms):
   - the global lock must be *thread-oblivious* — acquired by one processor
     of a cluster, released by another. Every lock in this library
     qualifies: their release paths work from the releasing context, not a
     remembered owner. (Their [holder] bookkeeping is assertion-only and
     updated on every hand-off.)
   - the local lock must answer "is anyone behind me?" ([waiters]); a
     conservative [false] (spin locks) degrades locality, never safety.

   One hazard is specific to this simulator's MCS TryLock: a failed
   composite [try_acquire] can leave an abandoned node in the local queue,
   so a pass-release may hand the local lock to a node whose owner already
   left; the local release then GC-collects it and the local lock comes out
   *free* while the cluster still owns the global lock. The pass therefore
   uses an explicit handshake: the releaser writes a fresh generation
   token into [pass_token] before releasing the local lock, and whoever
   completes a local acquire zeroes it (host-side, in the same step its
   acquire returns). A pass that comes back with the releaser's *own*
   token still in place *and* the local lock free reached nobody, and is
   demoted to a full release. Checking [is_free] alone would be wrong:
   the local release's own trailing timed operations (the H1/H2 deferred
   re-initialisation) let the successor run — it can take the pass, do a
   full release of its own and leave the local lock free, and the demote
   would then release the global lock a second time. Nor would a boolean
   flag do: those same trailing operations let two pass-releases overlap,
   and the earlier releaser's check would read the *later* releaser's
   freshly-raised flag (plus a local lock momentarily free mid-hand-off)
   and demote while the cohort session is still live. The token makes a
   stale check inert — any acquire or later pass has overwritten it.

   The demote itself needs one more guard: it releases the global lock
   *after* the local lock is back in circulation (the full-release path
   orders these the other way around), so a cluster-mate could acquire
   the local lock, see [owned] false and enqueue on the global lock while
   the demoted release is still in flight. If that mate is the processor
   that opened the session, it re-enqueues the very MCS node the release
   is operating on, and the hand-off is lost — both sides spin forever.
   [demoting] closes the window: an acquirer that finds it raised waits
   it out (short, bounded by the global release's few timed operations)
   before touching the global lock. *)

open Hector

let default_max_handoffs = 16

type t = {
  locals : Lock_core.packed array; (* one per cluster *)
  global : Lock_core.packed;
  owned : bool array; (* cluster currently owns the global lock *)
  passes : int array; (* consecutive local hand-offs this cohort session *)
  pass_token : int array; (* 0 = none; else the in-flight pass's generation *)
  mutable token_ctr : int; (* generation source for [pass_token] *)
  demoting : bool array; (* a demoted global release is in flight *)
  max_handoffs : int;
  cluster_of : int -> int;
  mutable holder : int; (* processor in the critical section; -1 = none *)
  mutable recovering : bool; (* serialises dead-holder recoverers *)
  mutable acquisitions : int;
  mutable local_handoffs : int; (* pass-releases: global stayed put *)
  mutable global_releases : int; (* full releases: global changed hands *)
  mutable timeouts : int; (* timed-acquisition expiries, either level *)
  vcls : Verify.lock_class;
  vid : int;
}

(* The lowest processor of each cluster, for homing that cluster's local
   lock in cluster-local memory. *)
let cluster_homes machine (topo : Lock_core.topo) =
  let n = Machine.n_procs machine in
  let homes = Array.make topo.Lock_core.n_clusters (-1) in
  for p = n - 1 downto 0 do
    let c = topo.Lock_core.cluster_of p in
    if c >= 0 && c < Array.length homes then homes.(c) <- p
  done;
  Array.iteri
    (fun c h ->
      if h < 0 then
        invalid_arg (Printf.sprintf "Cohort: cluster %d has no processors" c))
    homes;
  homes

let create ?(vclass = "cohort") ?(max_handoffs = default_max_handoffs) ~topo
    ~local ~global machine =
  if max_handoffs < 1 then
    invalid_arg "Cohort: max_handoffs must be at least 1";
  let homes = cluster_homes machine topo in
  {
    locals =
      Array.init topo.Lock_core.n_clusters (fun c ->
          local ~home:homes.(c) ~vclass:(vclass ^ ".local"));
    global = global ~vclass:(vclass ^ ".global");
    owned = Array.make topo.Lock_core.n_clusters false;
    passes = Array.make topo.Lock_core.n_clusters 0;
    pass_token = Array.make topo.Lock_core.n_clusters 0;
    token_ctr = 0;
    demoting = Array.make topo.Lock_core.n_clusters false;
    max_handoffs;
    cluster_of = topo.Lock_core.cluster_of;
    holder = -1;
    recovering = false;
    acquisitions = 0;
    local_handoffs = 0;
    global_releases = 0;
    timeouts = 0;
    vcls = Verify.lock_class vclass;
    vid = Verify.fresh_id ();
  }

let acquisitions t = t.acquisitions
let local_handoffs t = t.local_handoffs
let global_releases t = t.global_releases
let timeouts t = t.timeouts
let vclass t = t.vcls
let vid t = t.vid

(* The composite is abortable only if both constituents are: a
   non-abortable constituent turns the timed face into a blocking one. *)
let abortable t =
  Array.for_all Lock_core.p_abortable t.locals
  && Lock_core.p_abortable t.global

let is_free t =
  Lock_core.p_is_free t.global
  && Array.for_all Lock_core.p_is_free t.locals
  && not (Array.exists Fun.id t.owned)

let waiters t =
  Array.exists Lock_core.p_waiters t.locals
  || Lock_core.p_waiters t.global

let cluster t ctx = t.cluster_of (Ctx.proc ctx)

let got_lock t ctx =
  assert (t.holder = -1);
  t.holder <- Ctx.proc ctx;
  t.acquisitions <- t.acquisitions + 1;
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid))

let acquire t ctx =
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait (t.vcls, t.vid));
  let c = cluster t ctx in
  Lock_core.p_acquire t.locals.(c) ctx;
  (* Accept any in-flight pass before the next timed operation: the
     releaser's demote check must see either the token overwritten or the
     local lock still occupied (see the header). *)
  t.pass_token.(c) <- 0;
  (* A demoted global release may still be in flight; wait it out before
     touching the global lock (see the header). *)
  while t.demoting.(c) do
    Ctx.work ctx 10
  done;
  (* [owned] is only ever read or written by the holder of cluster [c]'s
     local lock, so this host-side check cannot race. *)
  Ctx.instr ctx ~br:1 ();
  if not t.owned.(c) then begin
    Lock_core.p_acquire t.global ctx;
    t.owned.(c) <- true;
    t.passes.(c) <- 0
  end
  else
    (* Inherited an open cohort session: the still-held global lock is now
       ours to release (or pass on). The checker's registered holder must
       follow the session, or the eventual global release looks foreign —
       host-side only, no simulated cost. *)
    Lock_core.p_transferred t.global ctx;
  got_lock t ctx

let try_acquire t ctx =
  let c = cluster t ctx in
  if not (Lock_core.p_try_acquire t.locals.(c) ctx) then false
  else begin
    t.pass_token.(c) <- 0;
    Ctx.instr ctx ~br:1 ();
    if t.demoting.(c) then begin
      (* A demoted global release is in flight: enqueueing on the global
         lock now could lose the hand-off, and a non-blocking caller
         cannot wait it out — report the lock as busy. *)
      Lock_core.p_release t.locals.(c) ctx;
      false
    end
    else if t.owned.(c) then begin
      Lock_core.p_transferred t.global ctx;
      got_lock t ctx;
      true
    end
    else if Lock_core.p_try_acquire t.global ctx then begin
      t.owned.(c) <- true;
      t.passes.(c) <- 0;
      got_lock t ctx;
      true
    end
    else begin
      (* Could not take the global lock: give the local one back. *)
      Lock_core.p_release t.locals.(c) ctx;
      false
    end
  end

(* Timed acquisition: a timed local acquire (whose failure leaves nothing
   held — the constituent's abandonment protocol cleans up after itself),
   then the same pass-acceptance and demote-fence steps as [acquire], then
   a timed global acquire with whatever deadline remains. A global-side
   failure gives the local lock back, exactly like [try_acquire]. Either
   constituent may return [true] past the deadline (a committed hand-off
   must be consumed); the composite then either delivers the lock or, if
   the other level has already run out of time, backs out cleanly. *)
let try_acquire_for t ctx ~deadline =
  if Ctx.now ctx >= deadline then begin
    t.timeouts <- t.timeouts + 1;
    false
  end
  else begin
    if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait_timed (t.vcls, t.vid));
    let c = cluster t ctx in
    if not (Lock_core.p_try_acquire_for t.locals.(c) ctx ~deadline) then begin
      t.timeouts <- t.timeouts + 1;
      if Ctx.hooked ctx then Ctx.emit ctx Verify.Wait_abandoned;
      false
    end
    else begin
      t.pass_token.(c) <- 0;
      while t.demoting.(c) do
        Ctx.work ctx 10
      done;
      Ctx.instr ctx ~br:1 ();
      if t.owned.(c) then begin
        Lock_core.p_transferred t.global ctx;
        got_lock t ctx;
        true
      end
      else if Lock_core.p_try_acquire_for t.global ctx ~deadline then begin
        t.owned.(c) <- true;
        t.passes.(c) <- 0;
        got_lock t ctx;
        true
      end
      else begin
        Lock_core.p_release t.locals.(c) ctx;
        t.timeouts <- t.timeouts + 1;
        if Ctx.hooked ctx then Ctx.emit ctx Verify.Wait_abandoned;
        false
      end
    end
  end

(* Full release: the cohort session ends, the global lock changes hands.
   [owned] goes false before the global release's first timed operation, so
   a cluster-mate that acquires the local lock mid-release already sees it
   down and competes for the global lock itself. *)
let release_global_then_local t ctx c =
  t.owned.(c) <- false;
  t.passes.(c) <- 0;
  t.global_releases <- t.global_releases + 1;
  Lock_core.p_release t.global ctx;
  Lock_core.p_release t.locals.(c) ctx

(* Thread-oblivious at the composite level too: the cluster being released
   comes from the holder bookkeeping, not from [ctx] — the constituent
   releases are holder-derived themselves, so a recoverer can run the
   whole unwind on a dead holder's behalf. *)
let release t ctx =
  let p = t.holder in
  assert (p >= 0);
  t.holder <- -1;
  let c = t.cluster_of p in
  let may_pass =
    t.passes.(c) < t.max_handoffs && Lock_core.p_waiters t.locals.(c)
  in
  Ctx.instr ctx ~br:1 ();
  (* The released hook runs just before whichever constituent release can
     transfer the lock, so an observer sees our release before the
     successor's acquisition — and never the reverse. *)
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Released (t.vcls, t.vid));
  if may_pass then begin
    (* Local hand-off: keep the global lock with the cluster. *)
    t.passes.(c) <- t.passes.(c) + 1;
    t.token_ctr <- t.token_ctr + 1;
    let tok = t.token_ctr in
    t.pass_token.(c) <- tok;
    Lock_core.p_release t.locals.(c) ctx;
    (* The waiter the hint saw may have been an abandoned TryLock node the
       release just collected. If nobody accepted the pass (our own token
       still in place — any acquire or later pass overwrites it) and the
       local lock came out free, the cohort session is over: demote to a
       full release of the global lock. An acquirer that slips in after
       this check finds [owned] already false and [demoting] raised. *)
    if t.pass_token.(c) = tok && Lock_core.p_is_free t.locals.(c) then begin
      t.pass_token.(c) <- 0;
      t.demoting.(c) <- true;
      t.owned.(c) <- false;
      t.passes.(c) <- 0;
      t.global_releases <- t.global_releases + 1;
      Lock_core.p_release t.global ctx;
      t.demoting.(c) <- false
    end
    else t.local_handoffs <- t.local_handoffs + 1
  end
  else release_global_then_local t ctx c

(* The composite is recoverable only if both constituents are: the unwind
   runs their releases on the corpse's behalf, which needs each to be
   thread-oblivious with holder bookkeeping of its own. Each must be
   abortable too. A non-abortable constituent (Ticket) blocks its waiters
   inside it, where the only repair that runs is its own in-spin one. That
   releases the constituent alone and leaves the cohort session (holder,
   owned flag, the other level) to the corpse. *)
let recoverable t =
  let repairable p = Lock_core.p_recoverable p && Lock_core.p_abortable p in
  Array.for_all repairable t.locals && repairable t.global

(* Dead-holder recovery: the thread-oblivious release unwinds the corpse's
   session — a local pass if cluster-mates are queued (the cluster keeps
   the global lock), otherwise the full global-then-local release. *)
let recover t ctx =
  let dead = t.holder in
  if
    t.recovering || dead < 0
    || Machine.proc_alive (Ctx.machine ctx) dead
    || not (recoverable t)
  then false
  else begin
    t.recovering <- true;
    Fun.protect
      ~finally:(fun () -> t.recovering <- false)
      (fun () ->
        release t ctx;
        if Ctx.hooked ctx then
          Ctx.emit ctx
            (Verify.Recovered
               { cls = t.vcls; dead; latency = Ctx.since_kill ctx dead });
        true)
  end

module Core = struct
  type nonrec t = t

  let acquire = acquire
  let release = release
  let try_acquire = try_acquire
  let try_acquire_for = try_acquire_for
  let abortable = abortable
  let recover = recover
  let recoverable = recoverable
  let is_free = is_free
  let waiters = waiters
  let acquisitions = acquisitions
  let vclass = vclass
  let vid = vid
end
