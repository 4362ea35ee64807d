(* Test&set spin lock with exponential backoff (Figure 3c of the paper).

   acquire: while test_and_set(L) = locked { delay; delay := delay * 2 }
   release: swap(L, 0) — HECTOR has only swap, so the release store is an
   atomic too, which is why Figure 4 counts two atomic operations for the
   spin lock's lock/unlock pair.

   Every failed attempt spins *on the lock word itself*, so remote waiters
   load the lock's memory module and the interconnect — the second-order
   effect distributed locks avoid. *)

open Hector

type t = {
  flag : Cell.t;
  backoff : Backoff.t;
  mutable acquisitions : int;
  mutable failed_attempts : int;
  mutable holder_proc : int; (* processor holding the lock, -1 = free;
                                host-side bookkeeping for dead-holder
                                recovery, not simulated state *)
  mutable recovering : bool; (* serialises recoverers host-side *)
  vcls : Verify.lock_class;
  vid : int;
}

let create machine ?(home = 0) ?(vclass = "spinlock") backoff =
  {
    flag = Machine.alloc machine ~label:"spinlock" ~home 0;
    backoff;
    acquisitions = 0;
    failed_attempts = 0;
    holder_proc = -1;
    recovering = false;
    vcls = Verify.lock_class vclass;
    vid = Machine.fresh_lock_id machine;
  }

let acquisitions t = t.acquisitions
let failed_attempts t = t.failed_attempts
let home t = Cell.home t.flag

(* Untimed: is the lock currently held? For assertions in tests. *)
let is_held t = Cell.peek t.flag <> 0

let acquire t ctx =
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait (t.vcls, t.vid));
  let rec attempt delay =
    let old = Ctx.test_and_set ctx t.flag in
    if old = 0 then begin
      (* Uncontended path instruction budget (Figure 4): 1 reg, 2 br for the
         acquire side. *)
      Ctx.instr ctx ~reg:1 ~br:2 ();
      t.acquisitions <- t.acquisitions + 1;
      t.holder_proc <- Ctx.proc ctx;
      if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid))
    end
    else begin
      t.failed_attempts <- t.failed_attempts + 1;
      Ctx.instr ctx ~reg:1 ~br:1 ();
      Backoff.delay_on ctx t.backoff delay;
      attempt (Backoff.next t.backoff delay)
    end
  in
  attempt (Backoff.initial t.backoff)

let release t ctx =
  t.holder_proc <- -1;
  (* Hook before the clearing swap — the swap is the transfer point, so an
     observer must order our release before the successor's acquisition. *)
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Released (t.vcls, t.vid));
  (* swap(L, 0): the MC88100 has no plain "atomic" store-release; the paper
     counts the release as an atomic as well. *)
  ignore (Ctx.fetch_and_store ctx t.flag 0);
  Ctx.instr ctx ~br:1 ()

let vclass t = t.vcls

(* Dead-holder recovery: the release is a plain swap(L, 0), so any
   processor can perform it on the corpse's behalf — [holder_proc] is the
   evidence the holder really died mid-section (fail-stop crashes are
   detectable, so the liveness read is legitimate). The recoverer does not
   end up holding the lock; it re-contends through the normal acquire. *)
let recover t ctx =
  let dead = t.holder_proc in
  if
    t.recovering || dead < 0
    || Machine.proc_alive (Ctx.machine ctx) dead
    || not (is_held t)
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

(* Single attempt; used where a TryLock is meaningful for comparison. *)
let try_acquire t ctx =
  let old = Ctx.test_and_set ctx t.flag in
  Ctx.instr ctx ~reg:1 ~br:2 ();
  if old = 0 then begin
    t.acquisitions <- t.acquisitions + 1;
    t.holder_proc <- Ctx.proc ctx;
    if Ctx.hooked ctx then Ctx.emit ctx (Verify.Try_acquired (t.vcls, t.vid));
    true
  end
  else begin
    t.failed_attempts <- t.failed_attempts + 1;
    false
  end

(* Timed acquisition: a test&set lock is trivially abortable — a waiter
   that gives up leaves no queue state behind, so abandonment is just
   "stop retrying". An already-expired deadline fails without touching the
   lock word. *)
let try_acquire_for t ctx ~deadline =
  if Ctx.now ctx >= deadline then false
  else begin
    if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait_timed (t.vcls, t.vid));
    let rec attempt delay =
      let old = Ctx.test_and_set ctx t.flag in
      if old = 0 then begin
        Ctx.instr ctx ~reg:1 ~br:2 ();
        t.acquisitions <- t.acquisitions + 1;
        t.holder_proc <- Ctx.proc ctx;
        if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid));
        true
      end
      else begin
        t.failed_attempts <- t.failed_attempts + 1;
        Ctx.instr ctx ~reg:1 ~br:1 ();
        if Ctx.now ctx >= deadline then begin
          if Ctx.hooked ctx then Ctx.emit ctx Verify.Wait_abandoned;
          false
        end
        else begin
          Backoff.delay_on ctx t.backoff delay;
          attempt (Backoff.next t.backoff delay)
        end
      end
    in
    attempt (Backoff.initial t.backoff)
  end

(* Core-interface view: the 35 us capped backoff the paper uses for its
   kernel spin locks. A test&set lock cannot tell whether anyone is backing
   off against it, so [waiters] is conservatively false — a cohort built
   over a spin local lock simply never passes locally. *)
module Core = struct
  type nonrec t = t

  let acquire = acquire
  let release = release
  let try_acquire = try_acquire
  let try_acquire_for = try_acquire_for
  let abortable _ = true
  let recover = recover
  let recoverable _ = true
  let is_free t = not (is_held t)
  let waiters _ = false
  let acquisitions = acquisitions
  let vclass = vclass
  let vid t = t.vid
end
