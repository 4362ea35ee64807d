(* Anderson's array-based queue lock.

   One of the "newer cache-based queueing locks" of the paper's Section 5.2
   discussion: a fetch&increment hands each waiter a private slot of a
   P-entry array to spin on; release flips the next slot. Fair and, with a
   slot per cache line, free of the ticket lock's single-word hot spot —
   at the cost of P words *per lock*, the space overhead that made the
   paper prefer MCS-style per-processor nodes shared across locks.

   Requires a CAS machine (the slot counter is a CAS-loop increment).

   Timed acquisition works by slot forfeiture. A slot holds 0 (not yet
   granted), 1 (granted) or 2 (forfeited). A timed-out waiter swaps 2 into
   its slot: if the swap returns 1 a grant already landed, so the waiter
   consumes it and takes the lock after all; if it returns 0 the forfeit
   stands. A releaser granting a slot whose claimant is timed uses
   CAS(0 -> 1): success commits the grant (the atomic is what prevents a
   forfeit from sneaking between a read and a blind store and losing the
   lock); failure means the slot reads 2, so the releaser resets it to 0
   and advances to the next slot. Grants to untimed claimants stay plain
   stores, so runs that never use the timed face are unchanged.

   The slot array has 2P + 1 entries rather than P: a processor may have
   one not-yet-skipped forfeited slot plus one active wait outstanding
   (at most 2P issues in flight, a contiguous issue range), and the +1
   guarantees two concurrent issues never share a physical slot — which is
   what lets the bare value 2 mark a forfeit without generation tags.
   While a processor's forfeited slot is still unskipped, a new timed
   acquire fails fast. *)

open Hector

type t = {
  slots : Cell.t array; (* has_lock flags; 2P + 1 entries *)
  tail : Cell.t; (* next free slot index (monotonic; slot = mod len) *)
  machine : Machine.t;
  mutable acquisitions : int;
  mutable my_slot : int array; (* slot each processor spins on *)
  mutable holder_slot : int; (* bookkeeping *)
  mutable holder_proc : int; (* processor holding the lock, -1 = free *)
  mutable recovering : bool; (* serialises dead-holder recoverers *)
  timed_claim : bool array; (* slot -> current claimant is a timed waiter *)
  forfeiter_of_slot : int array; (* slot -> forfeiting proc, or -1 *)
  pending_forfeit : bool array; (* proc -> forfeited slot not yet skipped *)
  mutable timeouts : int;
  mutable gc_count : int; (* forfeited slots skipped by releases *)
  vcls : Verify.lock_class;
  vid : int;
}

let create ?(home = 0) ?(vclass = "anderson") machine =
  if not (Machine.config machine).Config.has_cas then
    invalid_arg "Anderson_lock.create: needs a machine with compare&swap";
  let n = Machine.n_procs machine in
  let len = (2 * n) + 1 in
  let slots =
    (* Slots are spread over the machine so waiters don't all hammer one
       module; slot 0 starts with the lock. *)
    Array.init len (fun i ->
        Machine.alloc machine
          ~label:(Printf.sprintf "anderson%d" i)
          ~home:(i mod n)
          (if i = 0 then 1 else 0))
  in
  {
    slots;
    tail = Machine.alloc machine ~label:"anderson.tail" ~home 0;
    machine;
    acquisitions = 0;
    my_slot = Array.make n (-1);
    holder_slot = -1;
    holder_proc = -1;
    recovering = false;
    timed_claim = Array.make len false;
    forfeiter_of_slot = Array.make len (-1);
    pending_forfeit = Array.make n false;
    timeouts = 0;
    gc_count = 0;
    vcls = Verify.lock_class vclass;
    vid = Verify.fresh_id ();
  }

let acquisitions t = t.acquisitions
let timeouts t = t.timeouts
let gc_count t = t.gc_count

let is_free t =
  t.holder_slot = -1
  && Cell.peek t.slots.(Cell.peek t.tail mod Array.length t.slots) = 1

let take_slot t ctx =
  let rec loop () =
    let v = Ctx.read ctx t.tail in
    Ctx.instr ctx ~reg:1 ~br:1 ();
    if Ctx.compare_and_swap ctx t.tail ~expect:v ~set:(v + 1) then v
    else loop ()
  in
  loop ()

let got_lock t ctx slot =
  t.my_slot.(Ctx.proc ctx) <- slot;
  assert (t.holder_slot = -1);
  t.holder_slot <- slot;
  t.holder_proc <- Ctx.proc ctx;
  t.acquisitions <- t.acquisitions + 1

let acquire t ctx =
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait (t.vcls, t.vid));
  let n = Array.length t.slots in
  let slot = take_slot t ctx mod n in
  (* Exit only on the grant value: an untimed waiter's slot can never hold
     a stale forfeit mark (the ring is collision-free), so this spins on
     exactly the same reads as before the timed face existed. *)
  let rec wait () =
    let v = Ctx.read ctx t.slots.(slot) in
    Ctx.instr ctx ~br:1 ();
    if v <> 1 then begin
      Ctx.interruptible_pause ctx 16;
      wait ()
    end
  in
  wait ();
  (* Consume the flag for the next trip around the array. *)
  Ctx.write ctx t.slots.(slot) 0;
  got_lock t ctx slot;
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid))

(* Timed acquisition: take a slot like everyone else, but bound the spin
   and forfeit the slot on expiry (see the header comment for the
   grant/forfeit atomics). *)
let acquire_with_timeout t ctx ~timeout =
  let proc = Ctx.proc ctx in
  if timeout <= 0 || t.pending_forfeit.(proc) then begin
    t.timeouts <- t.timeouts + 1;
    false
  end
  else begin
    if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait_timed (t.vcls, t.vid));
    let deadline = Machine.now t.machine + timeout in
    let n = Array.length t.slots in
    let slot = take_slot t ctx mod n in
    t.timed_claim.(slot) <- true;
    let rec wait () =
      let v = Ctx.read ctx t.slots.(slot) in
      Ctx.instr ctx ~br:1 ();
      if v = 1 then true
      else if Machine.now t.machine >= deadline then false
      else begin
        Ctx.interruptible_pause ctx 16;
        wait ()
      end
    in
    let take () =
      Ctx.write ctx t.slots.(slot) 0;
      t.timed_claim.(slot) <- false;
      got_lock t ctx slot;
      if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid));
      true
    in
    if wait () then take ()
    else begin
      let prev = Ctx.fetch_and_store ctx t.slots.(slot) 2 in
      Ctx.instr ctx ~br:1 ();
      if prev = 1 then
        (* A grant landed before our forfeit: it is ours, and nobody else
           will ever consume it — take the lock after all. *)
        take ()
      else begin
        (* Forfeit stands: the slot stays marked until a release reaches
           and skips it. *)
        t.forfeiter_of_slot.(slot) <- proc;
        t.pending_forfeit.(proc) <- true;
        t.timeouts <- t.timeouts + 1;
        if Ctx.hooked ctx then Ctx.emit ctx Verify.Wait_abandoned;
        false
      end
    end
  end

let try_acquire_for t ctx ~deadline =
  acquire_with_timeout t ctx ~timeout:(deadline - Machine.now t.machine)

(* Grant slot [s], skipping (and resetting) forfeited slots. Untimed
   claimants get the historical plain store; timed claimants need the CAS
   so a racing forfeit cannot lose the grant. *)
let rec grant t ctx s =
  let n = Array.length t.slots in
  if not t.timed_claim.(s) then begin
    Ctx.write ctx t.slots.(s) 1;
    Ctx.instr ctx ~br:1 ()
  end
  else if Ctx.compare_and_swap ctx t.slots.(s) ~expect:0 ~set:1 then
    Ctx.instr ctx ~br:1 ()
  else begin
    (* The claimant forfeited (the slot reads 2): reset it, free its
       owner's timed face, and pass the grant along. *)
    Ctx.instr ctx ~br:1 ();
    Ctx.write ctx t.slots.(s) 0;
    t.timed_claim.(s) <- false;
    let p = t.forfeiter_of_slot.(s) in
    t.forfeiter_of_slot.(s) <- -1;
    if p >= 0 then t.pending_forfeit.(p) <- false;
    t.gc_count <- t.gc_count + 1;
    if Ctx.hooked ctx then Ctx.emit ctx (Verify.Abandon_repaired t.vcls);
    grant t ctx ((s + 1) mod n)
  end

(* Thread-oblivious: the releasing processor comes from the holder
   bookkeeping, not from [ctx], so a recoverer can run the release on a
   dead holder's behalf. *)
let release t ctx =
  let n = Array.length t.slots in
  let p = t.holder_proc in
  let slot = t.my_slot.(p) in
  assert (slot = t.holder_slot);
  t.holder_slot <- -1;
  t.holder_proc <- -1;
  t.my_slot.(p) <- -1;
  (* Hook before the grant — the slot write is the transfer point, so an
     observer must order our release before the successor's acquisition. *)
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Released (t.vcls, t.vid));
  grant t ctx ((slot + 1) mod n)

(* Dead-holder recovery: run the corpse's release — slot-skip GC included,
   so forfeited slots between the dead holder and the next live waiter are
   swept in the same pass. *)
let recover t ctx =
  let dead = t.holder_proc in
  if
    t.recovering || dead < 0 || Machine.proc_alive t.machine dead
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

(* Core-interface view; [try_acquire] takes a slot and waits (slots cannot
   be handed back — only timed waiters, which pre-announce themselves,
   may forfeit). *)
module Core = struct
  type nonrec t = t

  let acquire = acquire
  let release = release

  let try_acquire t ctx =
    acquire t ctx;
    true

  let try_acquire_for = try_acquire_for
  let abortable _ = true
  let recover = recover
  let recoverable _ = true
  let is_free = is_free

  (* Slots issued past the holder's mean queued waiters. The tail counter is
     monotonic, so compare against the holder's issue number modulo the ring
     size. A forfeited-but-unskipped slot also counts — the hint may
     overshoot, never deadlock. *)
  let waiters t =
    t.holder_slot >= 0
    && Cell.peek t.tail mod Array.length t.slots
       <> (t.holder_slot + 1) mod Array.length t.slots

  let acquisitions = acquisitions
  let vclass t = t.vcls
  let vid t = t.vid
end
