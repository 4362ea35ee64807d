(* Ticket lock with proportional backoff.

   The simplest fair lock: take a ticket (fetch&increment on the [next]
   word), spin until the [owner] word reaches it, backing off proportionally
   to the distance. HECTOR's swap cannot implement fetch&increment, so this
   lock — like the paper's "newer" queueing locks — requires a CAS machine
   (the increment is a CAS retry loop; LL/SC on real hardware).

   Space: two words total, independent of the processor count — the
   cheapest fair lock, at the price of all waiters spinning on one word
   ([owner]), which coherent caches amortise and non-coherent machines pay
   for dearly. *)

open Hector

type t = {
  next : Cell.t;
  owner : Cell.t;
  spin_unit : int; (* backoff cycles per waiter ahead of us *)
  machine : Machine.t;
  mutable acquisitions : int;
  mutable holder : int; (* ticket currently served; bookkeeping *)
  mutable holder_proc : int; (* processor holding the lock, -1 = free *)
  mutable recovering : bool; (* serialises dead-holder recoverers *)
  vcls : Verify.lock_class;
  vid : int;
}

let create ?(home = 0) ?(spin_unit = 40) ?(vclass = "ticket") machine =
  if not (Machine.config machine).Config.has_cas then
    invalid_arg "Ticket_lock.create: needs a machine with compare&swap";
  {
    next = Machine.alloc machine ~label:"ticket.next" ~home 0;
    owner = Machine.alloc machine ~label:"ticket.owner" ~home 0;
    spin_unit;
    machine;
    acquisitions = 0;
    holder = -1;
    holder_proc = -1;
    recovering = false;
    vcls = Verify.lock_class vclass;
    vid = Verify.fresh_id ();
  }

let acquisitions t = t.acquisitions
let is_free t = Cell.peek t.next = Cell.peek t.owner

(* fetch&increment by CAS retry. *)
let take_ticket t ctx =
  let rec loop () =
    let v = Ctx.read ctx t.next in
    Ctx.instr ctx ~reg:1 ~br:1 ();
    if Ctx.compare_and_swap ctx t.next ~expect:v ~set:(v + 1) then v
    else loop ()
  in
  loop ()

(* Thread-oblivious: the served ticket comes from the bookkeeping, so any
   processor can advance [owner] on the holder's behalf. *)
let release t ctx =
  assert (t.holder >= 0);
  let my = t.holder in
  t.holder <- -1;
  t.holder_proc <- -1;
  (* Hook before the owner write — the write is the transfer point, so an
     observer must order our release before the successor's acquisition. *)
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Released (t.vcls, t.vid));
  Ctx.write ctx t.owner (my + 1);
  Ctx.instr ctx ~br:1 ()

(* Dead-holder recovery: advance [owner] past the corpse's ticket. A
   ticket, once granted, must be retired or every later waiter stalls —
   which is exactly what a dead holder causes and this repairs. *)
let recover t ctx =
  let dead = t.holder_proc in
  if t.recovering || dead < 0 || Machine.proc_alive t.machine dead then false
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

let acquire t ctx =
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait (t.vcls, t.vid));
  let my = take_ticket t ctx in
  let rec wait () =
    let cur = Ctx.read ctx t.owner in
    Ctx.instr ctx ~br:1 ();
    if cur <> my then begin
      (if
         t.holder = cur && t.holder_proc >= 0
         && not (Machine.proc_alive t.machine t.holder_proc)
       then begin
         (* A ticket waiter cannot abort ([abortable = false]), so crash
            tolerance lives in the spin itself: the ticket being served
            belongs to a dead processor — retire it on the corpse's
            behalf. The liveness test is a host-side read, free when
            nobody dies; a lost recovery race just backs off and
            re-reads. *)
         if not (recover t ctx) then Ctx.interruptible_pause ctx t.spin_unit
       end
       else begin
         (* Proportional backoff: roughly one critical section per waiter
            ahead. *)
         let ahead = my - cur in
         Ctx.interruptible_pause ctx (max 1 (ahead * t.spin_unit))
       end);
      wait ()
    end
  in
  wait ();
  assert (t.holder = -1);
  t.holder <- my;
  t.holder_proc <- Ctx.proc ctx;
  t.acquisitions <- t.acquisitions + 1;
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid))

(* Core-interface view; [try_acquire] takes a ticket and waits (a true
   TryLock would need fetch&decrement to give the ticket back). *)
module Core = struct
  type nonrec t = t

  let acquire = acquire
  let release = release

  let try_acquire t ctx =
    acquire t ctx;
    true

  (* Not abortable: a ticket, once taken, cannot be returned without
     fetch&decrement, and a skipped ticket would stall every later waiter
     (the owner word only ever advances by one). Timed acquisition
     degenerates to a blocking acquire, as the capability flag states. *)
  let try_acquire_for t ctx ~deadline:_ =
    acquire t ctx;
    true

  let abortable _ = false

  (* Recoverable despite not being abortable: waiters recover in-spin (see
     [acquire]), and a detector can call [recover] directly. *)
  let recover = recover
  let recoverable _ = true
  let is_free = is_free

  (* More than one ticket outstanding past the one being served. *)
  let waiters t = t.holder >= 0 && Cell.peek t.next > t.holder + 1
  let acquisitions = acquisitions
  let vclass t = t.vcls
  let vid t = t.vid
end
