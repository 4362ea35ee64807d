(* CLH queue lock (Craig; Landin & Hagersten).

   Like MCS, the CLH lock builds an implicit FIFO queue with one
   fetch&store on the tail word. Unlike MCS, a waiter spins on its
   PREDECESSOR's node, and on release a processor adopts its predecessor's
   node for its next acquisition, so nodes migrate between processors.

   On a cache-coherent machine this is elegant: the spin hits the local
   cache until the predecessor's release invalidates it. On HECTOR —
   no coherence — the spin goes to wherever the predecessor's node
   happens to live, usually remote memory, re-creating exactly the
   second-order traffic that distributed locks exist to avoid. The ABL4
   experiment measures this contrast; it is why Hurricane's choice was MCS
   (Section 5.2 discusses the trade-offs among queue locks).

   Node state: locked = 1 while its owner holds or waits for the lock;
   0 once released. The tail initially points at a dummy unlocked node.

   Timed acquisition (node recycling rules): a CLH node cannot be removed
   from the implicit queue, but because the release signal is
   level-triggered (the 0 persists in the predecessor's node), a timed-out
   waiter can abandon {e by value}: it writes [pred + 2] into its own node
   and leaves. Its unique successor — the one processor spinning on that
   node — decodes the redirect, adopts [pred] as its new predecessor, and
   returns the abandoned node to its owner (host-side bookkeeping; the
   owner is idle in the queue's eyes, so no handshake is needed — a grant
   that raced the abandonment is still sitting, level-triggered, at the
   end of the redirect chain). Timed acquisitions run on a separate
   per-processor node (the MCS interrupt-node discipline) so untimed
   acquisitions never go node-less; while a processor's timed node is
   still abandoned-in-queue, a new timed acquire fails fast. *)

open Hector

(* Node cell values. *)
let v_released = 0
let v_locked = 1
let encode_abandoned ~pred = pred + 2
let decode_abandoned v = v - 2

type t = {
  tail : Cell.t; (* node id of the queue tail *)
  nodes : Cell.t array; (* node id -> locked flag cell *)
  mutable node_of_proc : int array; (* which node each processor owns *)
  machine : Machine.t;
  mutable acquisitions : int;
  (* Bookkeeping for assertions (untimed). *)
  mutable holder : int; (* processor or -1 *)
  pred_of_proc : int array; (* node adopted from the predecessor *)
  timed_node_of_proc : int array; (* node for timed acquires; -1 = in queue *)
  abandoner_of_node : int array; (* node id -> proc that abandoned it, -1 *)
  timed_active : bool array; (* current hold came through the timed face *)
  mutable timeouts : int;
  mutable gc_count : int; (* abandoned nodes returned by an observer *)
  mutable recovering : bool; (* serialises dead-holder recoverers *)
  vcls : Verify.lock_class;
  vid : int;
}

(* Node ids index [nodes]; node i for i < n starts owned by processor i,
   node n is the dummy the tail starts at, nodes n+1 .. 2n are the
   per-processor timed nodes (i - n - 1 owns node i). *)
let create ?(home = 0) ?(vclass = "clh") machine =
  let n = Machine.n_procs machine in
  let nodes =
    Array.init ((2 * n) + 1) (fun i ->
        let node_home = if i < n then i else if i = n then home else i - n - 1 in
        Machine.alloc machine
          ~label:(Printf.sprintf "clh%d" i)
          ~home:node_home
          (if i = n then v_released else v_locked))
  in
  {
    tail = Machine.alloc machine ~label:"clh.tail" ~home n;
    nodes;
    node_of_proc = Array.init n (fun i -> i);
    machine;
    acquisitions = 0;
    holder = -1;
    pred_of_proc = Array.make n (-1);
    timed_node_of_proc = Array.init n (fun i -> n + 1 + i);
    abandoner_of_node = Array.make ((2 * n) + 1) (-1);
    timed_active = Array.make n false;
    timeouts = 0;
    gc_count = 0;
    recovering = false;
    vcls = Verify.lock_class vclass;
    vid = Verify.fresh_id ();
  }

let acquisitions t = t.acquisitions
let holder_proc t = if t.holder < 0 then None else Some t.holder
let is_free t = t.holder < 0
let timeouts t = t.timeouts
let gc_count t = t.gc_count

(* Our predecessor abandoned: return its node to its owner (we are the only
   processor spinning on it, so the reclaim cannot race another observer)
   and follow the redirect. *)
let reclaim_abandoned t ctx node =
  let owner = t.abandoner_of_node.(node) in
  t.abandoner_of_node.(node) <- -1;
  if owner >= 0 then t.timed_node_of_proc.(owner) <- node;
  t.gc_count <- t.gc_count + 1;
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Abandon_repaired t.vcls)

(* Spin on [pred]'s node until it reads released, following abandonment
   redirects; returns the node the grant finally arrived through (the node
   to adopt at release). *)
let rec spin_on_pred t ctx pred =
  let v = Ctx.read ctx t.nodes.(pred) in
  Ctx.instr ctx ~br:1 ();
  if v = v_released then pred
  else if v >= 2 then begin
    let redirect = decode_abandoned v in
    reclaim_abandoned t ctx pred;
    spin_on_pred t ctx redirect
  end
  else spin_on_pred t ctx pred

let acquire t ctx =
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait (t.vcls, t.vid));
  let proc = Ctx.proc ctx in
  let my = t.node_of_proc.(proc) in
  (* Mark our node locked (it may be a recycled node homed anywhere). *)
  Ctx.write ctx t.nodes.(my) v_locked;
  let pred = Ctx.fetch_and_store ctx t.tail my in
  Ctx.instr ctx ~reg:2 ~br:2 ();
  (* Spin on the PREDECESSOR's node — remote, unless a coherent cache holds
     it. *)
  let granted_through = spin_on_pred t ctx pred in
  t.pred_of_proc.(proc) <- granted_through;
  assert (t.holder < 0);
  t.holder <- proc;
  t.acquisitions <- t.acquisitions + 1;
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid))

(* Timed acquisition on the per-processor timed node. On expiry the waiter
   publishes the redirect value and leaves; the level-triggered release
   signal means no claim handshake is needed (a grant that lands after the
   abandonment waits, as a persistent 0, for whoever follows the redirect
   chain — conservation holds because the successor, or the next enqueuer,
   inherits it). *)
let acquire_with_timeout t ctx ~timeout =
  if timeout <= 0 then begin
    t.timeouts <- t.timeouts + 1;
    false
  end
  else begin
    let proc = Ctx.proc ctx in
    let my = t.timed_node_of_proc.(proc) in
    if my < 0 then begin
      (* Our timed node is still abandoned in the queue. *)
      t.timeouts <- t.timeouts + 1;
      false
    end
    else begin
      if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait_timed (t.vcls, t.vid));
      let deadline = Machine.now t.machine + timeout in
      Ctx.write ctx t.nodes.(my) v_locked;
      let pred = Ctx.fetch_and_store ctx t.tail my in
      Ctx.instr ctx ~reg:2 ~br:2 ();
      (* [wait] returns [Ok granted_through] on the grant, or
         [Error cur_pred] on expiry — [cur_pred] being the node we were
         spinning on when time ran out, which is NOT necessarily the node
         the fetch&store returned: every redirect we followed reclaimed
         its node and returned it to an owner who may re-enqueue it
         anywhere. An abandonment must therefore redirect to [cur_pred];
         pointing at the original predecessor would aim our successor at
         a recycled node — possibly queued *behind* it — and close a
         circular wait. *)
      let rec wait pred =
        let v = Ctx.read ctx t.nodes.(pred) in
        Ctx.instr ctx ~br:1 ();
        if v = v_released then Ok pred
        else if v >= 2 then begin
          let redirect = decode_abandoned v in
          reclaim_abandoned t ctx pred;
          wait redirect
        end
        else if Machine.now t.machine >= deadline then Error pred
        else wait pred
      in
      match wait pred with
      | Ok granted_through ->
        t.pred_of_proc.(proc) <- granted_through;
        t.timed_active.(proc) <- true;
        assert (t.holder < 0);
        t.holder <- proc;
        t.acquisitions <- t.acquisitions + 1;
        if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid));
        true
      | Error cur_pred ->
        (* Abandon by value: our successor (or the next enqueuer, if we are
           the tail) redirects to our wait position and returns this node
           to us. *)
        t.abandoner_of_node.(my) <- proc;
        t.timed_node_of_proc.(proc) <- -1;
        Ctx.write ctx t.nodes.(my) (encode_abandoned ~pred:cur_pred);
        t.timeouts <- t.timeouts + 1;
        if Ctx.hooked ctx then Ctx.emit ctx Verify.Wait_abandoned;
        false
    end
  end

let try_acquire_for t ctx ~deadline =
  acquire_with_timeout t ctx ~timeout:(deadline - Machine.now t.machine)

(* Thread-oblivious: the releasing processor is derived from the holder
   bookkeeping, not from [ctx], so a recoverer can run the release on a
   dead holder's behalf (the cycles are charged to whoever calls). *)
let release t ctx =
  let proc = t.holder in
  assert (proc >= 0);
  t.holder <- -1;
  let timed = t.timed_active.(proc) in
  t.timed_active.(proc) <- false;
  let my =
    if timed then t.timed_node_of_proc.(proc) else t.node_of_proc.(proc)
  in
  (* Hook before the grant write — the write is the transfer point, so an
     observer must order our release before the successor's acquisition. *)
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Released (t.vcls, t.vid));
  Ctx.write ctx t.nodes.(my) v_released;
  Ctx.instr ctx ~br:1 ();
  (* Adopt the predecessor's node for next time, into the slot the
     acquisition came from. *)
  if timed then t.timed_node_of_proc.(proc) <- t.pred_of_proc.(proc)
  else t.node_of_proc.(proc) <- t.pred_of_proc.(proc);
  t.pred_of_proc.(proc) <- -1

(* Force the corpse's release if the current holder has been dead longer
   than any normal recovery would take (and nobody else is already doing
   it). The grace period keeps this strictly a last resort: a waiter
   running [recover] fires within its check period (well under a
   millisecond), so whenever one exists it wins and this never triggers —
   the rescue only matters when every remaining survivor is stuck inside a
   pump and no recover call is ever coming. Detection is host-side
   bookkeeping — it costs no simulated accesses — so callers may check on
   every spin iteration. *)
let rescue_grace_cycles = 16_000 (* 1 ms at 16 MHz *)

let rescue_dead_holder t ctx =
  match holder_proc t with
  | Some dead
    when (not (Machine.proc_alive t.machine dead))
         && (not t.recovering)
         && Machine.killed_at t.machine dead >= 0
         && Machine.now t.machine - Machine.killed_at t.machine dead
            > rescue_grace_cycles ->
    t.recovering <- true;
    Fun.protect
      ~finally:(fun () -> t.recovering <- false)
      (fun () ->
        release t ctx;
        if Ctx.hooked ctx then
          Ctx.emit ctx
            (Verify.Recovered
               { cls = t.vcls; dead; latency = Ctx.since_kill ctx dead }))
  | _ -> ()

(* The queue pump used by [recover] on a free lock (below). It must spin
   dead-aware: between the pump's enqueue and its grant, another processor
   can acquire and fail-stop mid-critical-section, and if every remaining
   survivor is itself inside a pump there is no one left outside to run
   dead-holder recovery — the lock wedges with all survivors spinning on a
   corpse's node. Identical to [acquire] except that each spin iteration
   also rescues a dead holder. *)
let rec pump_spin t ctx pred =
  let v = Ctx.read ctx t.nodes.(pred) in
  Ctx.instr ctx ~br:1 ();
  if v = v_released then pred
  else if v >= 2 then begin
    let redirect = decode_abandoned v in
    reclaim_abandoned t ctx pred;
    pump_spin t ctx redirect
  end
  else begin
    rescue_dead_holder t ctx;
    pump_spin t ctx pred
  end

let pump_acquire t ctx =
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait (t.vcls, t.vid));
  let proc = Ctx.proc ctx in
  let my = t.node_of_proc.(proc) in
  Ctx.write ctx t.nodes.(my) v_locked;
  let pred = Ctx.fetch_and_store ctx t.tail my in
  Ctx.instr ctx ~reg:2 ~br:2 ();
  let granted_through = pump_spin t ctx pred in
  t.pred_of_proc.(proc) <- granted_through;
  assert (t.holder < 0);
  t.holder <- proc;
  t.acquisitions <- t.acquisitions + 1;
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid))

(* Dead-holder recovery: [release] is thread-oblivious, so recovery is the
   corpse's release run by the detector. The grant it publishes is
   level-triggered, so the successor picks it up exactly as if the dead
   processor had released in time. *)
let recover t ctx =
  match holder_proc t with
  | None ->
    (* Free lock, but the caller's timed node may still sit abandoned in
       the queue. Only an enqueuer can walk the redirect chain and return
       it — and if every other processor is dead or idle, none ever will,
       while the caller's own timed face fast-fails for want of a node.
       Pump the queue: a plain acquire on the untimed node follows the
       redirects (reclaiming our timed node en route), finds the
       level-triggered grant parked at the end of the chain, and the
       immediate release leaves the lock free again. No forced release
       happens, so the [recovering] guard stays down and the contract's
       "no effect on a free lock" holds in the queue's eyes — the pump is
       an ordinary acquire/release pair. *)
    let proc = Ctx.proc ctx in
    if t.timed_node_of_proc.(proc) < 0 then begin
      pump_acquire t ctx;
      release t ctx
    end;
    false
  | Some dead when Machine.proc_alive t.machine dead -> false
  | Some dead ->
    if t.recovering then false
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

(* Core-interface view. CLH has no cheap TryLock (the queue admits no
   removal), so [try_acquire] enqueues and waits. *)
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

  (* The tail still pointing at a node other than the holder's means a
     waiter enqueued behind it. *)
  let waiters t =
    t.holder >= 0
    &&
    let active =
      if t.timed_active.(t.holder) then t.timed_node_of_proc.(t.holder)
      else t.node_of_proc.(t.holder)
    in
    Cell.peek t.tail <> active
  let acquisitions = acquisitions
  let vclass t = t.vcls
  let vid t = t.vid
end
