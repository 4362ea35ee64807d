(* MCS distributed locks, fetch&store variant, with the paper's two
   modifications (Figure 3a/3b) and the TryLock extensions of Section 3.2.

   Variants:
   - [Original]  Mellor-Crummey & Scott, using only fetch&store (HECTOR has
                 no compare&swap): acquire initialises the queue node; the
                 release checks for a successor and repairs the queue when
                 the unconditional fetch&store removed waiters by accident.
   - [H1]        queue nodes are pre-initialised (next = nil, locked = true)
                 and re-initialised on the *contended* path only, removing
                 the initialisation store from the uncontended acquire.
   - [H2]        additionally removes the successor check from release: the
                 release always runs the fetch&store path, adding a constant
                 repair cost under contention but saving a memory access in
                 the common, uncontended case.

   Queue nodes live in the owner's local memory, so waiting processors spin
   locally — the defining property of a distributed (queue) lock.

   The queue-repair protocol (release finds old_tail <> I after storing nil)
   follows the MCS paper: a second fetch&store re-installs the victims'
   tail; if some "usurper" enqueued in the window, the victims are grafted
   behind the usurper's tail and the lock stays with the usurper.

   TryLock:
   - variant 1 ("in-use flag"): every acquire/release marks the processor's
     node busy; an interrupt handler only starts waiting when the flag shows
     it did not interrupt the lock holder on its own processor. Not a true
     TryLock (it may wait), and the flag writes slow the uncontended path.
   - variant 2 ("interrupt node"): a separate pre-allocated node per
     processor; a true TryLock that enqueues, and on failure *abandons* the
     node in the queue with a mark. Release garbage-collects abandoned
     nodes. Inherently unfair to retrying remote requesters when the lock is
     saturated (Section 3.2), which experiment TRY demonstrates. *)

open Hector

type variant = Original | H1 | H2

let variant_name = function
  | Original -> "MCS"
  | H1 -> "H1-MCS"
  | H2 -> "H2-MCS"

type qnode = {
  next : Cell.t; (* successor qnode id; 0 = nil *)
  locked : Cell.t; (* 1 = wait, 0 = go *)
  mark : Cell.t; (* trylock bookkeeping: 1 = abandoned in queue (interrupt
                    nodes), or in-use flag (variant-1 regular nodes) *)
  owner : int; (* owning processor *)
  mutable dirty_locked : bool;
      (* the locked flag was cleared by a releaser and awaits
         re-initialisation (H1/H2 only) *)
}

type t = {
  variant : variant;
  tail : Cell.t; (* the lock word L: id of the queue tail, 0 = free *)
  nodes : qnode array; (* [0, n): per-processor nodes;
                          [n, 2n): per-processor interrupt nodes *)
  machine : Machine.t;
  use_cas_release : bool; (* Section 5.2 ablation *)
  track_in_use : bool; (* TryLock variant 1 *)
  mutable holder : int; (* qnode id holding the lock; bookkeeping only *)
  mutable acquisitions : int;
  mutable repairs : int; (* releases that found old_tail <> I *)
  mutable grafts : int; (* repairs that found a usurper *)
  mutable try_failures : int;
  mutable gc_count : int; (* abandoned nodes collected by release *)
  mutable timeouts : int; (* acquire_with_timeout deadline expiries *)
  mutable recovering : bool; (* serialises dead-holder recoverers *)
  vcls : Verify.lock_class;
  vid : int;
}

let nil = 0

(* Mark values on an interrupt node. [mark_claimed] is written by a
   releaser's atomic swap to commit a hand-off to a live timeout waiter;
   the swap is what makes hand-off and abandonment race-free (whoever swaps
   the mark first wins the node). *)
let mark_abandoned = 1
let mark_claimed = 2

let create ?(variant = H2) ?(home = 0) ?(use_cas_release = false)
    ?(track_in_use = false) ?(vclass = "mcs") machine =
  let n = Machine.n_procs machine in
  let mk_node ~interrupt p =
    let label kind =
      Printf.sprintf "qn%s.p%d%s" kind p (if interrupt then "i" else "")
    in
    {
      (* Pre-initialised per the H1 discipline: next = nil, locked = 1.
         The Original variant ignores the pre-initialisation and writes its
         own, as in Figure 3a. *)
      next = Machine.alloc machine ~label:(label "next") ~home:p nil;
      locked = Machine.alloc machine ~label:(label "locked") ~home:p 1;
      mark = Machine.alloc machine ~label:(label "mark") ~home:p 0;
      owner = p;
      dirty_locked = false;
    }
  in
  {
    variant;
    tail = Machine.alloc machine ~label:"mcs.tail" ~home nil;
    nodes =
      Array.init (2 * n) (fun i ->
          if i < n then mk_node ~interrupt:false i
          else mk_node ~interrupt:true (i - n));
    machine;
    use_cas_release;
    track_in_use;
    holder = nil;
    acquisitions = 0;
    repairs = 0;
    grafts = 0;
    try_failures = 0;
    gc_count = 0;
    timeouts = 0;
    recovering = false;
    vcls = Verify.lock_class vclass;
    vid = Machine.fresh_lock_id machine;
  }

let variant t = t.variant
let vclass t = t.vcls
let acquisitions t = t.acquisitions
let repairs t = t.repairs
let grafts t = t.grafts
let try_failures t = t.try_failures
let gc_count t = t.gc_count
let timeouts t = t.timeouts

(* Qnode ids are 1-based indices into [nodes]. *)
let id_of_node t node =
  let n = Machine.n_procs t.machine in
  if t.nodes.(node.owner) == node then node.owner + 1 else n + node.owner + 1

let node_of_id t id = t.nodes.(id - 1)
let regular_node t proc = t.nodes.(proc)
let interrupt_node t proc = t.nodes.(Machine.n_procs t.machine + proc)

(* Untimed; for test assertions. *)
let is_held t = t.holder <> nil
let is_free t = Cell.peek t.tail = nil && t.holder = nil
let holder_proc t = if t.holder = nil then None else Some (node_of_id t t.holder).owner

(* Spin locally until our locked flag clears. Each poll is a load from the
   spinner's own memory module — local spinning is what removes the
   second-order network effects. *)
let spin_while_locked ctx node =
  ignore (Ctx.spin_while ctx node.locked (fun v -> v <> 0))

let got_lock t node =
  assert (t.holder = nil);
  t.holder <- id_of_node t node;
  t.acquisitions <- t.acquisitions + 1

(* Common contended-path tail of acquire: link behind [pred_id] and wait. *)
let wait_behind t ctx node pred_id =
  (match t.variant with
  | Original ->
    (* Figure 3a: I->locked := true, then pred->next := I. *)
    Ctx.write ctx node.locked 1;
    Ctx.write ctx (node_of_id t pred_id).next (id_of_node t node)
  | H1 | H2 ->
    (* locked is already 1 by the pre-initialisation invariant; the releaser
       will clear it, so remember to re-initialise it — off the hand-off
       critical path, at our own next release. *)
    node.dirty_locked <- true;
    Ctx.write ctx (node_of_id t pred_id).next (id_of_node t node));
  Ctx.instr ctx ~reg:1 ~br:1 ();
  spin_while_locked ctx node;
  got_lock t node

let acquire_with_node t ctx node =
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait (t.vcls, t.vid));
  (match t.variant with
  | Original -> Ctx.write ctx node.next nil (* the initialisation store *)
  | H1 | H2 -> ());
  if t.track_in_use then Ctx.write ctx node.mark 1;
  let pred = Ctx.fetch_and_store ctx t.tail (id_of_node t node) in
  Ctx.instr ctx ~reg:2 ~br:2 ();
  if pred = nil then got_lock t node else wait_behind t ctx node pred;
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid))

let acquire t ctx = acquire_with_node t ctx (regular_node t (Ctx.proc ctx))

(* Find who comes after [node], repairing the queue if our unconditional
   fetch&store removed waiters. [check_next] is the successor check the H2
   modification removes. Returns:
   - [`Next id]  the successor now owed the lock;
   - [`Free]     the queue was empty, the lock is free;
   - [`Grafted]  an usurper acquired in the repair window; our victims were
                 appended behind it and the lock is no longer ours to give.

   Re-initialisation of [node.next] is the caller's job (deferred past the
   hand-off so it never delays the next lock holder). *)
let successor_after t ctx node ~check_next =
  let next_hint =
    if check_next then begin
      let next = Ctx.read ctx node.next in
      Ctx.instr ctx ~br:1 ();
      next
    end
    else nil
  in
  if next_hint <> nil then `Next next_hint
  else begin
    let old_tail = Ctx.fetch_and_store ctx t.tail nil in
    Ctx.instr ctx ~reg:1 ~br:1 ();
    if old_tail = id_of_node t node then `Free
    else begin
      (* We removed waiters (node .. old_tail chain): put them back. *)
      t.repairs <- t.repairs + 1;
      let usurper = Ctx.fetch_and_store ctx t.tail old_tail in
      Ctx.instr ctx ~br:1 ();
      (* Wait for the victim head pointer to materialise. *)
      let victim = Ctx.spin_while ctx node.next (fun v -> v = nil) in
      if usurper <> nil then begin
        (* The usurper (tail of the new chain) just enqueued on an empty
           queue, so its next is nil and stays ours to set. *)
        t.grafts <- t.grafts + 1;
        Ctx.write ctx (node_of_id t usurper).next victim;
        `Grafted
      end
      else `Next victim
    end
  end

(* Release with a compare&swap (Section 5.2 ablation): the uncontended
   release is CAS(L, I, nil); on failure the successor is awaited, no repair
   needed. *)
let successor_after_cas t ctx node =
  let me = id_of_node t node in
  if Ctx.compare_and_swap ctx t.tail ~expect:me ~set:nil then begin
    Ctx.instr ctx ~br:1 ();
    `Free
  end
  else begin
    Ctx.instr ctx ~br:1 ();
    `Next (Ctx.spin_while ctx node.next (fun v -> v = nil))
  end

(* Hand the lock to [succ_id], garbage-collecting abandoned TryLock nodes
   (a marked interrupt node means its owner gave up and left). A live
   (unmarked) interrupt node is a timeout-capable waiter: commit the
   hand-off to it by atomically claiming its mark, so an abandonment racing
   with us cannot strand the lock — whoever swaps the mark first wins. *)
let rec hand_off t ctx succ_id =
  let succ = node_of_id t succ_id in
  let n = Machine.n_procs t.machine in
  let is_interrupt_node = succ_id > n in
  if is_interrupt_node then begin
    if Ctx.read ctx succ.mark <> 0 then collect t ctx succ
    else begin
      let prev = Ctx.fetch_and_store ctx succ.mark mark_claimed in
      Ctx.instr ctx ~br:1 ();
      if prev <> 0 then
        (* The owner abandoned between our read and our swap. *)
        collect t ctx succ
      else Ctx.write ctx succ.locked 0
    end
  end
  else Ctx.write ctx succ.locked 0

(* Unlink an abandoned interrupt node, restore its pre-initialised state,
   free it for its owner, and continue down the queue. *)
and collect t ctx succ =
  t.gc_count <- t.gc_count + 1;
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Abandon_repaired t.vcls);
  Ctx.instr ctx ~br:1 ();
  let continuation = successor_after t ctx succ ~check_next:true in
  (match continuation with
  | `Next _ | `Grafted -> Ctx.write ctx succ.next nil
  | `Free -> ());
  Ctx.write ctx succ.mark 0;
  match continuation with
  | `Free | `Grafted -> ()
  | `Next next_id -> hand_off t ctx next_id

let release_with_node t ctx node =
  assert (t.holder = id_of_node t node);
  t.holder <- nil;
  (* Hook before the successor hunt: [successor_after]'s fetch&store window
     is itself a transfer point (a usurper acquires the instant the tail
     reads nil), so an observer must order our release before any
     successor's acquisition — and never the reverse. *)
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Released (t.vcls, t.vid));
  if t.track_in_use then Ctx.write ctx node.mark 0;
  let successor =
    if t.use_cas_release then successor_after_cas t ctx node
    else
      (* H2's modification 2 skips the successor check and always runs the
         fetch&store path. *)
      successor_after t ctx node ~check_next:(t.variant <> H2)
  in
  (match successor with
  | `Free -> Ctx.instr ctx ~br:1 ()
  | `Grafted -> ()
  | `Next succ_id -> hand_off t ctx succ_id);
  (* Deferred re-initialisation (H1 discipline): restore the node's
     pre-initialised state *after* the hand-off, so the stores — local,
     contended-path-only — never delay the next lock holder. *)
  match t.variant with
  | Original -> ()
  | H1 | H2 ->
    (match successor with
    | `Next _ | `Grafted -> Ctx.write ctx node.next nil
    | `Free -> ());
    if node.dirty_locked then begin
      Ctx.write ctx node.locked 1;
      node.dirty_locked <- false
    end

let release t ctx =
  let node =
    if t.holder <> nil then node_of_id t t.holder
    else regular_node t (Ctx.proc ctx)
  in
  release_with_node t ctx node

(* Dead-holder recovery: the queue bookkeeping names the holder's qnode
   ([t.holder]), so [release] already runs correctly from any processor —
   recovery is that release performed by a detector on the corpse's
   behalf, hand-off (and abandoned-node GC) included. The recoverer does
   not end up holding the lock; it re-contends normally. *)
let recover t ctx =
  if t.recovering then false
  else
    match holder_proc t with
    | None -> false
    | Some dead when Machine.proc_alive t.machine dead -> false
    | Some dead ->
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

(* TryLock variant 1: an interrupt handler may wait for the lock only when
   the in-use flag shows it did not interrupt the lock holder (or a waiter)
   on this same processor. Requires the lock to be created with
   [~track_in_use:true]. *)
let try_acquire_v1 t ctx =
  if not t.track_in_use then
    invalid_arg "Mcs.try_acquire_v1: lock lacks ~track_in_use:true";
  let node = regular_node t (Ctx.proc ctx) in
  let busy = Ctx.read ctx node.mark in
  Ctx.instr ctx ~br:1 ();
  if busy <> 0 then begin
    t.try_failures <- t.try_failures + 1;
    false
  end
  else begin
    acquire_with_node t ctx node;
    true
  end

(* TryLock variant 2: a true TryLock using the per-processor interrupt
   node. On failure the node is left in the queue, marked abandoned, for
   release to collect. *)
let try_acquire_v2 t ctx =
  let node = interrupt_node t (Ctx.proc ctx) in
  (* If our interrupt node is still queued from an earlier failed attempt we
     cannot reuse it yet. *)
  let still_queued = Ctx.read ctx node.mark in
  Ctx.instr ctx ~br:1 ();
  if still_queued <> 0 then begin
    t.try_failures <- t.try_failures + 1;
    false
  end
  else begin
    let pred = Ctx.fetch_and_store ctx t.tail (id_of_node t node) in
    Ctx.instr ctx ~reg:1 ~br:2 ();
    if pred = nil then begin
      got_lock t node;
      if Ctx.hooked ctx then Ctx.emit ctx (Verify.Try_acquired (t.vcls, t.vid));
      true
    end
    else begin
      (* The lock is held: mark the node abandoned *before* linking it in,
         so a releaser that reaches it always sees the mark and collects it
         instead of waking a node nobody is watching. *)
      Ctx.write ctx node.mark mark_abandoned;
      Ctx.write ctx (node_of_id t pred).next (id_of_node t node);
      t.try_failures <- t.try_failures + 1;
      false
    end
  end

(* Timeout-capable acquire, on the interrupt node (Chabbi et al.'s MCS-try
   family, adapted to the fetch&store-only queue): enqueue and spin like a
   normal acquire, but give up once [timeout] cycles pass. A timed-out node
   is abandoned in place — marked, exactly like a failed TryLock-v2 node —
   and a later release collects it with the same GC machinery.

   The abandonment handshake: a releaser that reaches a live interrupt node
   first atomically swaps its mark to [mark_claimed], then clears [locked];
   a waiter whose deadline expires atomically swaps the mark to
   [mark_abandoned]. Whichever swap lands first wins the node, so the lock
   is never handed to a waiter that already left, and a waiter never walks
   away from a hand-off that already committed. *)
let acquire_with_timeout t ctx ~timeout =
  if timeout <= 0 then begin
    (* Already-expired deadline: fail before touching the lock — no
       enqueue, no reads, no hook traffic (pinned by test_mcs). *)
    t.timeouts <- t.timeouts + 1;
    false
  end
  else begin
  let node = interrupt_node t (Ctx.proc ctx) in
  (* A node abandoned by an earlier timeout may still sit in the queue. *)
  let still_queued = Ctx.read ctx node.mark in
  Ctx.instr ctx ~br:1 ();
  if still_queued <> 0 then begin
    t.try_failures <- t.try_failures + 1;
    false
  end
  else begin
    if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait_timed (t.vcls, t.vid));
    let deadline = Machine.now t.machine + timeout in
    (match t.variant with
    | Original -> Ctx.write ctx node.next nil
    | H1 | H2 -> ());
    let pred = Ctx.fetch_and_store ctx t.tail (id_of_node t node) in
    Ctx.instr ctx ~reg:2 ~br:2 ();
    if pred = nil then begin
      got_lock t node;
      if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid));
      true
    end
    else begin
      (match t.variant with
      | Original -> Ctx.write ctx node.locked 1
      | H1 | H2 -> node.dirty_locked <- true);
      Ctx.write ctx (node_of_id t pred).next (id_of_node t node);
      Ctx.instr ctx ~reg:1 ~br:1 ();
      let granted =
        Ctx.spin_while ~deadline ctx node.locked (fun v -> v <> 0) = 0
      in
      if granted then begin
        (* The releaser claimed the node (mark := claimed) before clearing
           [locked]; make the node reusable again. *)
        Ctx.write ctx node.mark 0;
        got_lock t node;
        if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid));
        true
      end
      else begin
        let prev = Ctx.fetch_and_store ctx node.mark mark_abandoned in
        Ctx.instr ctx ~br:1 ();
        if prev = mark_claimed then begin
          (* Lost the race: a hand-off to us already committed, so the
             clearing of [locked] is on its way. Take the lock after all. *)
          spin_while_locked ctx node;
          Ctx.write ctx node.mark 0;
          got_lock t node;
          if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid));
          true
        end
        else begin
          (* Abandonment stands: the node stays queued, marked, until some
             release collects it. [locked] was never cleared, preserving
             the pre-initialisation invariant. *)
          node.dirty_locked <- false;
          t.timeouts <- t.timeouts + 1;
          if Ctx.hooked ctx then Ctx.emit ctx Verify.Wait_abandoned;
          false
        end
      end
    end
  end
  end

(* The {!Lock_core} timed face: absolute deadline, delegating to the
   relative-timeout entry point above. *)
let try_acquire_for t ctx ~deadline =
  acquire_with_timeout t ctx ~timeout:(deadline - Machine.now t.machine)

(* Core-interface view (H2 variant, the kernel's default). [waiters] is the
   untimed queue-non-empty hint a cohort release consults: the tail trailing
   the holder's node means someone enqueued behind it (an abandoned TryLock
   node also counts — the hint may overshoot, never deadlock, since the
   passed-to local head re-checks nothing: local passing only needs the
   global lock to stay held, which it does). *)
module Core = struct
  type nonrec t = t

  let acquire = acquire
  let release = release
  let try_acquire = try_acquire_v2
  let try_acquire_for = try_acquire_for
  let abortable _ = true
  let recover = recover
  let recoverable _ = true
  let is_free = is_free
  let waiters t = t.holder <> nil && Cell.peek t.tail <> t.holder
  let acquisitions = acquisitions
  let vclass = vclass
  let vid t = t.vid
end
