(* CNA (Compact NUMA-Aware lock, Dice & Kogan): a flat MCS queue whose
   *release* is NUMA-aware. Instead of restructuring the lock into a tree
   (HMCS) or stacking two locks (Cohort), the releaser scans the main queue
   for the first waiter of its own cluster, hands the lock to it, and moves
   the skipped remote-cluster prefix onto a secondary queue. Waiters spin
   exactly as in MCS and need no extra per-lock state — the NUMA policy
   lives entirely in the release path, which is why the lock stays
   "compact": 3 words of lock state plus the usual per-processor nodes.

   Starvation bound (the escape hatch): [passes] counts consecutive
   same-cluster hand-offs. Once it reaches [threshold] while the secondary
   queue is non-empty, the secondary chain is spliced back *in front of*
   the main queue and the lock goes to its head — so a moved waiter is
   overtaken by at most [threshold] + 1 critical sections. The secondary
   queue is also flushed whenever the lock leaves the cluster anyway (no
   same-cluster waiter found) and when the main queue drains; both keep the
   invariant that every secondary node is remote to the cluster currently
   holding the lock.

   Only the lock holder ever touches the secondary queue and the pass
   counter, so they are plain host-side fields here; every queue-link
   mutation is a timed cell write, and the scan pays a timed read per
   examined node — the traffic a real CNA release generates.

   Fetch&store only: the empty-queue paths reuse the MCS repair protocol
   (victims re-installed, grafting behind usurpers), including when
   re-installing the secondary chain as the new main queue.

   Timed acquisition: a timed waiter enqueues a separate per-processor
   timed node whose [mark] cell runs the MCS abandonment handshake (a
   granter swaps the mark to claimed before writing locked = 0; an
   expiring waiter swaps it to abandoned; first swap wins the node). The
   release-side scan deliberately ignores marks — abandonment is
   discovered at *grant* time, where every hand-off funnels through
   [grant]: an abandoned grant target is unlinked and the grant passed to
   its successor, with the drained/usurped main-queue cases repaired
   exactly as a release would (including re-installing the secondary
   queue). Abandoned nodes that were moved onto the secondary queue ride
   along unlinked until a flush grants their position. *)

open Hector

let default_threshold = 16

(* Mark values on a timed node (same handshake as Mcs). *)
let mark_abandoned = 1
let mark_claimed = 2

type qnode = {
  next : Cell.t; (* successor qnode id; 0 = nil *)
  locked : Cell.t; (* 1 = wait, 0 = go *)
  mark : Cell.t; (* abandonment handshake; always 0 on regular nodes *)
  owner : int;
  cluster : int;
}

type t = {
  threshold : int;
  cluster_of : int -> int;
  tail : Cell.t; (* the lock word: id of the queue tail, 0 = free *)
  nodes : qnode array; (* one per processor *)
  machine : Machine.t;
  mutable sec_head : int; (* secondary queue of skipped remote waiters *)
  mutable sec_tail : int;
  mutable passes : int; (* consecutive same-cluster hand-offs *)
  mutable holder : int; (* processor in the critical section; -1 = none *)
  mutable acquisitions : int;
  mutable local_handoffs : int; (* hand-offs to a same-cluster waiter *)
  mutable remote_handoffs : int; (* hand-offs that left the cluster *)
  mutable moved : int; (* waiters moved onto the secondary queue *)
  mutable flushes : int; (* secondary-queue splices back into service *)
  mutable repairs : int;
  mutable grafts : int;
  active : int array; (* proc -> qnode id of its current hold *)
  mutable timeouts : int; (* timed-acquisition expiries (incl. fail-fast) *)
  mutable gc_count : int; (* abandoned nodes collected by grants *)
  mutable recovering : bool; (* serialises dead-holder recoverers *)
  vcls : Verify.lock_class;
  vid : int;
}

let nil = 0

let create ?(home = 0) ?(threshold = default_threshold) ?(vclass = "cna")
    ~(topo : Lock_core.topo) machine =
  if threshold < 1 then invalid_arg "Cna.create: threshold must be >= 1";
  let n = Machine.n_procs machine in
  let cluster_of = topo.Lock_core.cluster_of in
  {
    threshold;
    cluster_of;
    tail = Machine.alloc machine ~label:"cna.tail" ~home nil;
    nodes =
      (* [0, n): per-processor nodes; [n, 2n): their timed twins. *)
      Array.init (2 * n) (fun i ->
          let p = if i < n then i else i - n in
          let timed = i >= n in
          let c = cluster_of p in
          if c < 0 || c >= topo.Lock_core.n_clusters then
            invalid_arg "Cna.create: cluster_of out of range";
          let lbl s =
            Printf.sprintf "cna.qn%d%s.%s" p (if timed then "t" else "") s
          in
          {
            next = Machine.alloc machine ~label:(lbl "next") ~home:p nil;
            locked = Machine.alloc machine ~label:(lbl "locked") ~home:p 1;
            mark = Machine.alloc machine ~label:(lbl "mark") ~home:p 0;
            owner = p;
            cluster = c;
          });
    machine;
    sec_head = nil;
    sec_tail = nil;
    passes = 0;
    holder = -1;
    acquisitions = 0;
    local_handoffs = 0;
    remote_handoffs = 0;
    moved = 0;
    flushes = 0;
    repairs = 0;
    grafts = 0;
    active = Array.make n 0;
    timeouts = 0;
    gc_count = 0;
    recovering = false;
    vcls = Verify.lock_class vclass;
    vid = Verify.fresh_id ();
  }

let vclass t = t.vcls
let acquisitions t = t.acquisitions
let local_handoffs t = t.local_handoffs
let remote_handoffs t = t.remote_handoffs
let moved t = t.moved
let flushes t = t.flushes
let repairs t = t.repairs
let grafts t = t.grafts
let timeouts t = t.timeouts
let gc_count t = t.gc_count

(* Qnode ids are 1-based: [1, n] regular (processor id - 1), [n+1, 2n]
   timed. *)
let qid p = p + 1
let qnode t id = t.nodes.(id - 1)
let timed_qid t p = Machine.n_procs t.machine + p + 1
let is_timed_qid t id = id > Machine.n_procs t.machine

let is_free t = t.holder = -1 && Cell.peek t.tail = nil && t.sec_head = nil

let waiters t =
  t.holder >= 0
  && (Cell.peek t.tail <> t.active.(t.holder) || t.sec_head <> nil)

let got_lock t ctx =
  assert (t.holder = -1);
  t.holder <- Ctx.proc ctx;
  t.acquisitions <- t.acquisitions + 1;
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid))

(* The acquire side is stock MCS — that is CNA's point. *)
let acquire t ctx =
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait (t.vcls, t.vid));
  let p = Ctx.proc ctx in
  let me = t.nodes.(p) in
  Ctx.write ctx me.next nil;
  let pred = Ctx.fetch_and_store ctx t.tail (qid p) in
  Ctx.instr ctx ~reg:2 ~br:2 ();
  if pred <> nil then begin
    Ctx.write ctx me.locked 1;
    Ctx.write ctx (qnode t pred).next (qid p);
    Ctx.instr ctx ~reg:1 ~br:1 ();
    ignore (Ctx.spin_while ctx me.locked (fun v -> v <> 0))
  end;
  t.active.(p) <- qid p;
  got_lock t ctx

(* Hand the lock to node [id], running the abandonment handshake for timed
   nodes and collecting abandoned ones: unlink, pass the grant to the true
   successor, repairing the drained/usurped main-queue cases exactly as a
   release would. *)
let rec hand_off t ctx id =
  let nd = qnode t id in
  if not (is_timed_qid t id) then Ctx.write ctx nd.locked 0
  else if Ctx.read ctx nd.mark <> 0 then collect t ctx id
  else begin
    let prev = Ctx.fetch_and_store ctx nd.mark mark_claimed in
    Ctx.instr ctx ~br:1 ();
    if prev <> 0 then collect t ctx id else Ctx.write ctx nd.locked 0
  end

and collect t ctx id =
  t.gc_count <- t.gc_count + 1;
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Abandon_repaired t.vcls);
  let nd = qnode t id in
  Ctx.instr ctx ~br:1 ();
  let next = Ctx.read ctx nd.next in
  Ctx.instr ctx ~br:1 ();
  if next <> nil then begin
    Ctx.write ctx nd.next nil;
    Ctx.write ctx nd.mark 0;
    hand_off t ctx next
  end
  else begin
    let old_tail = Ctx.fetch_and_store ctx t.tail nil in
    Ctx.instr ctx ~reg:1 ~br:1 ();
    if old_tail = id then begin
      (* Main queue drained behind the abandoned node: the banked
         secondary chain (if any) becomes the new main queue; otherwise
         the lock is free. *)
      Ctx.write ctx nd.mark 0;
      if t.sec_head <> nil then reinstall_secondary t ctx
      else t.passes <- 0
    end
    else begin
      t.repairs <- t.repairs + 1;
      let usurper = Ctx.fetch_and_store ctx t.tail old_tail in
      Ctx.instr ctx ~br:1 ();
      let victim = Ctx.spin_while ctx nd.next (fun v -> v = nil) in
      Ctx.write ctx nd.next nil;
      Ctx.write ctx nd.mark 0;
      if usurper <> nil then begin
        t.grafts <- t.grafts + 1;
        Ctx.write ctx (qnode t usurper).next victim
      end
      else hand_off t ctx victim
    end
  end

(* Re-install the banked secondary chain as the new main queue and wake its
   head, grafting behind any usurper that enqueued on the momentarily-empty
   queue. *)
and reinstall_secondary t ctx =
  let h = t.sec_head and last = t.sec_tail in
  t.sec_head <- nil;
  t.sec_tail <- nil;
  t.flushes <- t.flushes + 1;
  t.passes <- 0;
  let usurper = Ctx.fetch_and_store ctx t.tail last in
  Ctx.instr ctx ~br:1 ();
  if usurper <> nil then begin
    t.grafts <- t.grafts + 1;
    Ctx.write ctx (qnode t usurper).next h
  end
  else begin
    t.remote_handoffs <- t.remote_handoffs + 1;
    hand_off t ctx h
  end

(* Append the already-linked chain [first .. last] to the secondary
   queue. The chain's links are live cells; only the join is written. *)
let append_secondary t ctx ~first ~last =
  if t.sec_head = nil then t.sec_head <- first
  else Ctx.write ctx (qnode t t.sec_tail).next first;
  t.sec_tail <- last

(* Splice the secondary queue in front of [head_id] (the main-queue head)
   and hand the lock to the secondary's own head. Used by the escape hatch
   and by hand-offs that leave the cluster anyway. *)
let flush_secondary_before t ctx head_id =
  let h = t.sec_head in
  Ctx.write ctx (qnode t t.sec_tail).next head_id;
  t.sec_head <- nil;
  t.sec_tail <- nil;
  t.flushes <- t.flushes + 1;
  t.passes <- 0;
  t.remote_handoffs <- t.remote_handoffs + 1;
  hand_off t ctx h

(* Hand the lock onward given the main-queue head [succ_id], applying the
   NUMA policy: prefer a same-cluster waiter, move the skipped prefix to
   the secondary queue, respect the starvation bound. [my_cluster] is the
   releasing processor's cluster. *)
let dispatch t ctx ~my_cluster succ_id =
  Ctx.instr ctx ~br:1 ();
  if t.sec_head <> nil && t.passes >= t.threshold then
    (* Escape hatch: the moved waiters have been overtaken [threshold]
       times; put them first. *)
    flush_secondary_before t ctx succ_id
  else begin
    (* Scan the linked part of the queue for the first same-cluster
       waiter. [prev] trails [cur]; the prefix [succ_id .. prev] is remote
       when a local waiter is found at [cur]. *)
    let rec scan prev cur n_skipped =
      Ctx.instr ctx ~reg:1 ~br:1 ();
      if (qnode t cur).cluster = my_cluster then begin
        if prev <> nil then begin
          (* Cut the remote prefix out of the main queue and bank it. *)
          t.moved <- t.moved + n_skipped;
          Ctx.write ctx (qnode t prev).next nil;
          append_secondary t ctx ~first:succ_id ~last:prev
        end;
        t.passes <- t.passes + 1;
        t.local_handoffs <- t.local_handoffs + 1;
        hand_off t ctx cur
      end
      else begin
        let nxt = Ctx.read ctx (qnode t cur).next in
        Ctx.instr ctx ~br:1 ();
        if nxt = nil then begin
          (* No same-cluster waiter in the linked chain (the true tail may
             still be mid-enqueue; skipping it would be unsafe). The lock
             leaves the cluster: flush the secondary queue ahead of the
             untouched main queue, or hand to the head directly. *)
          if t.sec_head <> nil then flush_secondary_before t ctx succ_id
          else begin
            t.passes <- 0;
            t.remote_handoffs <- t.remote_handoffs + 1;
            hand_off t ctx succ_id
          end
        end
        else scan cur nxt (n_skipped + 1)
      end
    in
    scan nil succ_id 1
  end

(* Thread-oblivious: the releasing processor is derived from the holder
   bookkeeping, not from [ctx], so a recoverer can run the release on a
   dead holder's behalf. The NUMA policy keys off the *holder's* cluster
   either way — the lock prefers to stay where the critical section ran. *)
let release t ctx =
  let p = t.holder in
  assert (p >= 0);
  let my_id = t.active.(p) in
  let me = qnode t my_id in
  let my_cluster = me.cluster in
  t.holder <- -1;
  let succ = Ctx.read ctx me.next in
  Ctx.instr ctx ~br:1 ();
  (* Hook after the successor read but before anything that can transfer
     the lock, so an observer orders our release before the successor's
     acquisition. *)
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Released (t.vcls, t.vid));
  if succ <> nil then dispatch t ctx ~my_cluster succ
  else begin
    let old_tail = Ctx.fetch_and_store ctx t.tail nil in
    Ctx.instr ctx ~reg:1 ~br:1 ();
    if old_tail = my_id then begin
      (* Main queue drained. If skipped waiters are banked, re-install
         their chain as the new main queue and wake its head; a usurper
         that enqueued on the momentarily-empty queue holds the lock, so
         graft the chain behind it instead. *)
      if t.sec_head <> nil then reinstall_secondary t ctx
      else t.passes <- 0
    end
    else begin
      (* The fetch&store removed waiters: standard MCS repair, then apply
         the NUMA policy to the re-installed head. *)
      t.repairs <- t.repairs + 1;
      let usurper = Ctx.fetch_and_store ctx t.tail old_tail in
      Ctx.instr ctx ~br:1 ();
      let victim = Ctx.spin_while ctx me.next (fun v -> v = nil) in
      if usurper <> nil then begin
        t.grafts <- t.grafts + 1;
        Ctx.write ctx (qnode t usurper).next victim
      end
      else dispatch t ctx ~my_cluster victim
    end
  end

(* Timed acquisition on the per-processor timed node. Whether the node sits
   in the main queue or was moved to the secondary queue, the waiter spins
   on its own locked cell just like any CNA waiter; expiry runs the mark
   handshake, and a claim-race loss means a hand-off committed — the lock
   is taken even past the deadline. Fail-fast ([timeout <= 0], or the
   timed node still abandoned in a queue) touches nothing. *)
let acquire_with_timeout t ctx ~timeout =
  if timeout <= 0 then begin
    t.timeouts <- t.timeouts + 1;
    false
  end
  else begin
    let p = Ctx.proc ctx in
    let my_id = timed_qid t p in
    let me = qnode t my_id in
    let still_queued = Ctx.read ctx me.mark in
    Ctx.instr ctx ~br:1 ();
    if still_queued <> 0 then begin
      t.timeouts <- t.timeouts + 1;
      false
    end
    else begin
      if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait_timed (t.vcls, t.vid));
      let deadline = Machine.now t.machine + timeout in
      Ctx.write ctx me.next nil;
      let pred = Ctx.fetch_and_store ctx t.tail my_id in
      Ctx.instr ctx ~reg:2 ~br:2 ();
      let take () =
        Ctx.write ctx me.mark 0;
        t.active.(p) <- my_id;
        got_lock t ctx;
        true
      in
      if pred = nil then begin
        t.active.(p) <- my_id;
        got_lock t ctx;
        true
      end
      else begin
        Ctx.write ctx me.locked 1;
        Ctx.write ctx (qnode t pred).next my_id;
        Ctx.instr ctx ~reg:1 ~br:1 ();
        let granted =
          Ctx.spin_while ~deadline ctx me.locked (fun v -> v <> 0) = 0
        in
        if granted then take ()
        else begin
          let prev = Ctx.fetch_and_store ctx me.mark mark_abandoned in
          Ctx.instr ctx ~br:1 ();
          if prev = mark_claimed then begin
            (* A hand-off committed before our abandonment: the lock is
               ours; nobody else will ever receive it. *)
            ignore (Ctx.spin_while ctx me.locked (fun v -> v <> 0));
            take ()
          end
          else begin
            (* Abandonment stands: the node remains queued, marked, until
               a grant reaches and collects it. *)
            t.timeouts <- t.timeouts + 1;
            if Ctx.hooked ctx then Ctx.emit ctx Verify.Wait_abandoned;
            false
          end
        end
      end
    end
  end

let try_acquire_for t ctx ~deadline =
  acquire_with_timeout t ctx ~timeout:(deadline - Machine.now t.machine)

(* Dead-holder recovery: the thread-oblivious release runs the full CNA
   policy — scan, secondary-queue banking, abandoned-node GC — on the
   corpse's behalf. *)
let recover t ctx =
  let dead = t.holder in
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

(* Core-interface view; [create] clusters by hardware station and
   [try_acquire] enqueues and waits. *)
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
  let waiters = waiters
  let acquisitions = acquisitions
  let vclass = vclass
  let vid t = t.vid
end
