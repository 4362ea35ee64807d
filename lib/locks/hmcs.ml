(* HMCS (Chabbi, Fagan & Mellor-Crummey): a hierarchical MCS lock built as
   a two-level tree of MCS queues — one local queue per cluster plus one
   root queue whose nodes represent whole clusters.

   Where {!Cohort} composes two opaque locks and needs a side flag
   ([owned]) plus a waiter hint, HMCS fuses the levels: the word a local
   waiter spins on *is* the hand-off channel, and its value carries the
   protocol state. A waiter is released with
   - a value in [1, threshold]: the lock arrives with the root already
     held by this cluster; the value is the running count of consecutive
     local hand-offs (the paper's curcount), so the fairness bound needs
     no extra word or host-side state;
   - [acquire_parent] (= threshold + 1): the previous local head exhausted
     the budget or the root must change hands; the waiter becomes the new
     local head and must acquire the root queue itself.

   The root level is a plain MCS queue over per-cluster nodes: only a
   cluster's current local head ever touches its cluster's root node, so
   one node per cluster suffices. Both levels use the fetch&store-only
   repair protocol of {!Mcs} (HECTOR has no compare&swap): a release that
   dequeued waiters by accident re-installs them, grafting them behind any
   usurper that slipped in.

   Space: 1 (root tail) + 3 per cluster (root node + local tail)
   + 2 per processor (local node). Timed acquisition adds a second,
   marked node per processor and per cluster (the MCS interrupt-node
   convention — excluded from the space accounting like MCS's own
   interrupt nodes), plus one busy word per root cnode: because a
   cluster's root release may run in a different processor's context
   than its next local head (collect_local's demotion empties the local
   tail before releasing the root), a cnode could otherwise be
   re-enqueued while a release through it is still unlinking it. The
   busy word covers the cnode's whole root-queue residency — enqueue
   to end of release/collect — and gates re-entry at both faces.

   Timed acquisition (HMCS-T, after "Correctness of Hierarchical MCS Locks
   with Timeout"): a timed waiter enqueues a separate *timed* node whose
   [mark] cell runs the same abandonment handshake as {!Mcs}'s interrupt
   nodes — a releaser commits a hand-off to a live timed node by swapping
   the mark to claimed before writing the protocol value; a waiter whose
   deadline expires swaps the mark to abandoned; whoever swaps first wins
   the node. The same protocol runs at {e both} tree levels: the local
   queues (qnode marks) and the root queue (cnode marks, one timed cnode
   per cluster). Every signal therefore goes through [signal_local] /
   [signal_root], which collect abandoned nodes in the releaser's context:
   unlink, pass the in-flight protocol value to the true successor (repair
   and graft exactly as a release would), and — crucially — if a
   root-carrying value (a pass count in [1, threshold]) drains into an
   empty local queue or grafts behind a usurping fresh head, the collector
   must release the root on the cluster's behalf, or root ownership would
   be stranded. A timed waiter that loses the claim race takes the lock
   and returns [true] even past its deadline (the hand-off committed;
   nobody else will ever receive it) — except a claim-race loss that
   delivers [acquire_parent], which confers only local headship, not the
   lock: the waiter passes headship onward and fails. *)

open Hector

let default_threshold = 16

(* Mark values on a timed node, either level (same handshake as Mcs). *)
let mark_abandoned = 1
let mark_claimed = 2

type qnode = {
  next : Cell.t; (* successor qnode id; 0 = nil *)
  locked : Cell.t; (* 0 = wait; 1..threshold = go, root held, pass count;
                      threshold + 1 = go, acquire the root yourself *)
  mark : Cell.t; (* abandonment handshake; always 0 on regular nodes *)
  owner : int;
}

type cnode = {
  cnext : Cell.t; (* successor cnode id; 0 = nil *)
  clocked : Cell.t; (* 1 = wait, 0 = go *)
  cmark : Cell.t; (* abandonment handshake; always 0 on regular cnodes *)
  cbusy : Cell.t; (* 1 from enqueue on the root queue until the cnode is
                     fully unlinked again (a release or collect through it
                     has completed). Guards against re-enqueueing a cnode
                     that a concurrent [release_root]/[collect_root] — run
                     by a *different* processor of the same cluster — is
                     still unlinking; see [acquire_root_via]. *)
}

type t = {
  threshold : int;
  n_clusters : int;
  cluster_of : int -> int;
  root_tail : Cell.t; (* cnode id of the root-queue tail; 0 = free *)
  cnodes : cnode array; (* [0, C): per-cluster; [C, 2C): timed *)
  local_tails : Cell.t array; (* qnode id of each cluster's tail; 0 = free *)
  nodes : qnode array; (* [0, n): per-processor; [n, 2n): timed *)
  machine : Machine.t;
  mutable holder : int; (* processor in the critical section; -1 = none *)
  active : int array; (* proc -> qnode id of its current hold *)
  root_via : int array; (* cluster -> cnode id holding the root for it *)
  mutable acquisitions : int;
  mutable local_passes : int; (* hand-offs that kept the root in-cluster *)
  mutable global_releases : int; (* releases that gave up the root *)
  mutable repairs : int; (* fetch&store removed waiters; queue re-installed *)
  mutable grafts : int; (* repairs that found a usurper *)
  mutable timeouts : int; (* timed-acquisition expiries (incl. fail-fast) *)
  mutable gc_count : int; (* abandoned nodes collected, both levels *)
  mutable recovering : bool; (* serialises dead-holder recoverers *)
  vcls : Verify.lock_class;
  vid : int;
}

let nil = 0
let w_wait = 0

let acquire_parent t = t.threshold + 1

let create ?(home = 0) ?(threshold = default_threshold) ?(vclass = "hmcs")
    ~(topo : Lock_core.topo) machine =
  if threshold < 1 then invalid_arg "Hmcs.create: threshold must be >= 1";
  let n = Machine.n_procs machine in
  let n_clusters = topo.Lock_core.n_clusters in
  let cluster_of = topo.Lock_core.cluster_of in
  (* Home each cluster's root node and tail at its lowest processor, each
     processor's queue node in its own memory (local spinning). *)
  let cluster_home = Array.make n_clusters home in
  for p = n - 1 downto 0 do
    let c = cluster_of p in
    if c < 0 || c >= n_clusters then
      invalid_arg "Hmcs.create: cluster_of out of range";
    cluster_home.(c) <- p
  done;
  let mk_cnode c timed =
    let lbl s =
      Printf.sprintf "hmcs.cn%d%s.%s" c (if timed then "t" else "") s
    in
    {
      cnext = Machine.alloc machine ~label:(lbl "next") ~home:cluster_home.(c) nil;
      clocked =
        Machine.alloc machine ~label:(lbl "locked") ~home:cluster_home.(c) 1;
      cmark = Machine.alloc machine ~label:(lbl "mark") ~home:cluster_home.(c) 0;
      cbusy = Machine.alloc machine ~label:(lbl "busy") ~home:cluster_home.(c) 0;
    }
  in
  let mk_qnode p timed =
    let lbl s =
      Printf.sprintf "hmcs.qn%d%s.%s" p (if timed then "t" else "") s
    in
    {
      next = Machine.alloc machine ~label:(lbl "next") ~home:p nil;
      locked = Machine.alloc machine ~label:(lbl "locked") ~home:p w_wait;
      mark = Machine.alloc machine ~label:(lbl "mark") ~home:p 0;
      owner = p;
    }
  in
  {
    threshold;
    n_clusters;
    cluster_of;
    root_tail = Machine.alloc machine ~label:"hmcs.root" ~home nil;
    cnodes =
      Array.init (2 * n_clusters) (fun i ->
          if i < n_clusters then mk_cnode i false
          else mk_cnode (i - n_clusters) true);
    local_tails =
      Array.init n_clusters (fun c ->
          Machine.alloc machine
            ~label:(Printf.sprintf "hmcs.tail%d" c)
            ~home:cluster_home.(c) nil);
    nodes =
      Array.init (2 * n) (fun i ->
          if i < n then mk_qnode i false else mk_qnode (i - n) true);
    machine;
    holder = -1;
    active = Array.make n 0;
    root_via = Array.make n_clusters 0;
    acquisitions = 0;
    local_passes = 0;
    global_releases = 0;
    repairs = 0;
    grafts = 0;
    timeouts = 0;
    gc_count = 0;
    recovering = false;
    vcls = Verify.lock_class vclass;
    vid = Verify.fresh_id ();
  }

let vclass t = t.vcls
let acquisitions t = t.acquisitions
let local_passes t = t.local_passes
let global_releases t = t.global_releases
let repairs t = t.repairs
let grafts t = t.grafts
let timeouts t = t.timeouts
let gc_count t = t.gc_count

(* Qnode ids are 1-based: [1, n] regular (processor id - 1), [n+1, 2n]
   timed. Cnode ids likewise: [1, C] regular, [C+1, 2C] timed. *)
let qid p = p + 1
let qnode t id = t.nodes.(id - 1)
let timed_qid t p = Machine.n_procs t.machine + p + 1
let is_timed_qid t id = id > Machine.n_procs t.machine
let cid c = c + 1
let cnode t id = t.cnodes.(id - 1)
let timed_cid t c = t.n_clusters + c + 1
let is_timed_cid t id = id > t.n_clusters

let is_free t =
  t.holder = -1
  && Cell.peek t.root_tail = nil
  && Array.for_all (fun tl -> Cell.peek tl = nil) t.local_tails

let waiters t =
  t.holder >= 0
  &&
  let hc = t.cluster_of t.holder in
  let expected c = if c = hc then t.active.(t.holder) else nil in
  let found = ref false in
  Array.iteri
    (fun c tl -> if Cell.peek tl <> expected c then found := true)
    t.local_tails;
  !found

let got_lock t ctx =
  assert (t.holder = -1);
  t.holder <- Ctx.proc ctx;
  t.acquisitions <- t.acquisitions + 1;
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls, t.vid))

(* -- root level ----------------------------------------------------------- *)

(* Wake root-queue node [id], running the abandonment handshake when it is
   a timed cnode and collecting it if its owner gave up. *)
let rec signal_root t ctx id =
  let cn = cnode t id in
  if not (is_timed_cid t id) then Ctx.write ctx cn.clocked 0
  else if Ctx.read ctx cn.cmark <> 0 then collect_root t ctx id
  else begin
    let prev = Ctx.fetch_and_store ctx cn.cmark mark_claimed in
    Ctx.instr ctx ~br:1 ();
    if prev <> 0 then collect_root t ctx id else Ctx.write ctx cn.clocked 0
  end

(* Unlink an abandoned timed cnode from the root queue and pass the root
   grant to its true successor (repairing/grafting as a release would). *)
and collect_root t ctx id =
  t.gc_count <- t.gc_count + 1;
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Abandon_repaired t.vcls);
  let cn = cnode t id in
  Ctx.instr ctx ~br:1 ();
  let next = Ctx.read ctx cn.cnext in
  Ctx.instr ctx ~br:1 ();
  if next <> nil then begin
    Ctx.write ctx cn.cnext nil;
    Ctx.write ctx cn.cmark 0;
    Ctx.write ctx cn.cbusy 0;
    signal_root t ctx next
  end
  else begin
    let old_tail = Ctx.fetch_and_store ctx t.root_tail nil in
    Ctx.instr ctx ~reg:1 ~br:1 ();
    if old_tail = id then begin
      (* Root queue drained: the root is free. *)
      Ctx.write ctx cn.cmark 0;
      Ctx.write ctx cn.cbusy 0
    end
    else begin
      t.repairs <- t.repairs + 1;
      let usurper = Ctx.fetch_and_store ctx t.root_tail old_tail in
      Ctx.instr ctx ~br:1 ();
      let victim = Ctx.spin_while ctx cn.cnext (fun v -> v = nil) in
      Ctx.write ctx cn.cnext nil;
      Ctx.write ctx cn.cmark 0;
      Ctx.write ctx cn.cbusy 0;
      if usurper <> nil then begin
        (* The usurper saw an empty root queue and holds the root; victims
           go behind it. *)
        t.grafts <- t.grafts + 1;
        Ctx.write ctx (cnode t usurper).cnext victim
      end
      else signal_root t ctx victim
    end
  end

(* Plain MCS acquire on the root queue, entered by cluster [c]'s current
   local head through cnode [via].

   The [cbusy] wait closes a reuse race opened by the timed machinery:
   [collect_local] empties the local tail *before* its demotion
   [release_root], so a fresh local head can reach the root while the
   previous release — through this very cnode, in another processor's
   context — is still unlinking it. Re-enqueueing the cnode then clobbers
   its [cnext] and double-owns the root (both releasers wedge in the
   repair's wait-for-successor). The wait is bounded: [cbusy] with an
   empty local queue means an in-flight release/collect, which completes
   in a bounded number of steps without needing us. Purely untimed
   traffic never opens the window, so the extra read stays uncontended. *)
let acquire_root_via t ctx c via =
  let cn = cnode t via in
  ignore (Ctx.spin_while ctx cn.cbusy (fun b -> b <> 0));
  Ctx.write ctx cn.cbusy 1;
  Ctx.write ctx cn.cnext nil;
  Ctx.write ctx cn.clocked 1;
  let pred = Ctx.fetch_and_store ctx t.root_tail via in
  Ctx.instr ctx ~reg:1 ~br:1 ();
  if pred <> nil then begin
    Ctx.write ctx (cnode t pred).cnext via;
    ignore (Ctx.spin_while ctx cn.clocked (fun v -> v <> 0))
  end;
  t.root_via.(c) <- via

let acquire_root t ctx c = acquire_root_via t ctx c (cid c)

(* MCS release on the root queue through the cnode the root was acquired
   with, with the fetch&store repair. Drops the cnode's [cbusy] last, on
   every path: until then no one may re-enqueue this cnode (the releaser
   may be a different processor than the cluster's next local head). *)
let release_root t ctx c =
  let via = t.root_via.(c) in
  t.root_via.(c) <- 0;
  let cn = cnode t via in
  let succ = Ctx.read ctx cn.cnext in
  Ctx.instr ctx ~br:1 ();
  if succ <> nil then signal_root t ctx succ
  else begin
    let old_tail = Ctx.fetch_and_store ctx t.root_tail nil in
    Ctx.instr ctx ~reg:1 ~br:1 ();
    if old_tail <> via then begin
      t.repairs <- t.repairs + 1;
      let usurper = Ctx.fetch_and_store ctx t.root_tail old_tail in
      Ctx.instr ctx ~br:1 ();
      let victim = Ctx.spin_while ctx cn.cnext (fun v -> v = nil) in
      if usurper <> nil then begin
        t.grafts <- t.grafts + 1;
        Ctx.write ctx (cnode t usurper).cnext victim
      end
      else signal_root t ctx victim
    end
  end;
  Ctx.write ctx cn.cbusy 0

(* -- local level ---------------------------------------------------------- *)

(* Deliver protocol value [v] (a pass count, or [acquire_parent]) to local
   node [id] of cluster [c], running the handshake for timed nodes and
   collecting abandoned ones. *)
let rec signal_local t ctx c id v =
  let nd = qnode t id in
  if not (is_timed_qid t id) then Ctx.write ctx nd.locked v
  else if Ctx.read ctx nd.mark <> 0 then collect_local t ctx c id v
  else begin
    let prev = Ctx.fetch_and_store ctx nd.mark mark_claimed in
    Ctx.instr ctx ~br:1 ();
    if prev <> 0 then collect_local t ctx c id v
    else Ctx.write ctx nd.locked v
  end

(* Unlink an abandoned timed qnode, passing [v] to its true successor. The
   delicate case: [v] in [1, threshold] means the in-flight grant carries
   root ownership — if it drains into an empty queue, or grafts behind a
   usurper (a fresh head off acquiring the root itself), the collector must
   release the root here or the cluster strands it forever. *)
and collect_local t ctx c id v =
  t.gc_count <- t.gc_count + 1;
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Abandon_repaired t.vcls);
  let nd = qnode t id in
  Ctx.instr ctx ~br:1 ();
  let next = Ctx.read ctx nd.next in
  Ctx.instr ctx ~br:1 ();
  if next <> nil then begin
    Ctx.write ctx nd.next nil;
    Ctx.write ctx nd.mark 0;
    signal_local t ctx c next v
  end
  else begin
    let old_tail = Ctx.fetch_and_store ctx t.local_tails.(c) nil in
    Ctx.instr ctx ~reg:1 ~br:1 ();
    if old_tail = id then begin
      (* Local queue drained behind the abandoned node. *)
      Ctx.write ctx nd.mark 0;
      if v <> acquire_parent t then begin
        (* The grant carried the root: release it (demotion). *)
        t.global_releases <- t.global_releases + 1;
        release_root t ctx c
      end
    end
    else begin
      t.repairs <- t.repairs + 1;
      let usurper = Ctx.fetch_and_store ctx t.local_tails.(c) old_tail in
      Ctx.instr ctx ~br:1 ();
      let victim = Ctx.spin_while ctx nd.next (fun w -> w = nil) in
      Ctx.write ctx nd.next nil;
      Ctx.write ctx nd.mark 0;
      if usurper <> nil then begin
        t.grafts <- t.grafts + 1;
        Ctx.write ctx (qnode t usurper).next victim;
        if v <> acquire_parent t then begin
          (* Victims grafted behind a fresh head that is acquiring the
             root itself; our root-carrying grant must be surrendered. *)
          t.global_releases <- t.global_releases + 1;
          release_root t ctx c
        end
      end
      else signal_local t ctx c victim v
    end
  end

(* -- untimed faces -------------------------------------------------------- *)

let acquire t ctx =
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait (t.vcls, t.vid));
  let p = Ctx.proc ctx in
  let c = t.cluster_of p in
  let me = t.nodes.(p) in
  Ctx.write ctx me.next nil;
  Ctx.write ctx me.locked w_wait;
  let pred = Ctx.fetch_and_store ctx t.local_tails.(c) (qid p) in
  Ctx.instr ctx ~reg:2 ~br:2 ();
  if pred = nil then begin
    (* Local head of a fresh cohort: pass count starts at 1, then compete
       for the root on the cluster's behalf. *)
    Ctx.write ctx me.locked 1;
    acquire_root t ctx c
  end
  else begin
    Ctx.write ctx (qnode t pred).next (qid p);
    Ctx.instr ctx ~reg:1 ~br:1 ();
    let v = Ctx.spin_while ctx me.locked (fun v -> v = w_wait) in
    if v = acquire_parent t then begin
      (* The previous head gave up the root (budget exhausted or cohort
         drained elsewhere): we are the new local head. *)
      Ctx.write ctx me.locked 1;
      acquire_root t ctx c
    end
    (* else v in [1, threshold]: the root came with the hand-off. *)
  end;
  t.active.(p) <- qid p;
  got_lock t ctx

(* Thread-oblivious: the releasing processor — and hence the cluster whose
   local queue and root tenure are unwound — is derived from the holder
   bookkeeping, not from [ctx], so a recoverer can run the release on a
   dead holder's behalf across both tree levels. *)
let release t ctx =
  let p = t.holder in
  assert (p >= 0);
  let c = t.cluster_of p in
  let me = qnode t t.active.(p) in
  let my_id = t.active.(p) in
  t.holder <- -1;
  let curcount = Ctx.read ctx me.locked in
  let succ = Ctx.read ctx me.next in
  Ctx.instr ctx ~reg:1 ~br:2 ();
  (* Hook after the protocol reads but before anything that can transfer
     the lock (the local pass write, or the root release waking another
     cluster), so an observer orders our release before the successor's
     acquisition. *)
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Released (t.vcls, t.vid));
  if succ <> nil && curcount < t.threshold then begin
    (* Pass within the cluster: the root stays put, the successor inherits
       the incremented pass count. *)
    t.local_passes <- t.local_passes + 1;
    signal_local t ctx c succ (curcount + 1)
  end
  else begin
    (* Give up the root first, then hand local headship over (the paper's
       order: the next head re-acquires the root, possibly behind other
       clusters that were waiting). *)
    release_root t ctx c;
    t.global_releases <- t.global_releases + 1;
    if succ <> nil then signal_local t ctx c succ (acquire_parent t)
    else begin
      let old_tail = Ctx.fetch_and_store ctx t.local_tails.(c) nil in
      Ctx.instr ctx ~reg:1 ~br:1 ();
      if old_tail <> my_id then begin
        (* The fetch&store removed waiters: re-install them, grafting
           behind any usurper (who, having seen an empty queue, made itself
           local head and is acquiring the root). *)
        t.repairs <- t.repairs + 1;
        let usurper = Ctx.fetch_and_store ctx t.local_tails.(c) old_tail in
        Ctx.instr ctx ~br:1 ();
        let victim = Ctx.spin_while ctx me.next (fun v -> v = nil) in
        if usurper <> nil then begin
          t.grafts <- t.grafts + 1;
          Ctx.write ctx (qnode t usurper).next victim
        end
        else signal_local t ctx c victim (acquire_parent t)
      end
    end
  end

(* -- timed face ----------------------------------------------------------- *)

(* Hand local headship onward without taking the lock: the path of a timed
   head that cannot (or will not) acquire the root. Mirrors the release
   else-branch, minus the root release — we never held it. *)
let pass_headship t ctx c me my_id =
  let succ = Ctx.read ctx me.next in
  Ctx.instr ctx ~br:1 ();
  if succ <> nil then begin
    Ctx.write ctx me.next nil;
    signal_local t ctx c succ (acquire_parent t)
  end
  else begin
    let old_tail = Ctx.fetch_and_store ctx t.local_tails.(c) nil in
    Ctx.instr ctx ~reg:1 ~br:1 ();
    if old_tail <> my_id then begin
      t.repairs <- t.repairs + 1;
      let usurper = Ctx.fetch_and_store ctx t.local_tails.(c) old_tail in
      Ctx.instr ctx ~br:1 ();
      let victim = Ctx.spin_while ctx me.next (fun v -> v = nil) in
      Ctx.write ctx me.next nil;
      if usurper <> nil then begin
        t.grafts <- t.grafts + 1;
        Ctx.write ctx (qnode t usurper).next victim
      end
      else signal_local t ctx c victim (acquire_parent t)
    end
  end

(* Timed acquisition. Returns [false] — holding nothing, with every queue
   eventually repaired — once [timeout] expires at either tree level;
   returns [true] holding the lock, possibly past the deadline, when a
   hand-off committed first (claim-race loss at the lock-granting level).

   Fail-fast cases (no side effect on the lock): [timeout <= 0], or this
   processor's timed qnode still abandoned in its local queue. A cluster
   whose timed cnode is still abandoned in the root queue also fails
   fast at the promotion point, after passing local headship onward. *)
let acquire_with_timeout t ctx ~timeout =
  if timeout <= 0 then begin
    t.timeouts <- t.timeouts + 1;
    false
  end
  else begin
    let p = Ctx.proc ctx in
    let c = t.cluster_of p in
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
      let abandon_fail () =
        t.timeouts <- t.timeouts + 1;
        if Ctx.hooked ctx then Ctx.emit ctx Verify.Wait_abandoned;
        false
      in
      (* Timed root acquisition as local head (our locked = pass count 1).
         Uses the cluster's timed cnode so abandonment never poisons the
         untimed root path. *)
      let root_attempt () =
        let via = timed_cid t c in
        let cn = cnode t via in
        let marked = Ctx.read ctx cn.cmark in
        Ctx.instr ctx ~br:1 ();
        (* [cbusy] with a clear mark: a previous (successful) root tenure
           through this cnode is still being released or collected in
           another processor's context — bounded, so wait it out, with the
           deadline as backstop. Re-enqueueing before it clears would
           clobber the in-flight unlink (see [acquire_root_via]). *)
        let busy_wait () =
          Ctx.spin_while ~deadline ctx cn.cbusy (fun b -> b <> 0) = 0
        in
        if marked <> 0 || not (busy_wait ()) then begin
          (* Our cluster's timed cnode is still abandoned in the root
             queue (or stuck mid-release past our deadline): we cannot
             wait abortably at the root. Decline. *)
          pass_headship t ctx c me my_id;
          abandon_fail ()
        end
        else begin
          Ctx.write ctx cn.cbusy 1;
          Ctx.write ctx cn.cnext nil;
          Ctx.write ctx cn.clocked 1;
          let pred = Ctx.fetch_and_store ctx t.root_tail via in
          Ctx.instr ctx ~reg:1 ~br:1 ();
          if pred = nil then begin
            t.root_via.(c) <- via;
            t.active.(p) <- my_id;
            got_lock t ctx;
            true
          end
          else begin
            Ctx.write ctx (cnode t pred).cnext via;
            let granted =
              Ctx.spin_while ~deadline ctx cn.clocked (fun v -> v <> 0) = 0
            in
            let take_root () =
              Ctx.write ctx cn.cmark 0;
              t.root_via.(c) <- via;
              t.active.(p) <- my_id;
              got_lock t ctx;
              true
            in
            if granted then take_root ()
            else begin
              let prev = Ctx.fetch_and_store ctx cn.cmark mark_abandoned in
              Ctx.instr ctx ~br:1 ();
              if prev = mark_claimed then begin
                (* The root hand-off already committed: it is ours. *)
                ignore (Ctx.spin_while ctx cn.clocked (fun v -> v <> 0));
                take_root ()
              end
              else begin
                (* Cnode abandoned in the root queue (collected by a later
                   root release); surrender local headship and fail. *)
                pass_headship t ctx c me my_id;
                abandon_fail ()
              end
            end
          end
        end
      in
      Ctx.write ctx me.next nil;
      Ctx.write ctx me.locked w_wait;
      let pred = Ctx.fetch_and_store ctx t.local_tails.(c) my_id in
      Ctx.instr ctx ~reg:2 ~br:2 ();
      if pred = nil then begin
        Ctx.write ctx me.locked 1;
        root_attempt ()
      end
      else begin
        Ctx.write ctx (qnode t pred).next my_id;
        Ctx.instr ctx ~reg:1 ~br:1 ();
        let with_value v =
          (* The passer claimed our mark before writing the value. *)
          Ctx.write ctx me.mark 0;
          if v = acquire_parent t then begin
            Ctx.write ctx me.locked 1;
            root_attempt ()
          end
          else begin
            (* v in [1, threshold]: the root came with the hand-off. *)
            t.active.(p) <- my_id;
            got_lock t ctx;
            true
          end
        in
        let v =
          Ctx.spin_while ~deadline ctx me.locked (fun v -> v = w_wait)
        in
        if v <> w_wait then with_value v
        else begin
          let prev = Ctx.fetch_and_store ctx me.mark mark_abandoned in
          Ctx.instr ctx ~br:1 ();
          if prev = mark_claimed then begin
            (* A hand-off committed: collect the value it delivers. *)
            let v = Ctx.spin_while ctx me.locked (fun v -> v = w_wait) in
            if v = acquire_parent t then begin
              (* Headship without the lock, past our deadline: we must
                 not park the cluster on an expired waiter — pass it on
                 and fail. *)
              Ctx.write ctx me.mark 0;
              pass_headship t ctx c me my_id;
              abandon_fail ()
            end
            else with_value v
          end
          else
            (* Abandonment stands: the node remains queued, marked, until
               a later signal collects it. *)
            abandon_fail ()
        end
      end
    end
  end

let try_acquire_for t ctx ~deadline =
  acquire_with_timeout t ctx ~timeout:(deadline - Machine.now t.machine)

(* Dead-holder recovery: the thread-oblivious release unwinds both tree
   levels on the corpse's behalf — a local pass if the budget and queue
   allow, otherwise the root release plus local-headship hand-over, with
   the usual repair/graft/GC machinery. *)
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

(* Core-interface view. [try_acquire] enqueues and waits (the timed face
   is the true abortable entry point). [create] uses the machine's
   hardware stations as the cluster topology. *)
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
