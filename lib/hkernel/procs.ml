(* Process descriptors, the family tree, and program destruction.

   Hurricane keeps a family tree of processes whose links run through the
   process descriptors; descriptors are write-shared, so they are *not*
   replicated — each lives on exactly one cluster (pid mod n_clusters here)
   and remote clusters reach them by RPC.

   Destroying a process touches up to three descriptors — its own, its
   parent's (to unlink it), and each child's (to reparent) — which may all
   live on different clusters. Because all processes of a program die at
   about the same time, reservation conflicts and hence retries are common
   (Section 2.5). Both deadlock-management strategies are implemented:

   - [Optimistic]: hold the local reservation across the remote call; on a
     [Would_deadlock] failure release everything, back off, retry; no
     revalidation needed on the success path.
   - [Pessimistic]: release the local reservation before every remote call
     and re-search / re-validate afterwards, paying the revalidation on
     every operation but never holding a reservation across a call. *)

open Hector

type strategy = Optimistic | Pessimistic

let strategy_name = function
  | Optimistic -> "optimistic"
  | Pessimistic -> "pessimistic"

type pd = {
  pid : int;
  parent : Cell.t; (* parent pid; 0 = none *)
  alive : Cell.t;
  nchildren : Cell.t; (* scan cost proxy for the child list *)
  children : int list ref; (* model-level child list *)
  mailbox : Cell.t; (* pending-message count: the messaging side's state *)
}

(* A node of the *separate* family tree (the Section 2.5 "data structure
   design" alternative): tree links live in their own per-cluster tables,
   with their own reserve bits, so tree maintenance and message passing no
   longer contend on the same words. *)
type tnode = {
  t_pid : int;
  t_parent : Cell.t;
  t_nchildren : Cell.t;
  t_children : int list ref;
}

(* Which data-structure design the instance uses. [Combined] is what
   Hurricane shipped (tree links inside the process descriptors); the paper
   wishes it had used [Separate]. *)
type layout = Combined | Separate

let layout_name = function
  | Combined -> "combined"
  | Separate -> "separate-tree"

type t = {
  kernel : Kernel.t;
  tables : pd Khash.t array; (* one per cluster *)
  tree_tables : tnode Khash.t array; (* Separate layout only *)
  layout : layout;
  strategy : strategy;
  max_attempts : int; (* 0 = never degrade *)
  mutable degradations : int; (* operations that fell back to Pessimistic *)
  mutable destroys : int;
  mutable retries : int;
  mutable revalidations : int;
  mutable lost_races : int; (* found the target already dead on revalidate *)
  mutable sends : int;
  mutable send_retries : int;
}

let create ?(strategy = Optimistic) ?(layout = Combined) ?(max_attempts = 0)
    kernel =
  let clustering = Kernel.clustering kernel in
  let machine = Kernel.machine kernel in
  let mk_tables vname () =
    Array.init (Clustering.n_clusters clustering) (fun c ->
        Khash.create machine ~nbins:64 ~vname
          ~lock_algo:(Kernel.lock_algo kernel)
          ~homes:(Clustering.procs_of_cluster clustering c))
  in
  {
    kernel;
    tables = mk_tables "procs.table" ();
    tree_tables =
      (match layout with
      | Separate -> mk_tables "procs.tree" ()
      | Combined -> [||]);
    layout;
    strategy;
    max_attempts;
    degradations = 0;
    destroys = 0;
    retries = 0;
    revalidations = 0;
    lost_races = 0;
    sends = 0;
    send_retries = 0;
  }

let strategy t = t.strategy
let layout t = t.layout
let degradations t = t.degradations

(* Effective strategy for attempt [n]: an optimistic operation past its
   attempt budget degrades to the pessimistic release-everything protocol —
   stop holding reservations across remote calls rather than loop forever
   against a stalled peer. *)
let strategy_for t n =
  if t.max_attempts > 0 && n > t.max_attempts then Pessimistic else t.strategy

let note_degradation t n =
  if t.max_attempts > 0 && n = t.max_attempts + 1 && t.strategy = Optimistic
  then t.degradations <- t.degradations + 1
let destroys t = t.destroys
let retries t = t.retries
let revalidations t = t.revalidations
let lost_races t = t.lost_races
let sends t = t.sends
let send_retries t = t.send_retries

let cluster_of_pid t pid =
  pid mod Clustering.n_clusters (Kernel.clustering t.kernel)

let table_of_pid t pid = t.tables.(cluster_of_pid t pid)
let tree_table_of_pid t pid = t.tree_tables.(cluster_of_pid t pid)

(* Untimed setup: create a process under [parent] (0 for a root). *)
let spawn_process_untimed t ~pid ~parent =
  if pid <= 0 then invalid_arg "spawn_process_untimed: pid must be positive";
  let machine = Kernel.machine t.kernel in
  let make home =
    {
      pid;
      parent = Machine.alloc machine ~label:"parent" ~home parent;
      alive = Machine.alloc machine ~label:"alive" ~home 1;
      nchildren = Machine.alloc machine ~label:"nchildren" ~home 0;
      children = ref [];
      mailbox = Machine.alloc machine ~label:"mailbox" ~home 0;
    }
  in
  ignore (Khash.insert_untimed (table_of_pid t pid) pid ~status0:0 ~make);
  (match t.layout with
  | Combined -> ()
  | Separate ->
    let make_tnode home =
      {
        t_pid = pid;
        t_parent = Machine.alloc machine ~label:"t.parent" ~home parent;
        t_nchildren = Machine.alloc machine ~label:"t.nchildren" ~home 0;
        t_children = ref [];
      }
    in
    ignore
      (Khash.insert_untimed (tree_table_of_pid t pid) pid ~status0:0
         ~make:make_tnode));
  if parent <> 0 then begin
    match t.layout with
    | Combined ->
      let found = ref None in
      Khash.iter_untimed (table_of_pid t parent) (fun e ->
          if e.Khash.key = parent then found := Some e.Khash.payload);
      (match !found with
      | None -> invalid_arg "spawn_process_untimed: unknown parent"
      | Some pd ->
        pd.children := pid :: !(pd.children);
        (* [nchildren] always equals the list length, so bump it
           incrementally rather than rescanning the list. *)
        Machine.poke machine pd.nchildren (Cell.peek pd.nchildren + 1))
    | Separate ->
      let found = ref None in
      Khash.iter_untimed (tree_table_of_pid t parent) (fun e ->
          if e.Khash.key = parent then found := Some e.Khash.payload);
      (match !found with
      | None -> invalid_arg "spawn_process_untimed: unknown parent"
      | Some tn ->
        tn.t_children := pid :: !(tn.t_children);
        Machine.poke machine tn.t_nchildren (Cell.peek tn.t_nchildren + 1))
  end

let alive_untimed t pid =
  let found = ref false in
  Khash.iter_untimed (table_of_pid t pid) (fun e ->
      if e.Khash.key = pid && Cell.peek e.Khash.payload.alive = 1 then
        found := true);
  !found

let children_untimed t pid =
  let found = ref [] in
  (match t.layout with
  | Combined ->
    Khash.iter_untimed (table_of_pid t pid) (fun e ->
        if e.Khash.key = pid then found := !(e.Khash.payload.children))
  | Separate ->
    Khash.iter_untimed (tree_table_of_pid t pid) (fun e ->
        if e.Khash.key = pid then found := !(e.Khash.payload.t_children)));
  !found

let mailbox_untimed t pid =
  let found = ref 0 in
  Khash.iter_untimed (table_of_pid t pid) (fun e ->
      if e.Khash.key = pid then found := Cell.peek e.Khash.payload.mailbox);
  !found

(* -- RPC services --------------------------------------------------------- *)

(* Unlink [child] from [parent]'s child list, on the parent's cluster. *)
let unlink_child_service t ~parent ~child tctx =
  match Khash.try_reserve_existing (table_of_pid t parent) tctx parent with
  | `Absent -> Rpc.Absent
  | `Would_deadlock -> Rpc.Would_deadlock
  | `Reserved e ->
    let pd = e.Khash.payload in
    (* Scan the child list: one charged read per entry examined. *)
    let rec scan = function
      | [] -> ()
      | c :: rest ->
        ignore (Ctx.read tctx pd.nchildren);
        if c <> child then scan rest
    in
    scan !(pd.children);
    (* Count removals during the filter and decrement [nchildren] by that,
       instead of recomputing the list length from scratch. *)
    let removed = ref 0 in
    pd.children :=
      List.filter
        (fun c -> if c = child then (incr removed; false) else true)
        !(pd.children);
    Ctx.write tctx pd.nchildren (Cell.peek pd.nchildren - !removed);
    Khash.release_reserve tctx e;
    Rpc.Ok 0

(* Re-point [child]'s parent link at [new_parent]. *)
let reparent_service t ~child ~new_parent tctx =
  match Khash.try_reserve_existing (table_of_pid t child) tctx child with
  | `Absent -> Rpc.Absent
  | `Would_deadlock -> Rpc.Would_deadlock
  | `Reserved e ->
    let pd = e.Khash.payload in
    Ctx.write tctx pd.parent new_parent;
    Khash.release_reserve tctx e;
    Rpc.Ok 0

(* Add [child] to [new_parent]'s child list (reparenting, step 2). *)
let adopt_service t ~child ~new_parent tctx =
  match Khash.try_reserve_existing (table_of_pid t new_parent) tctx new_parent with
  | `Absent -> Rpc.Absent
  | `Would_deadlock -> Rpc.Would_deadlock
  | `Reserved e ->
    let pd = e.Khash.payload in
    pd.children := child :: !(pd.children);
    Ctx.write tctx pd.nchildren (Cell.peek pd.nchildren + 1);
    Khash.release_reserve tctx e;
    Rpc.Ok 0

(* Tree-table counterparts, used by the Separate layout: same protocols,
   different reserve bits — the whole point of the design lesson. *)

let t_unlink_child_service t ~parent ~child tctx =
  match Khash.try_reserve_existing (tree_table_of_pid t parent) tctx parent with
  | `Absent -> Rpc.Absent
  | `Would_deadlock -> Rpc.Would_deadlock
  | `Reserved e ->
    let tn = e.Khash.payload in
    let rec scan = function
      | [] -> ()
      | c :: rest ->
        ignore (Ctx.read tctx tn.t_nchildren);
        if c <> child then scan rest
    in
    scan !(tn.t_children);
    let removed = ref 0 in
    tn.t_children :=
      List.filter
        (fun c -> if c = child then (incr removed; false) else true)
        !(tn.t_children);
    Ctx.write tctx tn.t_nchildren (Cell.peek tn.t_nchildren - !removed);
    Khash.release_reserve tctx e;
    Rpc.Ok 0

let t_reparent_service t ~child ~new_parent tctx =
  match Khash.try_reserve_existing (tree_table_of_pid t child) tctx child with
  | `Absent -> Rpc.Absent
  | `Would_deadlock -> Rpc.Would_deadlock
  | `Reserved e ->
    Ctx.write tctx e.Khash.payload.t_parent new_parent;
    Khash.release_reserve tctx e;
    Rpc.Ok 0

let t_adopt_service t ~child ~new_parent tctx =
  match
    Khash.try_reserve_existing (tree_table_of_pid t new_parent) tctx new_parent
  with
  | `Absent -> Rpc.Absent
  | `Would_deadlock -> Rpc.Would_deadlock
  | `Reserved e ->
    let tn = e.Khash.payload in
    tn.t_children := child :: !(tn.t_children);
    Ctx.write tctx tn.t_nchildren (Cell.peek tn.t_nchildren + 1);
    Khash.release_reserve tctx e;
    Rpc.Ok 0

(* Deposit a message into [dst]'s descriptor (reserve, bump the mailbox,
   release). Runs on [dst]'s cluster; never waits. *)
let deposit_service t ~dst tctx =
  match Khash.try_reserve_existing (table_of_pid t dst) tctx dst with
  | `Absent -> Rpc.Absent
  | `Would_deadlock -> Rpc.Would_deadlock
  | `Reserved e ->
    let pd = e.Khash.payload in
    if Cell.peek pd.alive = 0 then begin
      Khash.release_reserve tctx e;
      Rpc.Absent
    end
    else begin
      let m = Ctx.read tctx pd.mailbox in
      Ctx.write tctx pd.mailbox (m + 1);
      Kernel.kernel_work t.kernel tctx 60 (* copy the message body *);
      Khash.release_reserve tctx e;
      Rpc.Ok 0
    end

(* -- destruction ----------------------------------------------------------- *)

let rpc_to t ctx ~cluster service =
  let target =
    Clustering.rpc_target (Kernel.clustering t.kernel) ~from:(Ctx.proc ctx)
      ~target_cluster:cluster
  in
  Rpc.call (Kernel.rpc t.kernel) ctx ~target service

(* The destruction of [pid] is a sequence of remote steps (unlink from the
   parent, then reparent+adopt for each child), each an RPC that can fail
   with [Would_deadlock]. The strategy decides what our own reservation does
   around each step:

   - Optimistic: keep it; on failure release it, back off, restart the whole
     destruction (no revalidation needed on success).
   - Pessimistic: release it before every call and re-reserve + revalidate
     the descriptor afterwards, paying that cost on every step. *)

let retry_pause t ctx attempt =
  t.retries <- t.retries + 1;
  let costs = Kernel.costs t.kernel in
  let base = costs.Costs.retry_backoff * min attempt 8 in
  Ctx.interruptible_pause ctx
    (base + Eventsim.Rng.int (Ctx.rng ctx) (max 1 base))

let destroy_combined t ctx pid =
  let clustering = Kernel.clustering t.kernel in
  let my_cluster = Clustering.cluster_of_proc clustering (Ctx.proc ctx) in
  let table = table_of_pid t pid in
  let reserve_self () =
    if cluster_of_pid t pid = my_cluster then
      match Khash.reserve_existing table ctx pid with
      | None -> `Gone
      | Some e -> `Got e
    else
      match Khash.try_reserve_existing table ctx pid with
      | `Absent -> `Gone
      | `Would_deadlock -> `Conflict
      | `Reserved e -> `Got e
  in
  (* Re-reserve and revalidate after a pessimistic release. *)
  let re_establish () =
    t.revalidations <- t.revalidations + 1;
    match Khash.try_reserve_existing table ctx pid with
    | `Absent -> `Gone
    | `Would_deadlock -> `Conflict
    | `Reserved e ->
      if Cell.peek e.Khash.payload.alive = 0 then begin
        Khash.release_reserve ctx e;
        `Gone
      end
      else `Got e
  in
  let rec attempt n =
    if n > 1000 then failwith "Procs.destroy: livelock";
    note_degradation t n;
    match reserve_self () with
    | `Gone -> false
    | `Conflict ->
      retry_pause t ctx n;
      attempt (n + 1)
    | `Got e ->
      let pd = e.Khash.payload in
      if Ctx.read ctx pd.alive = 0 then begin
        t.lost_races <- t.lost_races + 1;
        Khash.release_reserve ctx e;
        false
      end
      else begin
        let parent = Ctx.read ctx pd.parent in
        let grandparent = parent in
        let children = !(pd.children) in
        (* The remote steps, in family-tree order: unlink first (parent
           level), then each child's reparent and adoption. *)
        let steps =
          (if parent = 0 then []
           else
             [ (cluster_of_pid t parent,
                unlink_child_service t ~parent ~child:pid) ])
          @ List.concat_map
              (fun c ->
                (cluster_of_pid t c,
                 reparent_service t ~child:c ~new_parent:grandparent)
                ::
                (if grandparent = 0 then []
                 else
                   [ (cluster_of_pid t grandparent,
                      adopt_service t ~child:c ~new_parent:grandparent) ]))
              children
        in
        let rec run held = function
          | [] -> `Finished held
          | (cluster, service) :: rest -> (
            match strategy_for t n with
            | Optimistic -> (
              match rpc_to t ctx ~cluster service with
              | Rpc.Ok _ | Rpc.Absent -> run held rest
              | Rpc.Would_deadlock | Rpc.Gave_up | Rpc.Dead_target ->
                Khash.release_reserve ctx held;
                `Restart)
            | Pessimistic -> (
              Khash.release_reserve ctx held;
              let r = rpc_to t ctx ~cluster service in
              match r with
              | Rpc.Would_deadlock | Rpc.Gave_up | Rpc.Dead_target -> `Restart
              | Rpc.Ok _ | Rpc.Absent -> (
                match re_establish () with
                | `Gone -> `Lost
                | `Conflict -> `Restart
                | `Got held' -> run held' rest)))
        in
        match run e steps with
        | `Restart ->
          retry_pause t ctx n;
          attempt (n + 1)
        | `Lost ->
          t.lost_races <- t.lost_races + 1;
          false
        | `Finished held ->
          Ctx.write ctx held.Khash.payload.alive 0;
          ignore (Khash.remove table ctx pid);
          Khash.release_reserve ctx held;
          t.destroys <- t.destroys + 1;
          true
      end
  in
  attempt 1

(* Destruction over the separate family tree: tree links are updated under
   the TREE tables' reserve bits; the process descriptor is touched only at
   the very end, briefly, to mark the process dead — so tree maintenance no
   longer contends with message passing. *)
let destroy_separate t ctx pid =
  let clustering = Kernel.clustering t.kernel in
  let my_cluster = Clustering.cluster_of_proc clustering (Ctx.proc ctx) in
  let ttable = tree_table_of_pid t pid in
  let reserve_tree () =
    if cluster_of_pid t pid = my_cluster then
      match Khash.reserve_existing ttable ctx pid with
      | None -> `Gone
      | Some e -> `Got e
    else
      match Khash.try_reserve_existing ttable ctx pid with
      | `Absent -> `Gone
      | `Would_deadlock -> `Conflict
      | `Reserved e -> `Got e
  in
  let re_establish () =
    t.revalidations <- t.revalidations + 1;
    match Khash.try_reserve_existing ttable ctx pid with
    | `Absent -> `Gone
    | `Would_deadlock -> `Conflict
    | `Reserved e -> `Got e
  in
  let rec attempt n =
    if n > 1000 then failwith "Procs.destroy_separate: livelock";
    note_degradation t n;
    match reserve_tree () with
    | `Gone -> false
    | `Conflict ->
      retry_pause t ctx n;
      attempt (n + 1)
    | `Got e ->
      let tn = e.Khash.payload in
      let parent = Ctx.read ctx tn.t_parent in
      let grandparent = parent in
      let children = !(tn.t_children) in
      let steps =
        (if parent = 0 then []
         else
           [ (cluster_of_pid t parent,
              t_unlink_child_service t ~parent ~child:pid) ])
        @ List.concat_map
            (fun c ->
              (cluster_of_pid t c,
               t_reparent_service t ~child:c ~new_parent:grandparent)
              ::
              (if grandparent = 0 then []
               else
                 [ (cluster_of_pid t grandparent,
                    t_adopt_service t ~child:c ~new_parent:grandparent) ]))
            children
      in
      let rec run held = function
        | [] -> `Finished held
        | (cluster, service) :: rest -> (
          match strategy_for t n with
          | Optimistic -> (
            match rpc_to t ctx ~cluster service with
            | Rpc.Ok _ | Rpc.Absent -> run held rest
            | Rpc.Would_deadlock | Rpc.Gave_up | Rpc.Dead_target ->
              Khash.release_reserve ctx held;
              `Restart)
          | Pessimistic -> (
            Khash.release_reserve ctx held;
            match rpc_to t ctx ~cluster service with
            | Rpc.Would_deadlock | Rpc.Gave_up | Rpc.Dead_target -> `Restart
            | Rpc.Ok _ | Rpc.Absent -> (
              match re_establish () with
              | `Gone -> `Lost
              | `Conflict -> `Restart
              | `Got held' -> run held' rest)))
      in
      (match run e steps with
      | `Restart ->
        retry_pause t ctx n;
        attempt (n + 1)
      | `Lost ->
        t.lost_races <- t.lost_races + 1;
        false
      | `Finished held ->
        ignore (Khash.remove ttable ctx pid);
        Khash.release_reserve ctx held;
        (* Finally mark the process itself dead: one brief descriptor
           reservation — messaging's only window of interference. *)
        let table = table_of_pid t pid in
        let rec mark m =
          if m > 1000 then failwith "Procs.destroy_separate: mark livelock";
          match Khash.try_reserve_existing table ctx pid with
          | `Absent -> ()
          | `Would_deadlock ->
            retry_pause t ctx m;
            mark (m + 1)
          | `Reserved de ->
            Ctx.write ctx de.Khash.payload.alive 0;
            ignore (Khash.remove table ctx pid);
            Khash.release_reserve ctx de
        in
        mark 1;
        t.destroys <- t.destroys + 1;
        true)
  in
  attempt 1

let destroy t ctx pid =
  match t.layout with
  | Combined -> destroy_combined t ctx pid
  | Separate -> destroy_separate t ctx pid

(* -- message passing --------------------------------------------------------- *)

(* Send a message from [src] (a process of the calling processor's cluster)
   to an arbitrary [dst]: both descriptors are involved — the sender's to
   record the send state, the receiver's to deposit the message — and there
   is no natural order between them (Section 2.5). The optimistic protocol
   holds the source reservation across the remote deposit; a conflicted
   deposit releases it and retries. Returns false if either process died. *)
let send t ctx ~src ~dst =
  let clustering = Kernel.clustering t.kernel in
  let my_cluster = Clustering.cluster_of_proc clustering (Ctx.proc ctx) in
  if cluster_of_pid t src <> my_cluster then
    invalid_arg "Procs.send: src must belong to the caller's cluster";
  let table = table_of_pid t src in
  let rec attempt n =
    if n > 1000 then failwith "Procs.send: livelock";
    match Khash.reserve_existing table ctx src with
    | None -> false
    | Some e ->
      let pd = e.Khash.payload in
      if Ctx.read ctx pd.alive = 0 then begin
        Khash.release_reserve ctx e;
        false
      end
      else begin
        (* Record the in-flight send in the source descriptor. *)
        Kernel.kernel_work t.kernel ctx 30;
        (* Past the attempt budget the optimistic messaging protocol
           degrades: give up the source reservation *before* the deposit so
           a stalled destination holder cannot keep us looping while we
           hold it, and revalidate the source afterwards. *)
        let degraded = t.max_attempts > 0 && n > t.max_attempts && dst <> src in
        if degraded && n = t.max_attempts + 1 then
          t.degradations <- t.degradations + 1;
        if degraded then Khash.release_reserve ctx e;
        let outcome =
          if dst = src then begin
            (* Self-send: the descriptor is already ours; deposit inline. *)
            let m = Ctx.read ctx pd.mailbox in
            Ctx.write ctx pd.mailbox (m + 1);
            Kernel.kernel_work t.kernel ctx 60;
            Rpc.Ok 0
          end
          else if cluster_of_pid t dst = my_cluster then
            deposit_service t ~dst ctx
          else
            rpc_to t ctx ~cluster:(cluster_of_pid t dst)
              (deposit_service t ~dst)
        in
        match outcome with
        | Rpc.Ok _ ->
          if degraded then begin
            (* The message is deposited; re-check the source briefly (the
               pessimistic revalidation cost). *)
            t.revalidations <- t.revalidations + 1;
            match Khash.try_reserve_existing table ctx src with
            | `Reserved e2 -> Khash.release_reserve ctx e2
            | `Absent | `Would_deadlock -> ()
          end
          else Khash.release_reserve ctx e;
          t.sends <- t.sends + 1;
          true
        | Rpc.Absent ->
          if not degraded then Khash.release_reserve ctx e;
          false
        | Rpc.Would_deadlock | Rpc.Gave_up | Rpc.Dead_target ->
          if not degraded then Khash.release_reserve ctx e;
          t.send_retries <- t.send_retries + 1;
          let costs = Kernel.costs t.kernel in
          let base = costs.Costs.retry_backoff * min n 8 in
          Ctx.interruptible_pause ctx
            (base + Eventsim.Rng.int (Ctx.rng ctx) (max 1 base));
          attempt (n + 1)
      end
  in
  attempt 1
