(* Lockdep-style runtime verification for the simulated kernel.

   A checker is installed on the machine (Hector.Machine.set_verify) and the
   locking layers report to it from host code only: hooks never charge
   simulated cycles, never touch the engine's RNGs, and never schedule
   events (the watchdog below is the one exception, and it is spawned
   explicitly). With no checker installed every hook site is a single
   host-side branch — the Eventsim.Fault zero-cost discipline — so
   simulation timing is bit-identical to a build without verification.

   Three layers of checking, in increasing order of "the bug already
   struck":

   1. Lock-order tracking. Each lock instance belongs to a class (interned
      by name at creation). Every *blocking* acquisition adds a dependency
      edge from each class the processor already holds to the class being
      acquired; the edge set forms a global directed graph, and a new edge
      that closes a cycle across distinct classes is reported the first
      time the inverted ordering becomes possible — not only when the two
      processors actually interleave into a deadlock. Non-blocking
      acquisitions (TryLock, try_reserve) push held entries but add no
      edges: an acquisition that cannot wait cannot be the waiting side of
      a deadlock. Edges between two nodes of the *same* class are recorded
      but not reported: the kernel's only same-class nesting (file-cache
      read-ahead) is ordered by block index and therefore safe, and actual
      same-class deadlocks are still caught by layer 3.

   2. Reserve-bit ownership. Every set bit records its owner processor and
      set time. Clears by non-owners, clears of an already-clear word,
      write-reservations of an already-reserved word, reader arithmetic,
      bits still set at workload end ([finish]) and reserve *waits* in
      interrupt context (the Would_deadlock invariant: an RPC service must
      fail rather than spin) are all violations.

   3. Waits-for graph + stall watchdog. Blocking waiters register what they
      wait on; holders are known from layer 1/2; so waiting processors form
      a functional graph (each waits on at most one resource at a time —
      nested waits from interrupt handlers form a stack and the innermost
      frame is the one occupying the processor). A low-frequency watchdog
      event walks this graph: a cycle is an actual deadlock, and a global
      window with no lock/reserve/RPC progress while someone waits is a
      stall. Both dump a per-processor diagnostic and abort the run with
      [Violation] instead of letting the simulation spin to its event
      budget.

   The state a lock or reserve report touches is all int columns (see
   "checker state" below), so a report costs a few array reads and writes
   and allocates nothing; lock ids come from the locks' machine, not from
   a counter here. *)

open Eventsim

(* -- lock classes ----------------------------------------------------------- *)

(* Classes are interned globally by name: identity must exist before any
   checker is installed (locks are created at kernel-construction time),
   and creation order is deterministic, so ids are stable run to run. *)

type lock_class = int

(* The interning tables are the one piece of global mutable state the
   checker keeps, so they are guarded by a host-side mutex: experiment cells
   running on parallel domains (Hurricane.Par) all create locks. Ids stay
   deterministic within a domain's creation order; across domains the
   numbering depends on interleaving, which is fine because ids only name
   graph nodes and diagnostics — no exported result depends on them. *)
let intern_mu = Mutex.create ()

let class_tbl : (string, int) Hashtbl.t = Hashtbl.create 64
let class_names : string array ref = ref (Array.make 64 "") (* index = id *)
let n_classes = ref 0

let lock_class name =
  Mutex.lock intern_mu;
  let id =
    match Hashtbl.find_opt class_tbl name with
    | Some id -> id
    | None ->
      let id = !n_classes in
      n_classes := id + 1;
      let cap = Array.length !class_names in
      if id >= cap then begin
        let bigger = Array.make (2 * cap) "" in
        Array.blit !class_names 0 bigger 0 cap;
        class_names := bigger
      end;
      !class_names.(id) <- name;
      Hashtbl.replace class_tbl name id;
      id
  in
  Mutex.unlock intern_mu;
  id

let class_name id =
  Mutex.lock intern_mu;
  let name =
    if id < 0 || id >= !n_classes then begin
      Mutex.unlock intern_mu;
      invalid_arg (Printf.sprintf "Verify.class_name: unknown class %d" id)
    end
    else !class_names.(id)
  in
  Mutex.unlock intern_mu;
  name

(* -- hook events ---------------------------------------------------------- *)

(* One value per report, shared with every sink (see verify.mli for each
   kind's contract). *)
type event =
  | Wait of lock_class * int
  | Wait_timed of lock_class * int
  | Acquired of lock_class * int
  | Try_acquired of lock_class * int
  | Wait_abandoned
  | Released of lock_class * int
  | Acquired_shared of lock_class * int
  | Released_shared of lock_class * int
  | Released_dead of { cls : lock_class; id : int; dead : int }
  | Transferred of lock_class * int
  | Recovered of { cls : lock_class; dead : int; latency : int }
  | Abandon_repaired of lock_class
  | Optimistic_abort of lock_class
  | Reserve_set of { cls : lock_class; word : int; label : string }
  | Reserve_read_set of { cls : lock_class; word : int; label : string }
  | Reserve_clear of { word : int }
  | Reserve_read_clear of { word : int }
  | Reserve_wait of {
      cls : lock_class;
      word : int;
      label : string;
      in_interrupt : bool;
    }
  | Reserve_wait_done
  | Rpc_issue of { target : int }
  | Rpc_retry
  | Rpc_reply
  | Proc_crashed
  | Proc_revived

(* -- violations ----------------------------------------------------------- *)

type kind =
  | Order_cycle (* inverted acquisition order across lock classes *)
  | Recursive_acquire (* blocking on an instance the processor holds *)
  | Bad_release (* releasing a lock the processor does not hold *)
  | Double_reserve (* write-reserving an already-reserved word *)
  | Bad_clear (* clearing a free word, or one owned by someone else *)
  | Reserve_leak (* bit still set at workload end *)
  | Interrupt_wait (* reserve wait in interrupt context (Would_deadlock) *)
  | Stall (* watchdog: no global progress while someone waits *)
  | Deadlock_cycle (* watchdog: actual waits-for cycle *)

let kind_name = function
  | Order_cycle -> "order-cycle"
  | Recursive_acquire -> "recursive-acquire"
  | Bad_release -> "bad-release"
  | Double_reserve -> "double-reserve"
  | Bad_clear -> "bad-clear"
  | Reserve_leak -> "reserve-leak"
  | Interrupt_wait -> "interrupt-wait"
  | Stall -> "stall"
  | Deadlock_cycle -> "deadlock"

type violation = { vkind : kind; vproc : int; vtime : int; vmsg : string }

exception Violation of violation

let pp_violation ppf v =
  Format.fprintf ppf "[%s] p%d @%d: %s" (kind_name v.vkind) v.vproc v.vtime
    v.vmsg

(* -- checker state -------------------------------------------------------- *)

(* Everything a hot event touches is an int column: per-processor stacks of
   held entries and wait frames (newest on top), a holder column indexed by
   lock id, and an open-addressing table of reserve words keyed by cell id.
   So a lock or reserve event allocates nothing, hashes no tuple and
   stores no young block into the checker. Read reservations, labels,
   edge witnesses and the class graph are rare and keep ordinary tables. *)

(* Held-entry kinds, and wait-frame kinds. *)
let hlock = 0
let hreserve_w = 1
let hreserve_r = 2
let wlock = 0
let wlock_timed = 1 (* timed acquisition: can abandon, never deadlocks *)
let wword = 2

(* The columns of a held entry or a wait frame: its kind, the lock instance
   id or reserve word's cell id, the class, and since when. *)
let c_kind = 0
let c_id = 1
let c_cls = 2
let c_since = 3

(* A reserve word's columns in [words]: its state (-1 before the checker
   has seen it set or cleared, 0 free, 1 write-held, 2 read-held with the
   readers in [readers]), the writer and its set time, and the class it
   was first reported under (-1 before any report carried one). *)
let c_state = 0
let c_owner = 1
let c_wsince = 2
let c_wcls = 3

type t = {
  mode : [ `Abort | `Record ];
  n_procs : int;
  held : Int_stack.t array; (* per processor *)
  waits : Int_stack.t array; (* per processor, innermost on top *)
  rpc_to : int array; (* in-flight RPC target per processor, -1 = none *)
  rpc_since : int array;
  mutable holder : int array; (* lock instance id -> holder proc, -1 = none *)
  words : Int_table.t; (* cell id -> state, owner, since, class *)
  labels : (int, string) Hashtbl.t; (* cell id -> its non-empty label *)
  readers : (int, (int * int) list) Hashtbl.t;
      (* read-held word -> (reader proc, since), newest first *)
  edges : Int_table.t; (* class pairs seen, by [edge_key] *)
  witness : (int, string) Hashtbl.t; (* edge key -> first witness *)
  succs : (int, int list) Hashtbl.t; (* adjacency for cycle search *)
  mutable violations : violation list; (* newest first *)
  mutable last_progress : int;
  mutable watchdog_live : bool;
  dead : bool array; (* fail-stopped processors (Machine.kill_proc) *)
  mutable recoveries : int;
      (* dead-holder ownership transfers + orphaned-reserve sweeps
         legalized below — the "recovery is not a violation" count *)
}

let create ?(mode = `Record) ~n_procs () =
  {
    mode;
    n_procs;
    held = Array.init n_procs (fun _ -> Int_stack.create ~width:4);
    waits = Array.init n_procs (fun _ -> Int_stack.create ~width:4);
    rpc_to = Array.make n_procs (-1);
    rpc_since = Array.make n_procs 0;
    holder = Array.make 64 (-1);
    words = Int_table.create ~width:4;
    labels = Hashtbl.create 16;
    readers = Hashtbl.create 16;
    edges = Int_table.create ~width:0;
    witness = Hashtbl.create 64;
    succs = Hashtbl.create 64;
    violations = [];
    last_progress = 0;
    watchdog_live = false;
    dead = Array.make n_procs false;
    recoveries = 0;
  }

let violations t = List.rev t.violations
let violation_count t = List.length t.violations

let count_kind t k =
  List.length (List.filter (fun v -> v.vkind = k) t.violations)

let report t ~kind ~proc ~now msg =
  let v = { vkind = kind; vproc = proc; vtime = now; vmsg = msg } in
  t.violations <- v :: t.violations;
  match t.mode with `Abort -> raise (Violation v) | `Record -> ()

(* Stall / deadlock findings abort in both modes: their whole point is to
   terminate a run that would otherwise spin to the event budget. *)
let report_fatal t ~kind ~proc ~now msg =
  let v = { vkind = kind; vproc = proc; vtime = now; vmsg = msg } in
  t.violations <- v :: t.violations;
  raise (Violation v)

let progress t ~now = t.last_progress <- now
let recoveries t = t.recoveries

(* -- lock holders, held entries, wait frames ------------------------------ *)

let holder t id = if id < Array.length t.holder then t.holder.(id) else -1

let grow_holder t id =
  let cap = Array.length t.holder in
  let bigger = Array.make (max (id + 1) (2 * cap)) (-1) in
  Array.blit t.holder 0 bigger 0 cap;
  t.holder <- bigger

let[@inline] set_holder t id p =
  if id >= Array.length t.holder then grow_holder t id;
  t.holder.(id) <- p

let push_held t ~proc kind ~id ~cls ~since =
  let s = t.held.(proc) in
  let i = Int_stack.push s in
  Int_stack.set s i c_kind kind;
  Int_stack.set s i c_id id;
  Int_stack.set s i c_cls cls;
  Int_stack.set s i c_since since

let rec find_lock s id i =
  if i < 0 then -1
  else if Int_stack.get s i c_kind = hlock && Int_stack.get s i c_id = id then i
  else find_lock s id (i - 1)

(* The newest entry of [proc]'s held stack on lock [id], or -1. *)
let held_lock t proc id =
  let s = t.held.(proc) in
  find_lock s id (Int_stack.length s - 1)

let rec find_word s word i =
  if i < 0 then -1
  else if Int_stack.get s i c_kind <> hlock && Int_stack.get s i c_id = word
  then i
  else find_word s word (i - 1)

let remove_held_word t ~proc ~word =
  let s = t.held.(proc) in
  let i = find_word s word (Int_stack.length s - 1) in
  if i >= 0 then Int_stack.remove s i

let push_wait t ~proc kind ~id ~cls ~now =
  let s = t.waits.(proc) in
  let i = Int_stack.push s in
  Int_stack.set s i c_kind kind;
  Int_stack.set s i c_id id;
  Int_stack.set s i c_cls cls;
  Int_stack.set s i c_since now

let pop_wait t ~proc = Int_stack.pop t.waits.(proc)

(* A processor fail-stopped. Its held entries stay — it really does still
   own what it owned, and recovery transfers ownership via [released] —
   but its wait frames and in-flight RPC are dropped: the parked fiber
   will never resume them, and the watchdog must not chase a ghost. *)
let proc_crashed t ~proc ~now =
  t.dead.(proc) <- true;
  Int_stack.clear t.waits.(proc);
  t.rpc_to.(proc) <- -1;
  progress t ~now

let proc_revived t ~proc = t.dead.(proc) <- false

(* -- reserve words ---------------------------------------------------------- *)

(* The slot of [word]'s row, made (state and class unknown) if absent. *)
let word_row t word =
  let s = Int_table.find t.words word in
  if s >= 0 then s
  else begin
    let s = Int_table.add t.words word in
    Int_table.set t.words s c_state (-1);
    Int_table.set t.words s c_wcls (-1);
    s
  end

let word_state t word =
  let s = Int_table.find t.words word in
  if s < 0 then -1 else Int_table.get t.words s c_state

let word_field t word f = Int_table.get t.words (Int_table.find t.words word) f

let set_word t word state ~owner ~since =
  let s = word_row t word in
  Int_table.set t.words s c_state state;
  Int_table.set t.words s c_owner owner;
  Int_table.set t.words s c_wsince since

(* A word keeps the class and label of the first report that names one. *)
let note_word t ~cls ~word ~label =
  let s = word_row t word in
  if Int_table.get t.words s c_wcls < 0 then begin
    Int_table.set t.words s c_wcls cls;
    if label <> "" then Hashtbl.replace t.labels word label
  end

let readers t word =
  match Hashtbl.find_opt t.readers word with Some rs -> rs | None -> []

(* -- diagnostics ---------------------------------------------------------- *)

let describe_instance cls id = Printf.sprintf "%s#%d" (class_name cls) id

let word_desc t word =
  let s = Int_table.find t.words word in
  let cls = if s < 0 then -1 else Int_table.get t.words s c_wcls in
  if cls < 0 then Printf.sprintf "word#%d" word
  else
    match Hashtbl.find_opt t.labels word with
    | Some label -> Printf.sprintf "%s(%s)" (describe_instance cls word) label
    | None -> describe_instance cls word

let held_desc t s i =
  let id = Int_stack.get s i c_id and since = Int_stack.get s i c_since in
  let kind = Int_stack.get s i c_kind in
  if kind = hlock then
    Printf.sprintf "%s(since %d)"
      (describe_instance (Int_stack.get s i c_cls) id)
      since
  else
    Printf.sprintf "%s:%s(since %d)" (word_desc t id)
      (if kind = hreserve_w then "W" else "R")
      since

(* Who holds the resource wait frame [i] of [s] is waiting on, or -1. *)
let holder_of_wait t s i =
  let id = Int_stack.get s i c_id in
  if Int_stack.get s i c_kind <> wword then holder t id
  else
    match word_state t id with
    | 1 -> word_field t id c_owner
    | 2 -> ( match readers t id with (p, _) :: _ -> p | [] -> -1)
    | _ -> -1

let wait_desc t s i =
  let id = Int_stack.get s i c_id in
  let target =
    if Int_stack.get s i c_kind <> wword then
      describe_instance (Int_stack.get s i c_cls) id
    else word_desc t id
  in
  let holder =
    match holder_of_wait t s i with
    | -1 -> ""
    | p -> Printf.sprintf " held by p%d" p
  in
  Printf.sprintf "%s since %d%s" target (Int_stack.get s i c_since) holder

(* The per-processor state dump attached to watchdog findings: what each
   processor holds, what it waits on (innermost first), any RPC in flight,
   and the oldest waiter — the place to start reading. *)
let dump t ~now =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "verify dump @%d:\n" now);
  let oldest = ref None in
  for p = 0 to t.n_procs - 1 do
    let hs = t.held.(p) and ws = t.waits.(p) in
    let held =
      if Int_stack.length hs = 0 then "-"
      else
        String.concat ", "
          (List.init (Int_stack.length hs) (fun i -> held_desc t hs i))
    in
    let innermost_first = List.rev (List.init (Int_stack.length ws) Fun.id) in
    let waiting =
      if innermost_first = [] then "-"
      else begin
        List.iter
          (fun i ->
            let since = Int_stack.get ws i c_since in
            match !oldest with
            | Some (_, o) when o <= since -> ()
            | _ -> oldest := Some (p, since))
          innermost_first;
        String.concat " <- " (List.map (wait_desc t ws) innermost_first)
      end
    in
    let rpc =
      if t.rpc_to.(p) < 0 then ""
      else Printf.sprintf "  rpc->p%d since %d" t.rpc_to.(p) t.rpc_since.(p)
    in
    Buffer.add_string b
      (Printf.sprintf "  p%d: held=[%s]  waiting=%s%s\n" p held waiting rpc)
  done;
  (match !oldest with
  | None -> ()
  | Some (p, since) ->
    Buffer.add_string b
      (Printf.sprintf "  oldest waiter: p%d, waiting %d cycles\n" p
         (now - since)));
  Buffer.add_string b
    (Printf.sprintf "  last progress @%d (%d cycles ago)" t.last_progress
       (now - t.last_progress));
  Buffer.contents b

(* -- lock-order graph ----------------------------------------------------- *)

(* Is [target] reachable from [src] in the class graph? Returns the path
   (src excluded, target included) for the report. *)
let find_path t ~src ~target =
  let visited = Hashtbl.create 16 in
  let rec go node =
    if node = target then Some [ node ]
    else if Hashtbl.mem visited node then None
    else begin
      Hashtbl.replace visited node ();
      let nexts =
        match Hashtbl.find_opt t.succs node with Some l -> l | None -> []
      in
      List.fold_left
        (fun acc n ->
          match acc with
          | Some _ -> acc
          | None -> (
            match go n with Some path -> Some (node :: path) | None -> None))
        None nexts
    end
  in
  match Hashtbl.find_opt t.succs src with
  | None -> None
  | Some nexts ->
    List.fold_left
      (fun acc n ->
        match acc with Some _ -> acc | None -> go n)
      None nexts

(* A class pair as one int: class ids are small and dense. *)
let edge_key a b = (a lsl 30) lor b

let add_edge t ~proc ~now a cls =
  let key = edge_key a cls in
  if Int_table.find t.edges key < 0 then begin
    let witness =
      Printf.sprintf "p%d acquired %s while holding %s @%d" proc
        (class_name cls) (class_name a) now
    in
    (* Report before inserting, so the cycle found is the pre-existing
       reverse path this new edge closes. Same-class edges (a = cls) are
       recorded for the dump but not reported — see the header comment. *)
    (if a <> cls then
       match find_path t ~src:cls ~target:a with
       | None -> ()
       | Some path ->
         let cycle = a :: cls :: path in
         let prior =
           match Hashtbl.find_opt t.witness (edge_key cls a) with
           | Some w -> w
           | None -> "earlier nesting"
         in
         report t ~kind:Order_cycle ~proc ~now
           (Printf.sprintf
              "lock-order cycle %s: %s, but previously %s"
              (String.concat " -> " (List.map class_name cycle))
              witness prior));
    ignore (Int_table.add t.edges key : int);
    Hashtbl.replace t.witness key witness;
    let nexts =
      match Hashtbl.find_opt t.succs a with Some l -> l | None -> []
    in
    Hashtbl.replace t.succs a (cls :: nexts)
  end

(* An edge from each class [proc] holds, newest first, to [cls]. *)
let rec add_edges_from t ~proc ~now cls i =
  if i >= 0 then begin
    add_edge t ~proc ~now (Int_stack.get t.held.(proc) i c_cls) cls;
    add_edges_from t ~proc ~now cls (i - 1)
  end

let add_edges t ~proc ~now cls =
  add_edges_from t ~proc ~now cls (Int_stack.length t.held.(proc) - 1)

(* -- lock events ---------------------------------------------------------- *)

(* A blocking acquisition begins: record order edges from everything held,
   flag recursion on an instance we already hold, and register the wait for
   the watchdog. Runs before the first spin, so the dependency is recorded
   even if the lock turns out to be free. *)
let wait_acquire t ~proc ~cls ~id ~now =
  if held_lock t proc id >= 0 then
    report t ~kind:Recursive_acquire ~proc ~now
      (Printf.sprintf "blocking acquire of %s already held by this processor"
         (describe_instance cls id));
  add_edges t ~proc ~now cls;
  push_wait t ~proc wlock ~id ~cls ~now

(* A *timed* blocking acquisition begins. Like TryLock it records no order
   edges — a waiter that will abandon its wait at a deadline cannot be the
   permanently-waiting side of a deadlock — but it does register a wait
   frame so the dump shows it and [acquired]/[wait_abandoned] stay
   balanced. The frame is marked timed so the watchdog's cycle walk
   skips it: a cycle through a timed waiter self-resolves at the
   deadline. *)
let wait_acquire_timed t ~proc ~cls ~id ~now =
  if held_lock t proc id >= 0 then
    report t ~kind:Recursive_acquire ~proc ~now
      (Printf.sprintf
         "timed blocking acquire of %s already held by this processor"
         (describe_instance cls id));
  push_wait t ~proc wlock_timed ~id ~cls ~now

(* A successful TryLock: held, but no order edges — it could not have
   waited. *)
let try_acquired t ~proc ~cls ~id ~now =
  push_held t ~proc hlock ~id ~cls ~since:now;
  set_holder t id proc;
  progress t ~now

let acquired t ~proc ~cls ~id ~now =
  pop_wait t ~proc;
  try_acquired t ~proc ~cls ~id ~now

(* A timed-out blocking acquisition gave up. *)
let wait_abandoned t ~proc ~now =
  pop_wait t ~proc;
  progress t ~now

let rec remove_locks s id i =
  if i >= 0 then begin
    if Int_stack.get s i c_kind = hlock && Int_stack.get s i c_id = id then
      Int_stack.remove s i;
    remove_locks s id (i - 1)
  end

let released t ~proc ~cls ~id ~now =
  (match held_lock t proc id with
  | -1 -> (
    (* Recovery is a legal ownership transfer: a releaser that does not
       hold the lock, when the registered holder fail-stopped, is a
       recoverer running the dead holder's release on its behalf. Move
       the held entry off the corpse instead of reporting. *)
    match holder t id with
    | owner when owner >= 0 && t.dead.(owner) ->
      let s = t.held.(owner) in
      remove_locks s id (Int_stack.length s - 1);
      set_holder t id (-1);
      t.recoveries <- t.recoveries + 1
    | _ ->
      report t ~kind:Bad_release ~proc ~now
        (Printf.sprintf "released %s without holding it"
           (describe_instance cls id)))
  | i ->
    Int_stack.remove t.held.(proc) i;
    set_holder t id (-1));
  progress t ~now

(* A recoverer sweeps a hold left by fail-stopped processor [dead]. The
   [released] dead-holder path cannot legalise this one: [holder]
   remembers only the *last* acquirer of an instance, and a shared (RW
   reader-side) instance has many concurrent holders, so the registered
   holder may well be a live reader while the corpse being swept is not.
   Naming the corpse removes the ambiguity: legal exactly when [dead]
   fail-stopped and holds the instance. *)
let released_dead t ~proc ~dead ~cls ~id ~now =
  (if not t.dead.(dead) then
     report t ~kind:Bad_release ~proc ~now
       (Printf.sprintf "swept %s off p%d, which is alive"
          (describe_instance cls id) dead)
   else
     match held_lock t dead id with
     | -1 ->
       report t ~kind:Bad_release ~proc ~now
         (Printf.sprintf "swept %s off p%d, which does not hold it"
            (describe_instance cls id) dead)
     | i ->
       Int_stack.remove t.held.(dead) i;
       if holder t id = dead then set_holder t id (-1);
       t.recoveries <- t.recoveries + 1);
  progress t ~now

(* A legal ownership hand-off with no release/acquire pair: a cohort's
   local pass moves the critical section to a cluster-mate while the
   still-held global constituent lock stays put, so the registered holder
   must follow the session or the eventual release looks foreign. The
   recipient inherits the held entry (original acquisition time included —
   the lock has been continuously held); inheriting off a fail-stopped
   holder is the same move and equally legal, the recovery accounting
   having been done by the composite's own release. With no registered
   holder (checker installed mid-session) the recipient adopts the lock. *)
let transferred t ~proc ~cls ~id ~now =
  let owner = holder t id in
  if owner <> proc then begin
    let since =
      if owner < 0 then now
      else
        match held_lock t owner id with
        | -1 -> now
        | i ->
          let s = t.held.(owner) in
          let since = Int_stack.get s i c_since in
          Int_stack.remove s i;
          since
    in
    push_held t ~proc hlock ~id ~cls ~since;
    set_holder t id proc
  end;
  progress t ~now

(* -- reserve events ------------------------------------------------------- *)

let reserve_set t ~proc ~cls ~word ~label ~now =
  note_word t ~cls ~word ~label;
  (match word_state t word with
  | 1 ->
    report t ~kind:Double_reserve ~proc ~now
      (Printf.sprintf "write-reserved %s already reserved by p%d since %d"
         (word_desc t word) (word_field t word c_owner)
         (word_field t word c_wsince))
  | 2 ->
    report t ~kind:Double_reserve ~proc ~now
      (Printf.sprintf "write-reserved %s with readers (p%d among them)"
         (word_desc t word)
         (fst (List.hd (readers t word))));
    Hashtbl.remove t.readers word
  | _ -> ());
  set_word t word 1 ~owner:proc ~since:now;
  push_held t ~proc hreserve_w ~id:word ~cls ~since:now;
  progress t ~now

let reserve_clear t ~proc ~word ~now =
  (match word_state t word with
  | 1 ->
    let owner = word_field t word c_owner in
    if owner = proc then remove_held_word t ~proc ~word
    else begin
      remove_held_word t ~proc:owner ~word;
      (* Sweeping a reservation orphaned by a fail-stopped owner is legal
         recovery, not a foreign clear. *)
      if t.dead.(owner) then t.recoveries <- t.recoveries + 1
      else
        report t ~kind:Bad_clear ~proc ~now
          (Printf.sprintf "cleared %s owned by p%d since %d" (word_desc t word)
             owner
             (word_field t word c_wsince))
    end
  | 0 ->
    report t ~kind:Bad_clear ~proc ~now
      (Printf.sprintf "cleared %s which is not reserved (double clear?)"
         (word_desc t word))
  | 2 ->
    report t ~kind:Bad_clear ~proc ~now
      (Printf.sprintf "write-cleared %s while it holds read reservations"
         (word_desc t word));
    Hashtbl.remove t.readers word
  | _ ->
    (* A word first seen at its clear pre-dates the checker's install;
       adopt it silently. *)
    ());
  set_word t word 0 ~owner:(-1) ~since:0;
  progress t ~now

let reserve_read_set t ~proc ~cls ~word ~label ~now =
  note_word t ~cls ~word ~label;
  (match word_state t word with
  | 1 ->
    report t ~kind:Double_reserve ~proc ~now
      (Printf.sprintf "read-reserved %s write-held by p%d since %d"
         (word_desc t word) (word_field t word c_owner)
         (word_field t word c_wsince))
  | state ->
    Hashtbl.replace t.readers word ((proc, now) :: readers t word);
    if state <> 2 then set_word t word 2 ~owner:(-1) ~since:0;
    push_held t ~proc hreserve_r ~id:word ~cls ~since:now);
  progress t ~now

let reserve_read_clear t ~proc ~word ~now =
  (match word_state t word with
  | 2 -> (
    match readers t word with
    | rs when List.mem_assoc proc rs -> (
      remove_held_word t ~proc ~word;
      match List.remove_assoc proc rs with
      | [] ->
        Hashtbl.remove t.readers word;
        set_word t word 0 ~owner:(-1) ~since:0
      | rs -> Hashtbl.replace t.readers word rs)
    | rs ->
      report t ~kind:Bad_clear ~proc ~now
        (Printf.sprintf
           "read-cleared %s without a read reservation (p%d has one)"
           (word_desc t word) (fst (List.hd rs))))
  | 0 ->
    report t ~kind:Bad_clear ~proc ~now
      (Printf.sprintf "read-cleared %s which has no readers" (word_desc t word))
  | 1 ->
    report t ~kind:Bad_clear ~proc ~now
      (Printf.sprintf "read-cleared %s write-held by p%d" (word_desc t word)
         (word_field t word c_owner))
  | _ -> set_word t word 0 ~owner:(-1) ~since:0);
  progress t ~now

(* A blocking spin on a reserve word. This is where the Would_deadlock
   invariant is enforced: a processor in interrupt context (an RPC service
   or deferred work record) must never wait on a reserve bit — the holder
   may need this very processor to make progress. *)
let reserve_wait t ~proc ~cls ~word ~label ~now ~in_interrupt =
  note_word t ~cls ~word ~label;
  if in_interrupt then
    report t ~kind:Interrupt_wait ~proc ~now
      (Printf.sprintf "interrupt-context wait on %s" (word_desc t word));
  if word_state t word = 1 && word_field t word c_owner = proc then
    report t ~kind:Recursive_acquire ~proc ~now
      (Printf.sprintf "waiting on %s reserved by this processor since %d"
         (word_desc t word)
         (word_field t word c_wsince));
  add_edges t ~proc ~now cls;
  push_wait t ~proc wword ~id:word ~cls ~now

let reserve_wait_done t ~proc ~now =
  pop_wait t ~proc;
  progress t ~now

(* -- rpc events (diagnostics only) ---------------------------------------- *)

let rpc_started t ~proc ~target ~now =
  t.rpc_to.(proc) <- target;
  t.rpc_since.(proc) <- now

let rpc_finished t ~proc ~now =
  t.rpc_to.(proc) <- -1;
  progress t ~now

(* -- the one entry point ------------------------------------------------- *)

(* Optimistic aborts, abandon repairs, recoveries (the forced
   release arrives as [Released]) and RPC retries move no lockdep state. *)
let on_event t ~proc ~now = function
  | Wait (cls, id) -> wait_acquire t ~proc ~cls ~id ~now
  | Wait_timed (cls, id) -> wait_acquire_timed t ~proc ~cls ~id ~now
  | Acquired (cls, id) | Acquired_shared (cls, id) ->
    acquired t ~proc ~cls ~id ~now
  | Try_acquired (cls, id) -> try_acquired t ~proc ~cls ~id ~now
  | Wait_abandoned -> wait_abandoned t ~proc ~now
  | Released (cls, id) | Released_shared (cls, id) ->
    released t ~proc ~cls ~id ~now
  | Released_dead { cls; id; dead } ->
    released_dead t ~proc ~dead ~cls ~id ~now
  | Transferred (cls, id) -> transferred t ~proc ~cls ~id ~now
  | Reserve_set { cls; word; label } ->
    reserve_set t ~proc ~cls ~word ~label ~now
  | Reserve_read_set { cls; word; label } ->
    reserve_read_set t ~proc ~cls ~word ~label ~now
  | Reserve_clear { word } -> reserve_clear t ~proc ~word ~now
  | Reserve_read_clear { word } -> reserve_read_clear t ~proc ~word ~now
  | Reserve_wait { cls; word; label; in_interrupt } ->
    reserve_wait t ~proc ~cls ~word ~label ~now ~in_interrupt
  | Reserve_wait_done -> reserve_wait_done t ~proc ~now
  | Rpc_issue { target } -> rpc_started t ~proc ~target ~now
  | Rpc_reply -> rpc_finished t ~proc ~now
  | Proc_crashed -> proc_crashed t ~proc ~now
  | Proc_revived -> proc_revived t ~proc
  | Recovered _ | Abandon_repaired _ | Optimistic_abort _ | Rpc_retry -> ()

(* -- watchdog ------------------------------------------------------------- *)

(* Waiting processors form a functional graph: p waits on a resource whose
   holder is q. Walk successor chains with a step bound; returning to the
   start is an actual deadlock. *)
let find_deadlock t =
  let next p =
    let ws = t.waits.(p) in
    let top = Int_stack.length ws - 1 in
    (* A timed frame will abandon at its deadline. *)
    if top < 0 || Int_stack.get ws top c_kind = wlock_timed then None
    else
      match holder_of_wait t ws top with
      | q when q >= 0 && q <> p -> Some q
      | _ -> None
  in
  let rec walk start p steps acc =
    if steps > t.n_procs then None
    else
      match next p with
      | None -> None
      | Some q -> if q = start then Some (List.rev (p :: acc)) else walk start q (steps + 1) (p :: acc)
  in
  let rec scan p =
    if p >= t.n_procs then None
    else
      match walk p p 0 [] with
      | Some cycle -> Some (p :: List.tl cycle @ [ p ])
      | None -> scan (p + 1)
  in
  scan 0

let check t ~now ~stall_limit =
  (match find_deadlock t with
  | Some cycle ->
    let chain =
      String.concat " -> " (List.map (Printf.sprintf "p%d") cycle)
    in
    report_fatal t ~kind:Deadlock_cycle ~proc:(List.hd cycle) ~now
      (Printf.sprintf "waits-for cycle %s\n%s" chain (dump t ~now))
  | None -> ());
  (* Timed waiters don't count: they self-resolve at their deadline, and
     each abandonment is itself progress. *)
  let untimed ws =
    Int_stack.find ws c_kind wlock >= 0 || Int_stack.find ws c_kind wword >= 0
  in
  if Array.exists untimed t.waits && now - t.last_progress > stall_limit
  then begin
    (* The first processor with a wait frame. *)
    let proc =
      List.init t.n_procs Fun.id
      |> List.find_opt (fun p -> Int_stack.length t.waits.(p) > 0)
      |> Option.value ~default:0
    in
    report_fatal t ~kind:Stall ~proc ~now
      (Printf.sprintf "no lock/reserve/RPC progress for %d cycles\n%s"
         (now - t.last_progress) (dump t ~now))
  end

(* The watchdog is an ordinary low-frequency engine event. It stops
   rescheduling itself once it is the only thing left in the heap, so a
   finished workload still terminates; a spinning workload keeps the heap
   populated and keeps the watchdog alive until it fires. *)
let watchdog ?(period = 50_000) ?(stall_limit = 1_000_000) t eng =
  if t.watchdog_live then invalid_arg "Verify.watchdog: already running";
  t.watchdog_live <- true;
  t.last_progress <- Engine.now eng;
  let rec tick () =
    if Engine.pending eng = 0 then t.watchdog_live <- false
    else begin
      check t ~now:(Engine.now eng) ~stall_limit;
      Engine.schedule_after eng ~delay:period tick
    end
  in
  Engine.schedule_after eng ~delay:period tick

(* -- end-of-workload checks ----------------------------------------------- *)

(* Leaked reserve bits: every word still write-held or read-held once the
   workload claims to be done. Lock-holder state is intentionally not
   flagged here (some workloads end their window mid-operation); the dump
   shows it. *)
let finish t ~now =
  let held = ref [] in
  Int_table.iter
    (fun word s -> if Int_table.get t.words s c_state > 0 then held := word :: !held)
    t.words;
  (* In cell-id order, so the report does not depend on the table's. *)
  List.iter
    (fun word ->
      if word_state t word = 1 then begin
        let owner = word_field t word c_owner in
        report t ~kind:Reserve_leak ~proc:owner ~now
          (Printf.sprintf "%s still write-reserved by p%d since %d (leaked)"
             (word_desc t word) owner
             (word_field t word c_wsince))
      end
      else
        List.iter
          (fun (p, since) ->
            report t ~kind:Reserve_leak ~proc:p ~now
              (Printf.sprintf "%s still read-reserved by p%d since %d (leaked)"
                 (word_desc t word) p since))
          (readers t word))
    (List.sort compare !held)
