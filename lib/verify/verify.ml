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
      budget. *)

open Eventsim

(* -- lock classes and instance identities --------------------------------- *)

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

let instance_counter = Atomic.make 0

let fresh_id () = 1 + Atomic.fetch_and_add instance_counter 1

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
  | Try_acquired_shared of lock_class * int
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

type held_kind = Hlock | Hreserve_w | Hreserve_r

type held = {
  h_cls : lock_class;
  h_id : int; (* lock instance id, or the reserve word's cell id *)
  h_kind : held_kind;
  h_since : int;
}

type wait = {
  w_cls : lock_class;
  w_id : int;
  w_lock : bool; (* false = reserve word *)
  w_timed : bool; (* timed acquisition: can abandon, never deadlocks *)
  w_since : int;
}

type word_state =
  | Wwrite of { owner : int; since : int }
  | Wread of (int * int) list (* (reader proc, since); newest first *)
  | Wfree

type t = {
  mode : [ `Abort | `Record ];
  n_procs : int;
  held : held list array; (* per processor, newest first *)
  waits : wait list array; (* per processor, innermost first *)
  rpc_to : int array; (* in-flight RPC target per processor, -1 = none *)
  rpc_since : int array;
  words : (int, word_state) Hashtbl.t; (* cell id -> reserve state *)
  word_info : (int, lock_class * string) Hashtbl.t; (* class, label *)
  lock_holder : (int, int) Hashtbl.t; (* lock instance id -> holder proc *)
  edges : (int * int, string) Hashtbl.t; (* class edge -> first witness *)
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
    held = Array.make n_procs [];
    waits = Array.make n_procs [];
    rpc_to = Array.make n_procs (-1);
    rpc_since = Array.make n_procs 0;
    words = Hashtbl.create 256;
    word_info = Hashtbl.create 256;
    lock_holder = Hashtbl.create 64;
    edges = Hashtbl.create 64;
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

(* A processor fail-stopped. Its held entries stay — it really does still
   own what it owned, and recovery transfers ownership via [released] —
   but its wait frames and in-flight RPC are dropped: the parked fiber
   will never resume them, and the watchdog must not chase a ghost. *)
let proc_crashed t ~proc ~now =
  t.dead.(proc) <- true;
  t.waits.(proc) <- [];
  t.rpc_to.(proc) <- -1;
  progress t ~now

let proc_revived t ~proc = t.dead.(proc) <- false

(* -- diagnostics ---------------------------------------------------------- *)

let describe_instance cls id = Printf.sprintf "%s#%d" (class_name cls) id

let word_desc t word =
  match Hashtbl.find_opt t.word_info word with
  | Some (cls, label) ->
    if label = "" then describe_instance cls word
    else Printf.sprintf "%s(%s)" (describe_instance cls word) label
  | None -> Printf.sprintf "word#%d" word

let held_desc t h =
  match h.h_kind with
  | Hlock -> Printf.sprintf "%s(since %d)" (describe_instance h.h_cls h.h_id) h.h_since
  | Hreserve_w -> Printf.sprintf "%s:W(since %d)" (word_desc t h.h_id) h.h_since
  | Hreserve_r -> Printf.sprintf "%s:R(since %d)" (word_desc t h.h_id) h.h_since

(* Who holds the resource a wait frame is waiting on, if known. *)
let holder_of_wait t w =
  if w.w_lock then Hashtbl.find_opt t.lock_holder w.w_id
  else
    match Hashtbl.find_opt t.words w.w_id with
    | Some (Wwrite { owner; _ }) -> Some owner
    | Some (Wread ((p, _) :: _)) -> Some p
    | _ -> None

let wait_desc t w =
  let target =
    if w.w_lock then describe_instance w.w_cls w.w_id else word_desc t w.w_id
  in
  let holder =
    match holder_of_wait t w with
    | Some p -> Printf.sprintf " held by p%d" p
    | None -> ""
  in
  Printf.sprintf "%s since %d%s" target w.w_since holder

(* The per-processor state dump attached to watchdog findings: what each
   processor holds, what it waits on (innermost first), any RPC in flight,
   and the oldest waiter — the place to start reading. *)
let dump t ~now =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "verify dump @%d:\n" now);
  let oldest = ref None in
  for p = 0 to t.n_procs - 1 do
    let held =
      match t.held.(p) with
      | [] -> "-"
      | hs -> String.concat ", " (List.map (held_desc t) (List.rev hs))
    in
    let waiting =
      match t.waits.(p) with
      | [] -> "-"
      | ws ->
        List.iter
          (fun w ->
            match !oldest with
            | Some (_, since) when since <= w.w_since -> ()
            | _ -> oldest := Some (p, w.w_since))
          ws;
        String.concat " <- " (List.map (wait_desc t) ws)
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

let add_edge t ~proc ~now ~from_held cls =
  let a = from_held.h_cls in
  if not (Hashtbl.mem t.edges (a, cls)) then begin
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
           match Hashtbl.find_opt t.edges (cls, a) with
           | Some w -> w
           | None -> "earlier nesting"
         in
         report t ~kind:Order_cycle ~proc ~now
           (Printf.sprintf
              "lock-order cycle %s: %s, but previously %s"
              (String.concat " -> " (List.map class_name cycle))
              witness prior));
    Hashtbl.replace t.edges (a, cls) witness;
    let nexts =
      match Hashtbl.find_opt t.succs a with Some l -> l | None -> []
    in
    Hashtbl.replace t.succs a (cls :: nexts)
  end

(* -- lock events ---------------------------------------------------------- *)

let push_wait t ~proc w = t.waits.(proc) <- w :: t.waits.(proc)

let holds_lock id h = h.h_kind = Hlock && h.h_id = id

(* Remove and return the newest entry of [proc]'s held list satisfying
   [pred]. *)
let take_held t proc pred =
  let rec go skipped = function
    | [] -> None
    | h :: rest when pred h ->
      t.held.(proc) <- List.rev_append skipped rest;
      Some h
    | h :: rest -> go (h :: skipped) rest
  in
  go [] t.held.(proc)

let pop_wait t ~proc =
  match t.waits.(proc) with [] -> () | _ :: rest -> t.waits.(proc) <- rest

(* A blocking acquisition begins: record order edges from everything held,
   flag recursion on an instance we already hold, and register the wait for
   the watchdog. Runs before the first spin, so the dependency is recorded
   even if the lock turns out to be free. *)
let wait_acquire t ~proc ~cls ~id ~now =
  if List.exists (holds_lock id) t.held.(proc) then
    report t ~kind:Recursive_acquire ~proc ~now
      (Printf.sprintf "blocking acquire of %s already held by this processor"
         (describe_instance cls id));
  List.iter (fun h -> add_edge t ~proc ~now ~from_held:h cls) t.held.(proc);
  push_wait t ~proc
    { w_cls = cls; w_id = id; w_lock = true; w_timed = false; w_since = now }

(* A *timed* blocking acquisition begins. Like TryLock it records no order
   edges — a waiter that will abandon its wait at a deadline cannot be the
   permanently-waiting side of a deadlock — but it does register a wait
   frame so the dump shows it and [acquired]/[wait_abandoned] stay
   balanced. The frame is marked [w_timed] so the watchdog's cycle walk
   skips it: a cycle through a timed waiter self-resolves at the
   deadline. *)
let wait_acquire_timed t ~proc ~cls ~id ~now =
  if List.exists (holds_lock id) t.held.(proc) then
    report t ~kind:Recursive_acquire ~proc ~now
      (Printf.sprintf
         "timed blocking acquire of %s already held by this processor"
         (describe_instance cls id));
  push_wait t ~proc
    { w_cls = cls; w_id = id; w_lock = true; w_timed = true; w_since = now }

(* A successful TryLock: held, but no order edges — it could not have
   waited. *)
let try_acquired t ~proc ~cls ~id ~now =
  t.held.(proc) <-
    { h_cls = cls; h_id = id; h_kind = Hlock; h_since = now } :: t.held.(proc);
  Hashtbl.replace t.lock_holder id proc;
  progress t ~now

let acquired t ~proc ~cls ~id ~now =
  pop_wait t ~proc;
  try_acquired t ~proc ~cls ~id ~now

(* A timed-out blocking acquisition gave up. *)
let wait_abandoned t ~proc ~now =
  pop_wait t ~proc;
  progress t ~now

let released t ~proc ~cls ~id ~now =
  (match take_held t proc (holds_lock id) with
  | Some _ -> Hashtbl.remove t.lock_holder id
  | None -> (
    (* Recovery is a legal ownership transfer: a releaser that does not
       hold the lock, when the registered holder fail-stopped, is a
       recoverer running the dead holder's release on its behalf. Move
       the held entry off the corpse instead of reporting. *)
    match Hashtbl.find_opt t.lock_holder id with
    | Some owner when t.dead.(owner) ->
      t.held.(owner) <-
        List.filter (fun h -> not (holds_lock id h)) t.held.(owner);
      Hashtbl.remove t.lock_holder id;
      t.recoveries <- t.recoveries + 1
    | _ ->
      report t ~kind:Bad_release ~proc ~now
        (Printf.sprintf "released %s without holding it"
           (describe_instance cls id))));
  progress t ~now

(* A recoverer sweeps a hold left by fail-stopped processor [dead]. The
   [released] dead-holder path cannot legalise this one: [lock_holder]
   remembers only the *last* acquirer of an instance, and a shared (RW
   reader-side) instance has many concurrent holders, so the registered
   holder may well be a live reader while the corpse being swept is not.
   Naming the corpse removes the ambiguity: legal exactly when [dead]
   fail-stopped and holds the instance. *)
let released_dead t ~proc ~dead ~cls ~id ~now =
  if not t.dead.(dead) then
    report t ~kind:Bad_release ~proc ~now
      (Printf.sprintf "swept %s off p%d, which is alive"
         (describe_instance cls id) dead)
  else if Option.is_some (take_held t dead (holds_lock id)) then begin
    (match Hashtbl.find_opt t.lock_holder id with
    | Some owner when owner = dead -> Hashtbl.remove t.lock_holder id
    | _ -> ());
    t.recoveries <- t.recoveries + 1
  end
  else
    report t ~kind:Bad_release ~proc ~now
      (Printf.sprintf "swept %s off p%d, which does not hold it"
         (describe_instance cls id) dead);
  progress t ~now

(* A legal ownership hand-off with no release/acquire pair: a cohort's
   local pass moves the critical section to a cluster-mate while the
   still-held global constituent lock stays put, so the registered holder
   must follow the session or the eventual release looks foreign. The
   recipient inherits the held entry (original acquisition time included —
   the lock has been continuously held); inheriting off a fail-stopped
   holder is the same move and equally legal, the recovery accounting
   having been done by the composite's own release. *)
let transferred t ~proc ~cls ~id ~now =
  (match Hashtbl.find_opt t.lock_holder id with
  | Some owner when owner = proc -> ()
  | Some owner ->
    let since =
      match take_held t owner (holds_lock id) with
      | Some h -> h.h_since
      | None -> now
    in
    t.held.(proc) <-
      { h_cls = cls; h_id = id; h_kind = Hlock; h_since = since }
      :: t.held.(proc);
    Hashtbl.replace t.lock_holder id proc
  | None ->
    (* No registered holder (checker installed mid-session): adopt. *)
    t.held.(proc) <-
      { h_cls = cls; h_id = id; h_kind = Hlock; h_since = now }
      :: t.held.(proc);
    Hashtbl.replace t.lock_holder id proc);
  progress t ~now

(* -- reserve events ------------------------------------------------------- *)

let note_word t ~cls ~word ~label =
  if not (Hashtbl.mem t.word_info word) then
    Hashtbl.replace t.word_info word (cls, label)

let reserve_set t ~proc ~cls ~word ~label ~now =
  note_word t ~cls ~word ~label;
  (match Hashtbl.find_opt t.words word with
  | Some (Wwrite { owner; since }) ->
    report t ~kind:Double_reserve ~proc ~now
      (Printf.sprintf "write-reserved %s already reserved by p%d since %d"
         (word_desc t word) owner since)
  | Some (Wread ((p, _) :: _)) ->
    report t ~kind:Double_reserve ~proc ~now
      (Printf.sprintf "write-reserved %s with readers (p%d among them)"
         (word_desc t word) p)
  | Some (Wread []) | Some Wfree | None -> ());
  Hashtbl.replace t.words word (Wwrite { owner = proc; since = now });
  t.held.(proc) <-
    { h_cls = cls; h_id = word; h_kind = Hreserve_w; h_since = now }
    :: t.held.(proc);
  progress t ~now

let remove_held_word t ~proc ~word =
  ignore (take_held t proc (fun h -> h.h_kind <> Hlock && h.h_id = word))

let reserve_clear t ~proc ~word ~now =
  (match Hashtbl.find_opt t.words word with
  | Some (Wwrite { owner; _ }) when owner = proc ->
    remove_held_word t ~proc ~word
  | Some (Wwrite { owner; since }) ->
    remove_held_word t ~proc:owner ~word;
    (* Sweeping a reservation orphaned by a fail-stopped owner is legal
       recovery, not a foreign clear. *)
    if t.dead.(owner) then t.recoveries <- t.recoveries + 1
    else
      report t ~kind:Bad_clear ~proc ~now
        (Printf.sprintf "cleared %s owned by p%d since %d" (word_desc t word)
           owner since)
  | Some Wfree ->
    report t ~kind:Bad_clear ~proc ~now
      (Printf.sprintf "cleared %s which is not reserved (double clear?)"
         (word_desc t word))
  | Some (Wread _) ->
    report t ~kind:Bad_clear ~proc ~now
      (Printf.sprintf "write-cleared %s while it holds read reservations"
         (word_desc t word))
  | None ->
    (* A word first seen at its clear pre-dates the checker's install;
       adopt it silently. *)
    ());
  Hashtbl.replace t.words word Wfree;
  progress t ~now

let reserve_read_set t ~proc ~cls ~word ~label ~now =
  note_word t ~cls ~word ~label;
  (match Hashtbl.find_opt t.words word with
  | Some (Wwrite { owner; since }) ->
    report t ~kind:Double_reserve ~proc ~now
      (Printf.sprintf "read-reserved %s write-held by p%d since %d"
         (word_desc t word) owner since)
  | Some (Wread rs) -> Hashtbl.replace t.words word (Wread ((proc, now) :: rs))
  | Some Wfree | None -> Hashtbl.replace t.words word (Wread [ (proc, now) ]));
  (match Hashtbl.find_opt t.words word with
  | Some (Wwrite _) -> ()
  | _ ->
    t.held.(proc) <-
      { h_cls = cls; h_id = word; h_kind = Hreserve_r; h_since = now }
      :: t.held.(proc));
  progress t ~now

let reserve_read_clear t ~proc ~word ~now =
  (match Hashtbl.find_opt t.words word with
  | Some (Wread rs) when List.mem_assoc proc rs ->
    remove_held_word t ~proc ~word;
    let rs = List.remove_assoc proc rs in
    Hashtbl.replace t.words word (if rs = [] then Wfree else Wread rs)
  | Some (Wread ((p, _) :: _)) ->
    report t ~kind:Bad_clear ~proc ~now
      (Printf.sprintf "read-cleared %s without a read reservation (p%d has one)"
         (word_desc t word) p)
  | Some (Wread []) | Some Wfree ->
    report t ~kind:Bad_clear ~proc ~now
      (Printf.sprintf "read-cleared %s which has no readers" (word_desc t word))
  | Some (Wwrite { owner; _ }) ->
    report t ~kind:Bad_clear ~proc ~now
      (Printf.sprintf "read-cleared %s write-held by p%d" (word_desc t word)
         owner)
  | None -> Hashtbl.replace t.words word Wfree);
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
  (match Hashtbl.find_opt t.words word with
  | Some (Wwrite { owner; since }) when owner = proc ->
    report t ~kind:Recursive_acquire ~proc ~now
      (Printf.sprintf "waiting on %s reserved by this processor since %d"
         (word_desc t word) since)
  | _ -> ());
  List.iter (fun h -> add_edge t ~proc ~now ~from_held:h cls) t.held.(proc);
  push_wait t ~proc
    { w_cls = cls; w_id = word; w_lock = false; w_timed = false; w_since = now }

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
  | Try_acquired (cls, id) | Try_acquired_shared (cls, id) ->
    try_acquired t ~proc ~cls ~id ~now
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
    match t.waits.(p) with
    | [] -> None
    | w :: _ when w.w_timed -> None (* will abandon at its deadline *)
    | w :: _ -> (
      match holder_of_wait t w with
      | Some q when q <> p -> Some q
      | _ -> None)
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
  let someone_waits =
    Array.exists (fun ws -> List.exists (fun w -> not w.w_timed) ws) t.waits
  in
  if someone_waits && now - t.last_progress > stall_limit then begin
    let proc =
      let p = ref 0 in
      Array.iteri (fun i ws -> if ws <> [] && t.waits.(!p) = [] then p := i) t.waits;
      !p
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
  Hashtbl.iter
    (fun word state ->
      match state with
      | Wfree -> ()
      | Wwrite { owner; since } ->
        report t ~kind:Reserve_leak ~proc:owner ~now
          (Printf.sprintf "%s still write-reserved by p%d since %d (leaked)"
             (word_desc t word) owner since)
      | Wread rs ->
        List.iter
          (fun (p, since) ->
            report t ~kind:Reserve_leak ~proc:p ~now
              (Printf.sprintf "%s still read-reserved by p%d since %d (leaked)"
                 (word_desc t word) p since))
          rs)
    t.words
