(* Contention profiles and event tracing (see obs.mli for the contract).

   Everything here is host-side bookkeeping driven by the same hook events
   as the lockdep checker ([on_event]): per-proc stacks of open waits, a
   holder table to classify acquisitions as contended, per-word reserve
   ownership for hold attribution, and a fixed-capacity ring of trace
   events. No call touches the engine, so installed-vs-not cannot move
   simulated time. *)

let rpc_class = Verify.lock_class "rpc"

(* -- profile buckets ------------------------------------------------------ *)

type bucket = {
  mutable b_acqs : int;
  mutable b_contended : int;
  mutable b_wait : int;
  mutable b_max_wait : int;
  mutable b_hold : int;
  mutable b_handoffs : int;
  mutable b_handoffs_local : int;
  mutable b_handoffs_remote : int;
  mutable b_aborts : int;
  mutable b_abandon_repairs : int;
}

let fresh_bucket () =
  {
    b_acqs = 0;
    b_contended = 0;
    b_wait = 0;
    b_max_wait = 0;
    b_hold = 0;
    b_handoffs = 0;
    b_handoffs_local = 0;
    b_handoffs_remote = 0;
    b_aborts = 0;
    b_abandon_repairs = 0;
  }

type cells = {
  acqs : int;
  contended : int;
  wait_cycles : int;
  max_wait_cycles : int;
  hold_cycles : int;
  handoffs : int;
  handoffs_local : int;
  handoffs_remote : int;
  aborts : int; (* timed acquisitions that gave up *)
  abandon_repairs : int; (* abandoned nodes reclaimed by a hand-off *)
}

type row = {
  row_class : string;
  total : cells;
  by_cluster : (int * cells) list;
}

(* -- trace ---------------------------------------------------------------- *)

type kind =
  | Lock_acquired
  | Lock_released
  | Lock_try
  | Lock_abandoned
  | Lock_recovered
  | Reserve_set
  | Reserve_cleared
  | Reserve_spin
  | Rpc_issue
  | Rpc_retry
  | Rpc_reply
  | Proc_crash

let kind_name = function
  | Lock_acquired -> "lock_acquired"
  | Lock_released -> "lock_released"
  | Lock_try -> "lock_try"
  | Lock_abandoned -> "lock_abandoned"
  | Lock_recovered -> "lock_recovered"
  | Reserve_set -> "reserve_set"
  | Reserve_cleared -> "reserve_cleared"
  | Reserve_spin -> "reserve_spin"
  | Rpc_issue -> "rpc_issue"
  | Rpc_retry -> "rpc_retry"
  | Rpc_reply -> "rpc_reply"
  | Proc_crash -> "proc_crash"

type event = {
  kind : kind;
  proc : int;
  cls : Verify.lock_class;
  time : int;
  dur : int;
}

(* -- open-wait / ownership state ------------------------------------------ *)

(* One entry per wait a processor currently has open, newest first. Waits
   nest (a lock wait inside an RPC span, say) and are popped by kind — and
   for locks/words by identity — so interleavings cannot mispair them. *)
type frame =
  | Flock of { id : int; cls : int; since : int; contended : bool }
  | Fspin of { word : int; cls : int; since : int }
  | Frpc of { since : int }

type hold = { h_id : int; h_cls : int; h_since : int }

(* One lock instance's state, made at its first hook and kept: its holder
   and last releaser (-1 for none) and how many waiters it has. *)
type lock_state = {
  mutable holder : int;
  mutable waiters : int;
  mutable last_releaser : int;
}

(* Crash/recovery accounting lives beside the profile buckets, not inside
   them: the [cells] record is schema-stable (profile rows and their JSON
   export are byte-compared across versions), and crash evidence wants
   per-event latency samples, which buckets do not keep. *)
type crash_bucket = {
  mutable cb_crashes : int;
  mutable cb_recoveries : int;
  mutable cb_latencies_rev : int list; (* recovery latencies, newest first *)
}

type crash_row = {
  cr_cluster : int;
  cr_crashes : int;
  cr_recoveries : int;
  cr_latencies : int list; (* chronological *)
}

(* Reader-concurrency gauge for shared (RW reader-side) classes: like the
   crash buckets it lives beside the profile, not inside it — the [cells]
   record is schema-stable, and a concurrency high-water mark is a gauge,
   not a counter. *)
type rw_bucket = { mutable rw_now : int; mutable rw_peak : int }

type t = {
  n_clusters : int;
  cluster_of : int -> int;
  mutable classes : bucket array option array; (* class id -> per-cluster *)
  frames : frame list array; (* per proc, newest first *)
  holds : hold list array; (* per proc, lock holds, newest first *)
  locks : (int, lock_state) Hashtbl.t; (* instance id -> its state *)
  words : (int, int * int * int) Hashtbl.t; (* word -> proc, cls, since *)
  read_words : (int * int, int * int) Hashtbl.t; (* word,proc -> cls,since *)
  word_waiters : (int, int) Hashtbl.t; (* word -> spinner count *)
  trace_cap : int;
  ring : event array;
  mutable recorded : int; (* monotonic; ring index = recorded mod cap *)
  crash : crash_bucket array; (* per cluster *)
  rw : (int, rw_bucket array) Hashtbl.t; (* class id -> total :: per-cluster *)
}

let create ?(trace = 0) ?cluster_of ?(n_clusters = 1) ~n_procs () =
  if n_procs <= 0 then invalid_arg "Obs.create: n_procs must be positive";
  if n_clusters <= 0 then invalid_arg "Obs.create: n_clusters must be positive";
  if trace < 0 then invalid_arg "Obs.create: negative trace capacity";
  let cluster_of =
    match cluster_of with Some f -> f | None -> fun _ -> 0
  in
  let dummy =
    { kind = Lock_try; proc = 0; cls = 0; time = 0; dur = 0 }
  in
  {
    n_clusters;
    cluster_of;
    classes = Array.make 16 None;
    frames = Array.make n_procs [];
    holds = Array.make n_procs [];
    locks = Hashtbl.create 64;
    words = Hashtbl.create 64;
    read_words = Hashtbl.create 64;
    word_waiters = Hashtbl.create 64;
    trace_cap = trace;
    ring = Array.make (max trace 1) dummy;
    recorded = 0;
    crash =
      Array.init n_clusters (fun _ ->
          { cb_crashes = 0; cb_recoveries = 0; cb_latencies_rev = [] });
    rw = Hashtbl.create 8;
  }

let cluster t proc =
  let c = t.cluster_of proc in
  if c < 0 || c >= t.n_clusters then 0 else c

let bucket t ~cls ~proc =
  let cap = Array.length t.classes in
  if cls >= cap then begin
    let bigger = Array.make (max (cls + 1) (2 * cap)) None in
    Array.blit t.classes 0 bigger 0 cap;
    t.classes <- bigger
  end;
  let per_cluster =
    match t.classes.(cls) with
    | Some bs -> bs
    | None ->
      let bs = Array.init t.n_clusters (fun _ -> fresh_bucket ()) in
      t.classes.(cls) <- Some bs;
      bs
  in
  per_cluster.(cluster t proc)

let record t kind ~proc ~cls ~time ~dur =
  if t.trace_cap > 0 then begin
    t.ring.(t.recorded mod t.trace_cap) <- { kind; proc; cls; time; dur };
    t.recorded <- t.recorded + 1
  end

(* Pop the newest frame satisfying [pred]; [None] if there is none (the
   observer was installed after the wait opened). *)
let pop_frame t proc pred =
  let rec go skipped = function
    | [] -> None
    | f :: rest when pred f ->
      t.frames.(proc) <- List.rev_append skipped rest;
      Some f
    | f :: rest -> go (f :: skipped) rest
  in
  go [] t.frames.(proc)

let bump tbl key delta =
  let v = (match Hashtbl.find_opt tbl key with Some v -> v | None -> 0) + delta in
  if v <= 0 then Hashtbl.remove tbl key else Hashtbl.replace tbl key v

let count tbl key =
  match Hashtbl.find_opt tbl key with Some v -> v | None -> 0

(* -- lock hooks ----------------------------------------------------------- *)

let lock_state t id =
  match Hashtbl.find t.locks id with
  | s -> s
  | exception Not_found ->
    let s = { holder = -1; waiters = 0; last_releaser = -1 } in
    Hashtbl.add t.locks id s;
    s

let unwait s = if s.waiters > 0 then s.waiters <- s.waiters - 1

let lock_wait t ~proc ~cls ~id ~now =
  let s = lock_state t id in
  (* Contended if someone holds the lock — or if waiters are queued while
     it is in flight between holders (a queue lock mid-hand-off): either
     way this acquisition will receive the lock from a releaser. *)
  let contended = s.holder >= 0 || s.waiters > 0 in
  t.frames.(proc) <- Flock { id; cls; since = now; contended } :: t.frames.(proc);
  s.waiters <- s.waiters + 1

let start_hold t s ~proc ~cls ~id ~now =
  s.holder <- proc;
  t.holds.(proc) <- { h_id = id; h_cls = cls; h_since = now } :: t.holds.(proc)

let lock_acquired t ~proc ~cls ~id ~now =
  let s = lock_state t id in
  (match pop_frame t proc (function Flock f -> f.id = id | _ -> false) with
  | Some (Flock f) ->
    unwait s;
    let b = bucket t ~cls ~proc in
    b.b_acqs <- b.b_acqs + 1;
    if f.contended then begin
      b.b_contended <- b.b_contended + 1;
      (* A contended acquisition received the lock from whoever released it
         last: classify the hand-off by whether it crossed a cluster
         boundary — the locality a NUMA-aware lock exists to improve.
         Attributed to the *receiving* processor's cluster row. *)
      let r = s.last_releaser in
      if r >= 0 then begin
        if cluster t r = cluster t proc then
          b.b_handoffs_local <- b.b_handoffs_local + 1
        else b.b_handoffs_remote <- b.b_handoffs_remote + 1
      end
    end;
    let dur = now - f.since in
    b.b_wait <- b.b_wait + dur;
    if dur > b.b_max_wait then b.b_max_wait <- dur;
    record t Lock_acquired ~proc ~cls ~time:now ~dur
  | _ ->
    let b = bucket t ~cls ~proc in
    b.b_acqs <- b.b_acqs + 1);
  start_hold t s ~proc ~cls ~id ~now

let lock_try_acquired t ~proc ~cls ~id ~now =
  let b = bucket t ~cls ~proc in
  b.b_acqs <- b.b_acqs + 1;
  record t Lock_try ~proc ~cls ~time:now ~dur:0;
  start_hold t (lock_state t id) ~proc ~cls ~id ~now

(* Abandonments bump [aborts] *before* [contended]: hooks run host-
   atomically, so a mid-run sampler (a periodic reporter) lands between hooks, never inside one —
   but keeping the excuse written before the excess preserves the row
   invariant [contended <= acqs + aborts] at every sequencing granularity,
   and the qcheck property in test_obs pins it. *)
let lock_wait_abandoned t ~proc ~now =
  match pop_frame t proc (function Flock _ -> true | _ -> false) with
  | Some (Flock f) ->
    unwait (lock_state t f.id);
    let b = bucket t ~cls:f.cls ~proc in
    b.b_aborts <- b.b_aborts + 1;
    b.b_contended <- b.b_contended + 1;
    let dur = now - f.since in
    b.b_wait <- b.b_wait + dur;
    if dur > b.b_max_wait then b.b_max_wait <- dur;
    record t Lock_abandoned ~proc ~cls:f.cls ~time:now ~dur
  | _ -> ()

(* A releaser (or a later hand-off) reclaimed a node some timed waiter left
   behind: attributed to the repairing processor's cluster. *)
let lock_abandon_repaired t ~proc ~cls =
  let b = bucket t ~cls ~proc in
  b.b_abandon_repairs <- b.b_abandon_repairs + 1

let lock_released t ~proc ~cls ~id ~now =
  (let rec go skipped = function
     | [] -> ()
     | h :: rest when h.h_id = id ->
       t.holds.(proc) <- List.rev_append skipped rest;
       let b = bucket t ~cls:h.h_cls ~proc in
       let dur = now - h.h_since in
       b.b_hold <- b.b_hold + dur;
       record t Lock_released ~proc ~cls:h.h_cls ~time:now ~dur
     | h :: rest -> go (h :: skipped) rest
   in
   go [] t.holds.(proc));
  let s = lock_state t id in
  s.holder <- -1;
  s.last_releaser <- proc;
  if s.waiters > 0 then begin
    let b = bucket t ~cls ~proc in
    b.b_handoffs <- b.b_handoffs + 1
  end

(* An optimistic read sampled the lock and had to abort (writer in
   progress, or the sequence moved under it). Nothing was ever held, so no
   frames or holder tables move: the abort is charged to the sampling
   processor's cluster as a contended non-acquisition. *)
let lock_optimistic_abort t ~proc ~cls ~now =
  let b = bucket t ~cls ~proc in
  (* Abort before contended — see lock_wait_abandoned. *)
  b.b_aborts <- b.b_aborts + 1;
  b.b_contended <- b.b_contended + 1;
  record t Lock_abandoned ~proc ~cls ~time:now ~dur:0

(* -- reader-concurrency gauge --------------------------------------------- *)

let rw_buckets t ~cls =
  match Hashtbl.find_opt t.rw cls with
  | Some bs -> bs
  | None ->
    let bs =
      Array.init (t.n_clusters + 1) (fun _ -> { rw_now = 0; rw_peak = 0 })
    in
    Hashtbl.replace t.rw cls bs;
    bs

let rw_read_enter t ~proc ~cls =
  let bs = rw_buckets t ~cls in
  let up b =
    b.rw_now <- b.rw_now + 1;
    if b.rw_now > b.rw_peak then b.rw_peak <- b.rw_now
  in
  up bs.(0);
  up bs.(1 + cluster t proc)

let rw_read_exit t ~proc ~cls =
  match Hashtbl.find_opt t.rw cls with
  | None -> ()
  | Some bs ->
    let down b = if b.rw_now > 0 then b.rw_now <- b.rw_now - 1 in
    down bs.(0);
    down bs.(1 + cluster t proc)

let rw_read_peak t ~cls =
  match Hashtbl.find_opt t.rw cls with None -> 0 | Some bs -> bs.(0).rw_peak

let rw_read_peak_by_cluster t ~cls =
  match Hashtbl.find_opt t.rw cls with
  | None -> []
  | Some bs ->
    List.filteri (fun i _ -> i > 0) (Array.to_list bs)
    |> List.mapi (fun c b -> (c, b.rw_peak))
    |> List.filter (fun (_, p) -> p > 0)

(* -- crash hooks ---------------------------------------------------------- *)

let crash_class = Verify.lock_class "crash"

let proc_crashed t ~proc ~now =
  let cb = t.crash.(cluster t proc) in
  cb.cb_crashes <- cb.cb_crashes + 1;
  record t Proc_crash ~proc ~cls:crash_class ~time:now ~dur:0

(* A recoverer ([proc]) released lock [cls] on a dead holder's behalf.
   Attributed — crash and latency both — to the {e dead} processor's
   cluster: recovery latency measures how long that cluster's casualty
   wedged the lock, wherever the rescuer happened to run. *)
let lock_recovered t ~proc ~cls ~dead ~latency ~now =
  let cb = t.crash.(cluster t dead) in
  cb.cb_recoveries <- cb.cb_recoveries + 1;
  cb.cb_latencies_rev <- latency :: cb.cb_latencies_rev;
  record t Lock_recovered ~proc ~cls ~time:now ~dur:latency

let crash_rows t =
  let rows = ref [] in
  Array.iteri
    (fun c cb ->
      if cb.cb_crashes <> 0 || cb.cb_recoveries <> 0 then
        rows :=
          {
            cr_cluster = c;
            cr_crashes = cb.cb_crashes;
            cr_recoveries = cb.cb_recoveries;
            cr_latencies = List.rev cb.cb_latencies_rev;
          }
          :: !rows)
    t.crash;
  List.rev !rows

let crashes_observed t =
  Array.fold_left (fun acc cb -> acc + cb.cb_crashes) 0 t.crash

let recoveries_observed t =
  Array.fold_left (fun acc cb -> acc + cb.cb_recoveries) 0 t.crash

(* -- reserve hooks -------------------------------------------------------- *)

let reserve_set t ~proc ~cls ~word ~now =
  Hashtbl.replace t.words word (proc, cls, now);
  let b = bucket t ~cls ~proc in
  b.b_acqs <- b.b_acqs + 1;
  record t Reserve_set ~proc ~cls ~time:now ~dur:0

let reserve_clear t ~proc ~word ~now =
  match Hashtbl.find_opt t.words word with
  | None -> ()
  | Some (owner, cls, since) ->
    Hashtbl.remove t.words word;
    (* Attribute the hold to the setter: the clear may run elsewhere (an
       RPC service clearing on the owner's behalf). *)
    let b = bucket t ~cls ~proc:owner in
    let dur = now - since in
    b.b_hold <- b.b_hold + dur;
    if count t.word_waiters word > 0 then b.b_handoffs <- b.b_handoffs + 1;
    record t Reserve_cleared ~proc ~cls ~time:now ~dur

let reserve_read_set t ~proc ~cls ~word ~now =
  Hashtbl.replace t.read_words (word, proc) (cls, now);
  let b = bucket t ~cls ~proc in
  b.b_acqs <- b.b_acqs + 1;
  record t Reserve_set ~proc ~cls ~time:now ~dur:0

let reserve_read_clear t ~proc ~word ~now =
  match Hashtbl.find_opt t.read_words (word, proc) with
  | None -> ()
  | Some (cls, since) ->
    Hashtbl.remove t.read_words (word, proc);
    let b = bucket t ~cls ~proc in
    let dur = now - since in
    b.b_hold <- b.b_hold + dur;
    record t Reserve_cleared ~proc ~cls ~time:now ~dur

let reserve_wait t ~proc ~cls ~word ~now =
  t.frames.(proc) <- Fspin { word; cls; since = now } :: t.frames.(proc);
  bump t.word_waiters word 1

let reserve_wait_done t ~proc ~now =
  match pop_frame t proc (function Fspin _ -> true | _ -> false) with
  | Some (Fspin f) ->
    bump t.word_waiters f.word (-1);
    let b = bucket t ~cls:f.cls ~proc in
    b.b_contended <- b.b_contended + 1;
    let dur = now - f.since in
    b.b_wait <- b.b_wait + dur;
    if dur > b.b_max_wait then b.b_max_wait <- dur;
    record t Reserve_spin ~proc ~cls:f.cls ~time:now ~dur
  | _ -> ()

(* -- rpc hooks ------------------------------------------------------------ *)

let rpc_issue t ~proc ~now =
  t.frames.(proc) <- Frpc { since = now } :: t.frames.(proc);
  let b = bucket t ~cls:rpc_class ~proc in
  b.b_acqs <- b.b_acqs + 1;
  record t Rpc_issue ~proc ~cls:rpc_class ~time:now ~dur:0

let rpc_retry t ~proc ~now =
  let b = bucket t ~cls:rpc_class ~proc in
  b.b_contended <- b.b_contended + 1;
  record t Rpc_retry ~proc ~cls:rpc_class ~time:now ~dur:0

let rpc_reply t ~proc ~now =
  match pop_frame t proc (function Frpc _ -> true | _ -> false) with
  | Some (Frpc f) ->
    let b = bucket t ~cls:rpc_class ~proc in
    let dur = now - f.since in
    b.b_wait <- b.b_wait + dur;
    if dur > b.b_max_wait then b.b_max_wait <- dur;
    record t Rpc_reply ~proc ~cls:rpc_class ~time:now ~dur
  | _ -> ()

(* -- the one entry point ------------------------------------------------- *)

(* Ownership transfers and revivals move no profile state. A swept shared
   hold ([Released_dead]) ends on the corpse, not the recoverer. *)
let on_event t ~proc ~now (e : Verify.event) =
  match e with
  | Wait (cls, id) | Wait_timed (cls, id) -> lock_wait t ~proc ~cls ~id ~now
  | Acquired (cls, id) -> lock_acquired t ~proc ~cls ~id ~now
  | Try_acquired (cls, id) -> lock_try_acquired t ~proc ~cls ~id ~now
  | Wait_abandoned -> lock_wait_abandoned t ~proc ~now
  | Released (cls, id) -> lock_released t ~proc ~cls ~id ~now
  | Acquired_shared (cls, id) ->
    lock_acquired t ~proc ~cls ~id ~now;
    rw_read_enter t ~proc ~cls
  | Released_shared (cls, id) ->
    lock_released t ~proc ~cls ~id ~now;
    rw_read_exit t ~proc ~cls
  | Released_dead { cls; id; dead } ->
    lock_released t ~proc:dead ~cls ~id ~now;
    rw_read_exit t ~proc:dead ~cls
  | Recovered { cls; dead; latency } ->
    lock_recovered t ~proc ~cls ~dead ~latency ~now
  | Abandon_repaired cls -> lock_abandon_repaired t ~proc ~cls
  | Optimistic_abort cls -> lock_optimistic_abort t ~proc ~cls ~now
  | Reserve_set { cls; word; _ } -> reserve_set t ~proc ~cls ~word ~now
  | Reserve_read_set { cls; word; _ } ->
    reserve_read_set t ~proc ~cls ~word ~now
  | Reserve_clear { word } -> reserve_clear t ~proc ~word ~now
  | Reserve_read_clear { word } -> reserve_read_clear t ~proc ~word ~now
  | Reserve_wait { cls; word; _ } -> reserve_wait t ~proc ~cls ~word ~now
  | Reserve_wait_done -> reserve_wait_done t ~proc ~now
  | Rpc_issue _ -> rpc_issue t ~proc ~now
  | Rpc_retry -> rpc_retry t ~proc ~now
  | Rpc_reply -> rpc_reply t ~proc ~now
  | Proc_crashed -> proc_crashed t ~proc ~now
  | Transferred _ | Proc_revived -> ()

(* -- profile -------------------------------------------------------------- *)

let cells_of_bucket b =
  {
    acqs = b.b_acqs;
    contended = b.b_contended;
    wait_cycles = b.b_wait;
    max_wait_cycles = b.b_max_wait;
    hold_cycles = b.b_hold;
    handoffs = b.b_handoffs;
    handoffs_local = b.b_handoffs_local;
    handoffs_remote = b.b_handoffs_remote;
    aborts = b.b_aborts;
    abandon_repairs = b.b_abandon_repairs;
  }

let bucket_active b =
  b.b_acqs <> 0 || b.b_contended <> 0 || b.b_wait <> 0 || b.b_hold <> 0
  || b.b_handoffs <> 0 || b.b_aborts <> 0 || b.b_abandon_repairs <> 0

let profile_rows t =
  let rows = ref [] in
  Array.iteri
    (fun cls per_cluster ->
      match per_cluster with
      | None -> ()
      | Some bs ->
        let total = fresh_bucket () in
        let by_cluster = ref [] in
        Array.iteri
          (fun c b ->
            if bucket_active b then begin
              total.b_acqs <- total.b_acqs + b.b_acqs;
              total.b_contended <- total.b_contended + b.b_contended;
              total.b_wait <- total.b_wait + b.b_wait;
              if b.b_max_wait > total.b_max_wait then
                total.b_max_wait <- b.b_max_wait;
              total.b_hold <- total.b_hold + b.b_hold;
              total.b_handoffs <- total.b_handoffs + b.b_handoffs;
              total.b_handoffs_local <-
                total.b_handoffs_local + b.b_handoffs_local;
              total.b_handoffs_remote <-
                total.b_handoffs_remote + b.b_handoffs_remote;
              total.b_aborts <- total.b_aborts + b.b_aborts;
              total.b_abandon_repairs <-
                total.b_abandon_repairs + b.b_abandon_repairs;
              by_cluster := (c, cells_of_bucket b) :: !by_cluster
            end)
          bs;
        if bucket_active total then
          rows :=
            {
              row_class = Verify.class_name cls;
              total = cells_of_bucket total;
              by_cluster = List.rev !by_cluster;
            }
            :: !rows)
    t.classes;
  List.stable_sort
    (fun a b ->
      match compare b.total.wait_cycles a.total.wait_cycles with
      | 0 -> (
        match compare b.total.hold_cycles a.total.hold_cycles with
        | 0 -> compare a.row_class b.row_class
        | c -> c)
      | c -> c)
    (List.rev !rows)

(* -- trace export --------------------------------------------------------- *)

let trace_capacity t = t.trace_cap
let trace_recorded t = t.recorded
let trace_dropped t = max 0 (t.recorded - t.trace_cap)

let trace t =
  let kept = min t.recorded t.trace_cap in
  List.init kept (fun i ->
      t.ring.((t.recorded - kept + i) mod t.trace_cap))

let span_name e =
  let cls = Verify.class_name e.cls in
  match e.kind with
  | Lock_acquired -> cls ^ " acquire"
  | Lock_released -> cls ^ " hold"
  | Lock_try -> cls ^ " try"
  | Lock_abandoned -> cls ^ " abandon"
  | Lock_recovered -> cls ^ " recover"
  | Reserve_set -> cls ^ " set"
  | Reserve_cleared -> cls ^ " held"
  | Reserve_spin -> cls ^ " spin"
  | Rpc_issue -> "rpc issue"
  | Rpc_retry -> "rpc retry"
  | Rpc_reply -> "rpc"
  | Proc_crash -> "crash"

let category = function
  | Lock_acquired | Lock_released | Lock_try | Lock_abandoned | Lock_recovered
    ->
    "lock"
  | Reserve_set | Reserve_cleared | Reserve_spin -> "reserve"
  | Rpc_issue | Rpc_retry | Rpc_reply -> "rpc"
  | Proc_crash -> "crash"

let is_span e =
  match e.kind with
  | Lock_acquired | Lock_released | Lock_abandoned | Lock_recovered
  | Reserve_cleared | Reserve_spin | Rpc_reply -> true
  | Lock_try | Reserve_set | Rpc_issue | Rpc_retry | Proc_crash -> false

let trace_json t ~us_per_cycle =
  let us c = float_of_int c *. us_per_cycle in
  let events = trace t in
  (* Name the processes (clusters) and threads (processors) that appear. *)
  let procs = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace procs e.proc ()) events;
  let meta =
    Hashtbl.fold (fun p () acc -> p :: acc) procs []
    |> List.sort compare
    |> List.concat_map (fun p ->
           let c = cluster t p in
           [
             Json.Obj
               [
                 ("name", Json.String "process_name");
                 ("ph", Json.String "M");
                 ("pid", Json.Int c);
                 ("args",
                  Json.Obj [ ("name", Json.String (Printf.sprintf "cluster %d" c)) ]);
               ];
             Json.Obj
               [
                 ("name", Json.String "thread_name");
                 ("ph", Json.String "M");
                 ("pid", Json.Int c);
                 ("tid", Json.Int p);
                 ("args",
                  Json.Obj [ ("name", Json.String (Printf.sprintf "cpu%d" p)) ]);
               ];
           ])
  in
  let ev_json e =
    let common =
      [
        ("name", Json.String (span_name e));
        ("cat", Json.String (category e.kind));
        ("pid", Json.Int (cluster t e.proc));
        ("tid", Json.Int e.proc);
      ]
    in
    if is_span e then
      Json.Obj
        (common
        @ [
            ("ph", Json.String "X");
            ("ts", Json.Float (us (e.time - e.dur)));
            ("dur", Json.Float (us e.dur));
          ])
    else
      Json.Obj
        (common
        @ [
            ("ph", Json.String "i");
            ("s", Json.String "t");
            ("ts", Json.Float (us e.time));
          ])
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ List.map ev_json events));
      ("displayTimeUnit", Json.String "ms");
    ]
