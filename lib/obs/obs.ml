(* Contention profiles and event tracing (see obs.mli for the contract).

   Everything here is host-side bookkeeping driven by the same hook events
   as the lockdep checker ([on_event]): per-proc stacks of open waits and
   holds, per-lock columns (holder, waiters, last releaser) to classify
   acquisitions as contended, per-word reserve ownership for hold
   attribution, per-class-and-cluster counters, and a fixed-capacity ring
   of trace events. All but the ring, the crash buckets and the reader
   gauge are int columns, in the idiom of fixed per-lock, per-CPU
   statistics arrays: a lock, reserve or RPC event allocates nothing,
   hashes nothing polymorphically and stores no young block. No call
   touches the engine, so installed-vs-not cannot move simulated time. *)

open Eventsim

let rpc_class = Verify.lock_class "rpc"

(* -- profile buckets ------------------------------------------------------ *)

(* A bucket is one class's ten counters in one cluster, a run of [n_counters]
   ints in [counts]. *)
let c_acqs = 0
let c_contended = 1
let c_wait = 2
let c_max_wait = 3
let c_hold = 4
let c_handoffs = 5
let c_handoffs_local = 6
let c_handoffs_remote = 7
let c_aborts = 8
let c_abandon_repairs = 9
let n_counters = 10

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

(* Per-proc stacks of open waits and lock holds (Eventsim.Int_stack), per-lock
   columns indexed by lock id, and open-addressing tables keyed by reserve
   word (Eventsim.Int_table).

   A processor's open waits nest (a lock wait inside an RPC span, say) and
   are popped by kind — and for locks by identity — so interleavings
   cannot mispair them. A frame's columns: *)
let f_kind = 0 (* [flock], [fspin] or [frpc] *)
let f_id = 1 (* lock id or reserve word *)
let f_cls = 2
let f_since = 3
let f_contended = 4 (* lock frames: 1 if the lock was held or queued *)
let flock = 0
let fspin = 1
let frpc = 2

(* A lock hold's columns. *)
let h_id = 0
let h_cls = 1
let h_since = 2

(* Per lock id, three columns: its holder and last releaser (-1 for none)
   and how many waiters it has. *)
let l_holder = 0
let l_waiters = 1
let l_last_releaser = 2
let lock_cols = 3

(* A write-reserved word's columns, and a read reservation's. *)
let w_owner = 0
let w_cls = 1
let w_since = 2
let r_cls = 0
let r_since = 1

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
  n_procs : int;
  n_clusters : int;
  cluster : int array; (* proc -> its cluster *)
  mutable counts : int array; (* (class * n_clusters + cluster) * n_counters *)
  frames : Int_stack.t array; (* per proc, open waits *)
  holds : Int_stack.t array; (* per proc, lock holds *)
  mutable locks : int array; (* lock id * lock_cols + column *)
  words : Int_table.t; (* word -> owner, class, since *)
  read_words : Int_table.t; (* word * n_procs + proc -> class, since *)
  word_waiters : Int_table.t; (* word -> spinner count, while positive *)
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
  (* A cluster outside [0, n_clusters) counts as cluster 0, and so does a
     processor the mapping refuses: such a processor never reports. *)
  let cluster p =
    match cluster_of with
    | None -> 0
    | Some f -> (
      match f p with
      | c when c >= 0 && c < n_clusters -> c
      | _ | (exception Invalid_argument _) -> 0)
  in
  let dummy =
    { kind = Lock_try; proc = 0; cls = 0; time = 0; dur = 0 }
  in
  {
    n_procs;
    n_clusters;
    cluster = Array.init n_procs cluster;
    counts = [||];
    frames = Array.init n_procs (fun _ -> Int_stack.create ~width:5);
    holds = Array.init n_procs (fun _ -> Int_stack.create ~width:3);
    locks = [||];
    words = Int_table.create ~width:3;
    read_words = Int_table.create ~width:2;
    word_waiters = Int_table.create ~width:1;
    trace_cap = trace;
    ring = Array.make (max trace 1) dummy;
    recorded = 0;
    crash =
      Array.init n_clusters (fun _ ->
          { cb_crashes = 0; cb_recoveries = 0; cb_latencies_rev = [] });
    rw = Hashtbl.create 8;
  }

let cluster t proc = t.cluster.(proc)

let grow_counts t cls =
  let n = Array.length t.counts / (t.n_clusters * n_counters) in
  let n = max (cls + 1) (max 16 (2 * n)) in
  let bigger = Array.make (n * t.n_clusters * n_counters) 0 in
  Array.blit t.counts 0 bigger 0 (Array.length t.counts);
  t.counts <- bigger

(* The offset of [cls]'s bucket in [proc]'s cluster. *)
let[@inline] bucket t ~cls ~proc =
  if (cls + 1) * t.n_clusters * n_counters > Array.length t.counts then
    grow_counts t cls;
  ((cls * t.n_clusters) + cluster t proc) * n_counters

let[@inline] add t b c n = t.counts.(b + c) <- t.counts.(b + c) + n

(* A wait of [dur] cycles ended. *)
let[@inline] waited t b dur =
  add t b c_wait dur;
  if dur > t.counts.(b + c_max_wait) then t.counts.(b + c_max_wait) <- dur

let add_to_ring t kind ~proc ~cls ~time ~dur =
  t.ring.(t.recorded mod t.trace_cap) <- { kind; proc; cls; time; dur };
  t.recorded <- t.recorded + 1

let[@inline] record t kind ~proc ~cls ~time ~dur =
  if t.trace_cap > 0 then add_to_ring t kind ~proc ~cls ~time ~dur

let push_frame t ~proc kind ~id ~cls ~since ~contended =
  let s = t.frames.(proc) in
  let i = Int_stack.push s in
  Int_stack.set s i f_kind kind;
  Int_stack.set s i f_id id;
  Int_stack.set s i f_cls cls;
  Int_stack.set s i f_since since;
  Int_stack.set s i f_contended (Bool.to_int contended)

let rec find_lock_frame s id i =
  if i < 0 then -1
  else if Int_stack.get s i f_kind = flock && Int_stack.get s i f_id = id then
    i
  else find_lock_frame s id (i - 1)

(* Add [delta] to [key]'s count, unbinding it when the count drops to 0. *)
let bump tbl key delta =
  let s = Int_table.find tbl key in
  let v = (if s < 0 then 0 else Int_table.get tbl s 0) + delta in
  if v <= 0 then Int_table.remove tbl key
  else Int_table.set tbl (if s < 0 then Int_table.add tbl key else s) 0 v

let count tbl key =
  let s = Int_table.find tbl key in
  if s < 0 then 0 else Int_table.get tbl s 0

(* -- lock hooks ----------------------------------------------------------- *)

(* Lock [id]'s first column, its columns made (no holder, no waiters, no
   releaser) if they are not yet. *)
let grow_locks t id =
  let cap = Array.length t.locks / lock_cols in
  let n = max (id + 1) (max 64 (2 * cap)) in
  let bigger = Array.make (n * lock_cols) 0 in
  Array.blit t.locks 0 bigger 0 (Array.length t.locks);
  for i = cap to n - 1 do
    bigger.((i * lock_cols) + l_holder) <- -1;
    bigger.((i * lock_cols) + l_last_releaser) <- -1
  done;
  t.locks <- bigger

let[@inline] lock_base t id =
  if (id + 1) * lock_cols > Array.length t.locks then grow_locks t id;
  id * lock_cols

let unwait t l =
  let w = t.locks.(l + l_waiters) in
  if w > 0 then t.locks.(l + l_waiters) <- w - 1

let lock_wait t ~proc ~cls ~id ~now =
  let l = lock_base t id in
  (* Contended if someone holds the lock — or if waiters are queued while
     it is in flight between holders (a queue lock mid-hand-off): either
     way this acquisition will receive the lock from a releaser. *)
  let contended = t.locks.(l + l_holder) >= 0 || t.locks.(l + l_waiters) > 0 in
  push_frame t ~proc flock ~id ~cls ~since:now ~contended;
  t.locks.(l + l_waiters) <- t.locks.(l + l_waiters) + 1

let start_hold t l ~proc ~cls ~id ~now =
  t.locks.(l + l_holder) <- proc;
  let s = t.holds.(proc) in
  let i = Int_stack.push s in
  Int_stack.set s i h_id id;
  Int_stack.set s i h_cls cls;
  Int_stack.set s i h_since now

let lock_acquired t ~proc ~cls ~id ~now =
  let l = lock_base t id in
  let s = t.frames.(proc) in
  (match find_lock_frame s id (Int_stack.length s - 1) with
  | -1 ->
    let b = bucket t ~cls ~proc in
    add t b c_acqs 1
  | i ->
    let since = Int_stack.get s i f_since in
    let contended = Int_stack.get s i f_contended = 1 in
    Int_stack.remove s i;
    unwait t l;
    let b = bucket t ~cls ~proc in
    add t b c_acqs 1;
    if contended then begin
      add t b c_contended 1;
      (* A contended acquisition received the lock from whoever released it
         last: classify the hand-off by whether it crossed a cluster
         boundary — the locality a NUMA-aware lock exists to improve.
         Attributed to the *receiving* processor's cluster row. *)
      let r = t.locks.(l + l_last_releaser) in
      if r >= 0 then begin
        if cluster t r = cluster t proc then
          add t b c_handoffs_local 1
        else add t b c_handoffs_remote 1
      end
    end;
    let dur = now - since in
    waited t b dur;
    record t Lock_acquired ~proc ~cls ~time:now ~dur);
  start_hold t l ~proc ~cls ~id ~now

let lock_try_acquired t ~proc ~cls ~id ~now =
  let b = bucket t ~cls ~proc in
  add t b c_acqs 1;
  record t Lock_try ~proc ~cls ~time:now ~dur:0;
  start_hold t (lock_base t id) ~proc ~cls ~id ~now

(* Abandonments bump [aborts] *before* [contended]: hooks run host-
   atomically, so a mid-run sampler (a periodic reporter) lands between hooks, never inside one —
   but keeping the excuse written before the excess preserves the row
   invariant [contended <= acqs + aborts] at every sequencing granularity,
   and the qcheck property in test_obs pins it. *)
let lock_wait_abandoned t ~proc ~now =
  let s = t.frames.(proc) in
  match Int_stack.find s f_kind flock with
  | -1 -> ()
  | i ->
    let id = Int_stack.get s i f_id and cls = Int_stack.get s i f_cls in
    let since = Int_stack.get s i f_since in
    Int_stack.remove s i;
    unwait t (lock_base t id);
    let b = bucket t ~cls ~proc in
    add t b c_aborts 1;
    add t b c_contended 1;
    let dur = now - since in
    waited t b dur;
    record t Lock_abandoned ~proc ~cls ~time:now ~dur

(* A releaser (or a later hand-off) reclaimed a node some timed waiter left
   behind: attributed to the repairing processor's cluster. *)
let lock_abandon_repaired t ~proc ~cls =
  let b = bucket t ~cls ~proc in
  add t b c_abandon_repairs 1

(* The release ends [proc]'s newest hold on [id]. *)
let lock_released t ~proc ~cls ~id ~now =
  let s = t.holds.(proc) in
  (match Int_stack.find s h_id id with
  | -1 -> ()
  | i ->
    let hcls = Int_stack.get s i h_cls in
    let dur = now - Int_stack.get s i h_since in
    Int_stack.remove s i;
    let b = bucket t ~cls:hcls ~proc in
    add t b c_hold dur;
    record t Lock_released ~proc ~cls:hcls ~time:now ~dur);
  let l = lock_base t id in
  t.locks.(l + l_holder) <- -1;
  t.locks.(l + l_last_releaser) <- proc;
  if t.locks.(l + l_waiters) > 0 then begin
    let b = bucket t ~cls ~proc in
    add t b c_handoffs 1
  end

(* An optimistic read sampled the lock and had to abort (writer in
   progress, or the sequence moved under it). Nothing was ever held, so no
   frames or holder tables move: the abort is charged to the sampling
   processor's cluster as a contended non-acquisition. *)
let lock_optimistic_abort t ~proc ~cls ~now =
  let b = bucket t ~cls ~proc in
  (* Abort before contended — see lock_wait_abandoned. *)
  add t b c_aborts 1;
  add t b c_contended 1;
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
  let s = Int_table.add t.words word in
  Int_table.set t.words s w_owner proc;
  Int_table.set t.words s w_cls cls;
  Int_table.set t.words s w_since now;
  let b = bucket t ~cls ~proc in
  add t b c_acqs 1;
  record t Reserve_set ~proc ~cls ~time:now ~dur:0

let reserve_clear t ~proc ~word ~now =
  match Int_table.find t.words word with
  | -1 -> ()
  | s ->
    let owner = Int_table.get t.words s w_owner in
    let cls = Int_table.get t.words s w_cls in
    let since = Int_table.get t.words s w_since in
    Int_table.remove t.words word;
    (* Attribute the hold to the setter: the clear may run elsewhere (an
       RPC service clearing on the owner's behalf). *)
    let b = bucket t ~cls ~proc:owner in
    let dur = now - since in
    add t b c_hold dur;
    if count t.word_waiters word > 0 then add t b c_handoffs 1;
    record t Reserve_cleared ~proc ~cls ~time:now ~dur

(* Read reservations are keyed by word and reader. *)
let read_key t ~word ~proc = (word * t.n_procs) + proc

let reserve_read_set t ~proc ~cls ~word ~now =
  let s = Int_table.add t.read_words (read_key t ~word ~proc) in
  Int_table.set t.read_words s r_cls cls;
  Int_table.set t.read_words s r_since now;
  let b = bucket t ~cls ~proc in
  add t b c_acqs 1;
  record t Reserve_set ~proc ~cls ~time:now ~dur:0

let reserve_read_clear t ~proc ~word ~now =
  let key = read_key t ~word ~proc in
  match Int_table.find t.read_words key with
  | -1 -> ()
  | s ->
    let cls = Int_table.get t.read_words s r_cls in
    let since = Int_table.get t.read_words s r_since in
    Int_table.remove t.read_words key;
    let b = bucket t ~cls ~proc in
    let dur = now - since in
    add t b c_hold dur;
    record t Reserve_cleared ~proc ~cls ~time:now ~dur

let reserve_wait t ~proc ~cls ~word ~now =
  push_frame t ~proc fspin ~id:word ~cls ~since:now ~contended:false;
  bump t.word_waiters word 1

let reserve_wait_done t ~proc ~now =
  let s = t.frames.(proc) in
  match Int_stack.find s f_kind fspin with
  | -1 -> ()
  | i ->
    let word = Int_stack.get s i f_id and cls = Int_stack.get s i f_cls in
    let since = Int_stack.get s i f_since in
    Int_stack.remove s i;
    bump t.word_waiters word (-1);
    let b = bucket t ~cls ~proc in
    add t b c_contended 1;
    let dur = now - since in
    waited t b dur;
    record t Reserve_spin ~proc ~cls ~time:now ~dur

(* -- rpc hooks ------------------------------------------------------------ *)

let rpc_issue t ~proc ~now =
  push_frame t ~proc frpc ~id:0 ~cls:rpc_class ~since:now ~contended:false;
  let b = bucket t ~cls:rpc_class ~proc in
  add t b c_acqs 1;
  record t Rpc_issue ~proc ~cls:rpc_class ~time:now ~dur:0

let rpc_retry t ~proc ~now =
  let b = bucket t ~cls:rpc_class ~proc in
  add t b c_contended 1;
  record t Rpc_retry ~proc ~cls:rpc_class ~time:now ~dur:0

let rpc_reply t ~proc ~now =
  let s = t.frames.(proc) in
  match Int_stack.find s f_kind frpc with
  | -1 -> ()
  | i ->
    let since = Int_stack.get s i f_since in
    Int_stack.remove s i;
    let b = bucket t ~cls:rpc_class ~proc in
    let dur = now - since in
    waited t b dur;
    record t Rpc_reply ~proc ~cls:rpc_class ~time:now ~dur

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

let cells counts b =
  {
    acqs = counts.(b + c_acqs);
    contended = counts.(b + c_contended);
    wait_cycles = counts.(b + c_wait);
    max_wait_cycles = counts.(b + c_max_wait);
    hold_cycles = counts.(b + c_hold);
    handoffs = counts.(b + c_handoffs);
    handoffs_local = counts.(b + c_handoffs_local);
    handoffs_remote = counts.(b + c_handoffs_remote);
    aborts = counts.(b + c_aborts);
    abandon_repairs = counts.(b + c_abandon_repairs);
  }

let active c =
  c.acqs <> 0 || c.contended <> 0 || c.wait_cycles <> 0 || c.hold_cycles <> 0
  || c.handoffs <> 0 || c.aborts <> 0 || c.abandon_repairs <> 0

let sum a b =
  {
    acqs = a.acqs + b.acqs;
    contended = a.contended + b.contended;
    wait_cycles = a.wait_cycles + b.wait_cycles;
    max_wait_cycles = max a.max_wait_cycles b.max_wait_cycles;
    hold_cycles = a.hold_cycles + b.hold_cycles;
    handoffs = a.handoffs + b.handoffs;
    handoffs_local = a.handoffs_local + b.handoffs_local;
    handoffs_remote = a.handoffs_remote + b.handoffs_remote;
    aborts = a.aborts + b.aborts;
    abandon_repairs = a.abandon_repairs + b.abandon_repairs;
  }

let profile_rows t =
  let zero = cells (Array.make n_counters 0) 0 in
  let bucket cls c = cells t.counts (((cls * t.n_clusters) + c) * n_counters) in
  List.init
    (Array.length t.counts / (t.n_clusters * n_counters))
    (fun cls ->
      let by_cluster =
        List.init t.n_clusters (fun c -> (c, bucket cls c))
        |> List.filter (fun (_, c) -> active c)
      in
      let total = List.fold_left (fun a (_, c) -> sum a c) zero by_cluster in
      if active total then
        Some { row_class = Verify.class_name cls; total; by_cluster }
      else None)
  |> List.filter_map Fun.id
  |> List.stable_sort
    (fun a b ->
      match compare b.total.wait_cycles a.total.wait_cycles with
      | 0 -> (
        match compare b.total.hold_cycles a.total.hold_cycles with
        | 0 -> compare a.row_class b.row_class
        | c -> c)
      | c -> c)

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
