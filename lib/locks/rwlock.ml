(* Distributed reader–writer lock (see rwlock.mli for the protocol).

   One indicator word per cluster, homed on that cluster's own PMM: value
   2*readers + gate bit. Readers CAS only their own cluster's word, so the
   steady-state read path is entirely cluster-local; a writer first takes
   an ordinary exclusive lock (any [Lock_core.packed], so RW-cohort and
   RW-CNA come free from the combinator), then sweeps every indicator —
   close the gate bit, wait for the reader count to drain. The [policy]
   picks the sweep shape: [Writer_blocking] slams every gate shut before
   draining any (readers machine-wide stop admitting at once);
   [Reader_preference] closes and drains one cluster at a time, so
   clusters the sweep has not reached yet keep admitting readers.

   The machine may lack fetch&add, so indicator arithmetic is a CAS retry
   loop; [Lock.needs_cas] advertises the requirement. All bookkeeping
   besides the indicator words ([reader_inside], holder fields, counters)
   is host state, kept crash-consistent by the kill semantics: a
   fail-stop parks the fiber at the next timed-operation boundary, so
   host updates issued immediately after a timed op are atomic with
   it. *)

open Hector

type policy = Reader_preference | Writer_blocking

let policy_name = function
  | Reader_preference -> "rp"
  | Writer_blocking -> "wb"

type t = {
  machine : Machine.t;
  topo : Lock_core.topo;
  policy : policy;
  centralised : bool;
  writer : Lock_core.packed; (* serialises writers *)
  w_abortable : bool;
  w_recoverable : bool;
  inds : Cell.t array; (* per cluster (or 1 if centralised) *)
  ind_cluster : int array; (* cluster each indicator word is homed in *)
  reader_inside : bool array; (* per proc; true iff its +2 is in-flight *)
  mutable writer_proc : int; (* proc that owns [writer], -1 otherwise *)
  mutable gates_closed : int; (* indicators with our gate bit set *)
  mutable w_acquired : bool; (* writer finished its drain sweep *)
  mutable recovering : bool; (* serialises recoveries *)
  mutable acquisitions : int; (* completed writer acquisitions *)
  mutable read_acquisitions : int;
  mutable timeouts : int; (* writer-side deadline expiries *)
  mutable read_timeouts : int;
  mutable read_remote : int; (* read-path ops on a remote indicator *)
  mutable reader_sweeps : int; (* dead-reader indicators swept *)
  mutable readers_now : int;
  mutable readers_peak : int;
  vcls_rd : Verify.lock_class;
  vcls_wr : Verify.lock_class;
  vid : int; (* one instance id: readers and writers share it *)
}

(* Lowest processor of each cluster — the indicator homes (same convention
   as [Cohort.create]). *)
let cluster_homes machine topo =
  let n_clusters = topo.Lock_core.n_clusters in
  let homes = Array.make n_clusters (-1) in
  for p = Machine.n_procs machine - 1 downto 0 do
    let c = topo.Lock_core.cluster_of p in
    if c < 0 || c >= n_clusters then
      invalid_arg "Rwlock.create: cluster_of out of range";
    homes.(c) <- p
  done;
  Array.iteri
    (fun c h ->
      if h < 0 then
        invalid_arg (Printf.sprintf "Rwlock.create: cluster %d has no procs" c))
    homes;
  homes

let create ?home ?(vclass = "rwlock") ?(policy = Writer_blocking)
    ?(centralised = false) ~topo ~writer machine =
  if not (Machine.config machine).Config.has_cas then
    invalid_arg "Rwlock.create: reader indicators need compare&swap";
  let homes = cluster_homes machine topo in
  let w_home = match home with Some h -> h | None -> homes.(0) in
  let writer = writer ~vclass:(vclass ^ ".writer") in
  let inds =
    if centralised then
      [| Machine.alloc machine ~label:(vclass ^ ".readers") ~home:w_home 0 |]
    else
      Array.init topo.Lock_core.n_clusters (fun c ->
          Machine.alloc machine
            ~label:(Printf.sprintf "%s.readers%d" vclass c)
            ~home:homes.(c) 0)
  in
  let ind_cluster =
    if centralised then [| topo.Lock_core.cluster_of w_home |]
    else Array.init topo.Lock_core.n_clusters Fun.id
  in
  {
    machine;
    topo;
    policy;
    centralised;
    writer;
    w_abortable = Lock_core.p_abortable writer;
    w_recoverable = Lock_core.p_recoverable writer;
    inds;
    ind_cluster;
    reader_inside = Array.make (Machine.n_procs machine) false;
    writer_proc = -1;
    gates_closed = 0;
    w_acquired = false;
    recovering = false;
    acquisitions = 0;
    read_acquisitions = 0;
    timeouts = 0;
    read_timeouts = 0;
    read_remote = 0;
    reader_sweeps = 0;
    readers_now = 0;
    readers_peak = 0;
    vcls_rd = Verify.lock_class (vclass ^ ".read");
    vcls_wr = Verify.lock_class vclass;
    vid = Machine.fresh_lock_id machine;
  }

let policy t = t.policy
let centralised t = t.centralised
let acquisitions t = t.acquisitions
let read_acquisitions t = t.read_acquisitions
let timeouts t = t.timeouts
let read_timeouts t = t.read_timeouts
let read_remote t = t.read_remote
let reader_sweeps t = t.reader_sweeps
let readers_now t = t.readers_now
let readers_peak t = t.readers_peak
let vclass t = t.vcls_wr
let vclass_read t = t.vcls_rd
let abortable t = t.w_abortable
let recoverable t = t.w_recoverable

let ind_index t proc =
  if t.centralised then 0 else t.topo.Lock_core.cluster_of proc

(* Read-path remote-traffic accounting: the acceptance evidence for the
   distributed layout. Charged per timed indicator op whose home cluster
   differs from the operator's — identically zero for the distributed
   layout, every off-home-cluster reader op for the centralised one. *)
let note_read_op t ~proc i =
  if t.topo.Lock_core.cluster_of proc <> t.ind_cluster.(i) then
    t.read_remote <- t.read_remote + 1

let reader_in t proc =
  t.reader_inside.(proc) <- true;
  t.readers_now <- t.readers_now + 1;
  if t.readers_now > t.readers_peak then t.readers_peak <- t.readers_now;
  t.read_acquisitions <- t.read_acquisitions + 1

let reader_out t proc =
  t.reader_inside.(proc) <- false;
  if t.readers_now > 0 then t.readers_now <- t.readers_now - 1

(* -- reader side ---------------------------------------------------------- *)

(* One admission attempt: CAS +2 on the proc's own indicator, succeeding
   only on a gate-clear value (the expect has bit0 clear), so admission
   and the gate check are one atomic step. [`Admitted] on success,
   [`Gated] when the gate bit was set, [`Raced] on CAS interference. *)
let try_admit t ctx =
  let proc = Ctx.proc ctx in
  let i = ind_index t proc in
  let v = Ctx.read ctx t.inds.(i) in
  note_read_op t ~proc i;
  Ctx.instr ctx ~br:1 ();
  if v land 1 = 1 then `Gated
  else if Ctx.compare_and_swap ctx t.inds.(i) ~expect:v ~set:(v + 2) then begin
    note_read_op t ~proc i;
    reader_in t proc;
    `Admitted
  end
  else begin
    note_read_op t ~proc i;
    `Raced
  end

let acquire_read t ctx =
  (* Order edges are wanted for the shared side too: a blocking reader
     gated by a writer can be the waiting side of a deadlock. *)
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait (t.vcls_rd, t.vid));
  let rec go () =
    match try_admit t ctx with
    | `Admitted ->
      if Ctx.hooked ctx then
        Ctx.emit ctx (Verify.Acquired_shared (t.vcls_rd, t.vid))
    | `Gated | `Raced -> go ()
  in
  go ()

let release_read t ctx =
  let proc = Ctx.proc ctx in
  assert t.reader_inside.(proc);
  let i = ind_index t proc in
  let rec go () =
    let v = Ctx.read ctx t.inds.(i) in
    note_read_op t ~proc i;
    Ctx.instr ctx ~br:1 ();
    (* -2 preserves the gate bit: a draining writer may have closed it
       while we were inside. *)
    if Ctx.compare_and_swap ctx t.inds.(i) ~expect:v ~set:(v - 2) then
      note_read_op t ~proc i
    else go ()
  in
  go ();
  (* Host bookkeeping right after the CAS completes is atomic with it
     (kill parks at the next timed op), so a corpse can never have
     decremented but still be marked inside. *)
  reader_out t proc;
  if Ctx.hooked ctx then
    Ctx.emit ctx (Verify.Released_shared (t.vcls_rd, t.vid))

let try_acquire_read_for t ctx ~deadline =
  if Ctx.now ctx >= deadline then begin
    t.read_timeouts <- t.read_timeouts + 1;
    false
  end
  else begin
    if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait_timed (t.vcls_rd, t.vid));
    let rec go () =
      match try_admit t ctx with
      | `Admitted ->
        if Ctx.hooked ctx then
          Ctx.emit ctx (Verify.Acquired_shared (t.vcls_rd, t.vid));
        true
      | `Gated | `Raced ->
        if Ctx.now ctx >= deadline then begin
          t.read_timeouts <- t.read_timeouts + 1;
          if Ctx.hooked ctx then Ctx.emit ctx Verify.Wait_abandoned;
          false
        end
        else go ()
    in
    go ()
  end

(* -- writer side ---------------------------------------------------------- *)

(* Set the gate bit on indicator [i]: CAS retry against concurrent reader
   arithmetic. Only the (unique, packed-serialised) writer sets gates, so
   an already-set bit means our own earlier close. *)
let close_gate t ctx i =
  let rec go () =
    let v = Ctx.read ctx t.inds.(i) in
    Ctx.instr ctx ~br:1 ();
    if v land 1 = 1 then ()
    else if Ctx.compare_and_swap ctx t.inds.(i) ~expect:v ~set:(v lor 1) then ()
    else go ()
  in
  go ();
  t.gates_closed <- max t.gates_closed (i + 1)

(* Clear the gate bit, preserving any still-draining reader count (a timed
   writer backing out reopens before the count reaches zero). *)
let open_gate t ctx i =
  let rec go () =
    let v = Ctx.read ctx t.inds.(i) in
    Ctx.instr ctx ~br:1 ();
    if v land 1 = 0 then ()
    else if
      Ctx.compare_and_swap ctx t.inds.(i) ~expect:v ~set:(v land lnot 1)
    then ()
    else go ()
  in
  go ();
  t.gates_closed <- min t.gates_closed i

(* Spin until indicator [i] holds only our gate bit. Without [deadline]
   it blocks; returns false on expiry with the gate still closed. *)
let drain_gate t ctx ?deadline i =
  Ctx.spin_while ?deadline ctx t.inds.(i) (fun v -> v <> 1) = 1

(* Close-and-drain every indicator per the policy; on a deadline expiry
   reopen everything closed so far and report failure. *)
let sweep t ctx ?deadline () =
  let n = Array.length t.inds in
  let back_out () =
    for i = t.gates_closed - 1 downto 0 do
      open_gate t ctx i
    done;
    false
  in
  match t.policy with
  | Writer_blocking ->
    for i = 0 to n - 1 do
      close_gate t ctx i
    done;
    let rec drain i =
      if i >= n then true
      else if drain_gate t ctx ?deadline i then drain (i + 1)
      else back_out ()
    in
    drain 0
  | Reader_preference ->
    let rec go i =
      if i >= n then true
      else begin
        close_gate t ctx i;
        if drain_gate t ctx ?deadline i then go (i + 1) else back_out ()
      end
    in
    go 0

let got_write t ctx =
  t.w_acquired <- true;
  t.acquisitions <- t.acquisitions + 1;
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Acquired (t.vcls_wr, t.vid))

let acquire t ctx =
  if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait (t.vcls_wr, t.vid));
  Lock_core.p_acquire t.writer ctx;
  t.writer_proc <- Ctx.proc ctx;
  let ok = sweep t ctx () in
  assert ok;
  got_write t ctx

(* Thread-oblivious: may run on a recoverer's behalf for a dead writer, so
   everything works off the lock's own holder fields, and the composite
   release hook only fires when the drain sweep had completed (a corpse
   killed mid-sweep never reported [acquired], so there is no held entry
   for lockdep to balance). *)
let release t ctx =
  if t.w_acquired then begin
    t.w_acquired <- false;
    if Ctx.hooked ctx then Ctx.emit ctx (Verify.Released (t.vcls_wr, t.vid))
  end;
  for i = t.gates_closed - 1 downto 0 do
    open_gate t ctx i
  done;
  t.writer_proc <- -1;
  Lock_core.p_release t.writer ctx

let try_acquire t ctx =
  if not (Lock_core.p_try_acquire t.writer ctx) then false
  else begin
    t.writer_proc <- Ctx.proc ctx;
    (* One-shot drain: close the gates, then demand every indicator is
       already empty at the first sample — deadline "now". *)
    if sweep t ctx ~deadline:(Ctx.now ctx) () then begin
      got_write t ctx;
      true
    end
    else begin
      t.writer_proc <- -1;
      Lock_core.p_release t.writer ctx;
      false
    end
  end

let try_acquire_for t ctx ~deadline =
  if not t.w_abortable then begin
    acquire t ctx;
    true
  end
  else if Ctx.now ctx >= deadline then begin
    t.timeouts <- t.timeouts + 1;
    false
  end
  else begin
    if Ctx.hooked ctx then Ctx.emit ctx (Verify.Wait_timed (t.vcls_wr, t.vid));
    if not (Lock_core.p_try_acquire_for t.writer ctx ~deadline) then begin
      t.timeouts <- t.timeouts + 1;
      if Ctx.hooked ctx then Ctx.emit ctx Verify.Wait_abandoned;
      false
    end
    else begin
      t.writer_proc <- Ctx.proc ctx;
      (* The packed lock may have been delivered by a committed hand-off
         past the deadline; still attempt one sweep pass so forward
         progress matches the cohort convention, but bound the drains. *)
      if sweep t ctx ~deadline () then begin
        got_write t ctx;
        true
      end
      else begin
        t.writer_proc <- -1;
        Lock_core.p_release t.writer ctx;
        t.timeouts <- t.timeouts + 1;
        if Ctx.hooked ctx then Ctx.emit ctx Verify.Wait_abandoned;
        false
      end
    end
  end

let with_write t ctx f =
  acquire t ctx;
  Fun.protect ~finally:(fun () -> release t ctx) f

(* -- recovery ------------------------------------------------------------- *)

(* Sweep the wreckage of fail-stopped processors: a dead reader's +2 is
   removed from its cluster's indicator (charged to the recoverer), a dead
   writer's release is run on its behalf, and a corpse queued inside the
   packed writer lock is left to that lock's own recovery. Serialised by
   [recovering] — concurrent recoverers would double-decrement. *)
let recover t ctx =
  if t.recovering then false
  else begin
    t.recovering <- true;
    Fun.protect
      ~finally:(fun () -> t.recovering <- false)
      (fun () ->
        let progress = ref false in
        Array.iteri
          (fun p inside ->
            if inside && not (Machine.proc_alive t.machine p) then begin
              let i = ind_index t p in
              let rec dec () =
                let v = Ctx.read ctx t.inds.(i) in
                Ctx.instr ctx ~br:1 ();
                if
                  not (Ctx.compare_and_swap ctx t.inds.(i) ~expect:v ~set:(v - 2))
                then dec ()
              in
              dec ();
              reader_out t p;
              t.reader_sweeps <- t.reader_sweeps + 1;
              if Ctx.hooked ctx then begin
                Ctx.emit ctx
                  (Verify.Released_dead
                     { cls = t.vcls_rd; id = t.vid; dead = p });
                Ctx.emit ctx
                  (Verify.Recovered
                     {
                       cls = t.vcls_rd;
                       dead = p;
                       latency = Ctx.since_kill ctx p;
                     })
              end;
              progress := true
            end)
          t.reader_inside;
        let wp = t.writer_proc in
        if wp >= 0 && not (Machine.proc_alive t.machine wp) then
          if t.w_recoverable then begin
            (* Reopen the corpse's gates and hand its packed lock on. The
               composite [released] inside fires only if the sweep had
               completed (see [release]); the packed constituent needs its
               own recovery, not a foreign release — its release path
               walks the caller's queue node. *)
            if t.w_acquired then begin
              t.w_acquired <- false;
              if Ctx.hooked ctx then
                Ctx.emit ctx (Verify.Released (t.vcls_wr, t.vid))
            end;
            for i = t.gates_closed - 1 downto 0 do
              open_gate t ctx i
            done;
            t.writer_proc <- -1;
            ignore (Lock_core.p_recover t.writer ctx);
            if Ctx.hooked ctx then
              Ctx.emit ctx
                (Verify.Recovered
                   {
                     cls = t.vcls_wr;
                     dead = wp;
                     latency = Ctx.since_kill ctx wp;
                   });
            progress := true
          end
          else ()
        else if wp < 0 && t.w_recoverable then
          (* No registered writer: any corpse is inside the packed queue. *)
          if Lock_core.p_recover t.writer ctx then progress := true;
        !progress)
  end

(* Crash-tolerant reader acquire: poll in bounded slices so dead writers
   (or dead fellow readers a writer is stuck draining behind) are noticed
   and repaired — same slice/jitter discipline as [Lock.acquire_recoverable]
   (the randomised, growing pause breaks retry phase lock). *)
let acquire_read_recoverable ?(check_period = 2_000) t ctx =
  let rng = Ctx.rng ctx in
  let rec attempt pause =
    if try_acquire_read_for t ctx ~deadline:(Ctx.now ctx + check_period) then ()
    else begin
      ignore (recover t ctx);
      Ctx.interruptible_pause ctx (1 + (pause / 2) + Eventsim.Rng.int rng pause);
      attempt (min (2 * pause) (8 * check_period))
    end
  in
  attempt 64

(* -- untimed probes ------------------------------------------------------- *)

let is_free t =
  Lock_core.p_is_free t.writer
  && t.writer_proc = -1
  && Array.for_all (fun ind -> Cell.peek ind = 0) t.inds
  && not (Array.exists Fun.id t.reader_inside)

let waiters t = Lock_core.p_waiters t.writer
let readers t = Array.fold_left (fun n ind -> n + (Cell.peek ind asr 1)) 0 t.inds

module Core = struct
  type nonrec t = t

  let acquire = acquire
  let release = release
  let try_acquire = try_acquire
  let try_acquire_for = try_acquire_for
  let abortable = abortable
  let recover = recover
  let recoverable = recoverable
  let is_free = is_free
  let waiters = waiters
  let acquisitions = acquisitions
  let vclass = vclass
  let vid t = t.vid
end
