(* Uniform lock interface.

   Experiments sweep over lock algorithms; this record type lets a workload
   take "a lock" without knowing which algorithm backs it. The [algo] type
   enumerates every configuration the paper's figures compare. *)

open Hector

type t = {
  name : string;
  acquire : Ctx.t -> unit;
  release : Ctx.t -> unit;
  try_acquire : Ctx.t -> bool;
  try_acquire_for : Ctx.t -> deadline:int -> bool;
  abortable : bool; (* [try_acquire_for] can actually give up *)
  recover : Ctx.t -> bool; (* force a dead holder's release; see lock.mli *)
  recoverable : bool; (* [recover] can actually repair a dead holder *)
  is_free : unit -> bool; (* untimed, for assertions *)
  acquires : int ref; (* instrumentation: completed acquires *)
}

type algo =
  | Spin of { max_backoff_us : float }
  | Mcs_original
  | Mcs_h1
  | Mcs_h2
  | Mcs_cas (* H2 with compare&swap release: Section 5.2 ablation *)
  | Clh (* CLH queue lock (Craig): spins on the predecessor's node *)
  | Ticket (* fetch&increment ticket lock; CAS machines only *)
  | Anderson (* array-based queue lock; CAS machines only *)
  | Spin_then_block of { spin_us : float } (* Section 5.3, TORNADO *)
  | Null (* no-op lock: calibration probes measuring lock overhead *)
  | Cohort of { local : algo; global : algo; max_handoffs : int }
    (* lock cohorting: [local] per cluster under one [global] *)
  | Hmcs of { threshold : int } (* hierarchical MCS: two-level MCS tree *)
  | Cna of { threshold : int } (* compact NUMA-aware MCS: secondary queue *)
  | Rw of { writer : algo; policy : Rwlock.policy; centralised : bool }
    (* distributed RW lock: per-cluster reader indicators over [writer] *)
  | Adaptive of { numa : algo }
    (* morphing lock: test&set -> H1-MCS -> [numa] by observed contention *)

let rec algo_name = function
  | Spin { max_backoff_us } ->
    if max_backoff_us >= 1000.0 then
      Printf.sprintf "Spin(%.0fms)" (max_backoff_us /. 1000.0)
    else Printf.sprintf "Spin(%.0fus)" max_backoff_us
  | Mcs_original -> "MCS"
  | Mcs_h1 -> "H1-MCS"
  | Mcs_h2 -> "H2-MCS"
  | Mcs_cas -> "H2-MCS(cas)"
  | Clh -> "CLH"
  | Ticket -> "Ticket"
  | Anderson -> "Anderson"
  | Spin_then_block { spin_us } -> Printf.sprintf "STB(%.0fus)" spin_us
  | Null -> "none"
  | Cohort { local; global; _ } ->
    Printf.sprintf "C-%s-%s" (algo_name local) (algo_name global)
  | Hmcs _ -> "HMCS"
  | Cna _ -> "CNA"
  | Rw { writer; policy; centralised } ->
    Printf.sprintf "RW%s%s-%s"
      (match policy with
      | Rwlock.Writer_blocking -> ""
      | Rwlock.Reader_preference -> "(rp)")
      (if centralised then "(1w)" else "")
      (algo_name writer)
  | Adaptive { numa } -> Printf.sprintf "Adaptive(%s)" (algo_name numa)

(* Whether [make] will demand a compare&swap machine for this algorithm —
   so workloads sweeping the whole family can upgrade the configuration
   ({!Config.with_cas}) for exactly the algorithms that need it. *)
let rec needs_cas = function
  | Mcs_cas | Ticket | Anderson -> true
  | Rw _ -> true (* reader admission is a CAS retry loop *)
  | Cohort { local; global; _ } -> needs_cas local || needs_cas global
  | Adaptive { numa } ->
    (* The test&set and H1-MCS shapes are swap-only; only the NUMA
       constituent can raise the requirement. *)
    needs_cas numa
  | Spin _ | Mcs_original | Mcs_h1 | Mcs_h2 | Clh | Spin_then_block _ | Null
  | Hmcs _ | Cna _ ->
    false

(* A lock that does nothing: lets calibration probes measure a kernel path
   with its locking subtracted. *)
let null =
  {
    name = "none";
    acquire = (fun _ -> ());
    release = (fun _ -> ());
    try_acquire = (fun _ -> true);
    try_acquire_for = (fun _ ~deadline:_ -> true);
    abortable = true;
    recover = (fun _ -> false);
    recoverable = false;
    is_free = (fun () -> true);
    acquires = ref 0;
  }

let all_paper_algos =
  [ Mcs_original; Mcs_h1; Mcs_h2; Spin { max_backoff_us = 35.0 };
    Spin { max_backoff_us = 2000.0 } ]

(* H1 constituents, not H2: H2's successor-check-free release opens a
   fetch&store repair window on every hand-off, and stacked under the
   cohort's release path that window resonates with re-enqueue timing and
   starves the local queue behind a repeating usurper. H1 hands off
   directly whenever the successor link is visible, so a deep local queue
   never opens the window. *)
let c_mcs_mcs =
  Cohort
    {
      local = Mcs_h1;
      global = Mcs_h1;
      max_handoffs = Cohort.default_max_handoffs;
    }

let hmcs = Hmcs { threshold = Hmcs.default_threshold }
let cna = Cna { threshold = Cna.default_threshold }
let all_numa_algos = [ c_mcs_mcs; hmcs; cna ]
let adaptive = Adaptive { numa = cna }

(* Every [--lock] spelling the command line accepts, aliases included;
   [of_string] also parses [spin:<max-backoff-us>]. *)
let spellings =
  [
    ("mcs", Mcs_original);
    ("h1", Mcs_h1);
    ("h1-mcs", Mcs_h1);
    ("h2", Mcs_h2);
    ("h2-mcs", Mcs_h2);
    ("cas", Mcs_cas);
    ("h2-cas", Mcs_cas);
    ("clh", Clh);
    ("ticket", Ticket);
    ("anderson", Anderson);
    ("cohort", c_mcs_mcs);
    ("c-mcs-mcs", c_mcs_mcs);
    ("hmcs", hmcs);
    ("cna", cna);
    ("adaptive", adaptive);
    ("adaptive:cna", adaptive);
    ("adaptive:cohort", Adaptive { numa = c_mcs_mcs });
    ("adaptive:hmcs", Adaptive { numa = hmcs });
  ]

(* A spin cap under 1 us is refused here, as a usage error, rather than by
   [Backoff.create] once a run has started: on the 16 MHz HECTOR a cap
   under 0.5 us is below the backoff's first 8-cycle step. *)
let of_string s =
  let s = String.lowercase_ascii s in
  match List.assoc_opt s spellings with
  | Some a -> Ok a
  | None -> (
    match Scanf.sscanf_opt s "spin:%f" Fun.id with
    | Some us when us >= 1.0 && Float.is_finite us ->
      Ok (Spin { max_backoff_us = us })
    | Some _ ->
      Error (Printf.sprintf "%S: the spin backoff cap must be at least 1 us" s)
    | None ->
      Error
        (Printf.sprintf "unknown lock algorithm %S (%s or spin:<us>)" s
           (String.concat ", " (List.map fst spellings))))

(* The roles an algorithm can take inside a composite: base algorithms are
   cohort constituents, NUMA composites are Adaptive's top shape, and
   either can serialise an RW lock's writers. *)
let is_base = function
  | Spin _ | Mcs_original | Mcs_h1 | Mcs_h2 | Mcs_cas | Clh | Ticket | Anderson
    ->
    true
  | Spin_then_block _ | Null | Cohort _ | Hmcs _ | Cna _ | Rw _ | Adaptive _ ->
    false

let is_numa = function Cohort _ | Hmcs _ | Cna _ -> true | _ -> false

let require ok ~role algo =
  if not ok then
    invalid_arg
      (Printf.sprintf "Lock.build: %s cannot be %s" (algo_name algo) role)

(* The test&set shape of a morphing lock caps its backoff far below the
   standalone Spin default: by construction it only ever serves light
   traffic (contention promotes the lock away from it), and a tight cap is
   what lets a saturated spin shape drain quickly after a morph — with the
   35us cap, the post-morph drain of a full complement of backed-off
   waiters is as slow as the spin shape itself. *)
let adaptive_shapes numa = [| Spin { max_backoff_us = 5.0 }; Mcs_h1; numa |]

(* The one constructor: each algorithm as a {!Lock_core.packed} instance,
   composites assembled from recursively built constituents. Leaves keep
   their own default lockdep class ("mcs", "spinlock", "cohort", ...). *)
let rec build machine ?home ?vclass ~topo algo : Lock_core.packed =
  let mcs ?use_cas_release variant =
    Lock_core.pack (module Mcs.Core)
      (Mcs.create ~variant ?home ?use_cas_release ?vclass machine)
  in
  match algo with
  | Spin { max_backoff_us } ->
    let backoff =
      Backoff.of_us (Machine.config machine) ~max_us:max_backoff_us ()
    in
    Lock_core.pack
      (module Spin_lock.Core)
      (Spin_lock.create machine ?home ?vclass backoff)
  | Mcs_original -> mcs Mcs.Original
  | Mcs_h1 -> mcs Mcs.H1
  | Mcs_h2 -> mcs Mcs.H2
  | Mcs_cas ->
    if not (Machine.config machine).Config.has_cas then
      invalid_arg "Lock.build: Mcs_cas needs a machine with compare&swap";
    mcs ~use_cas_release:true Mcs.H2
  | Clh -> Lock_core.pack (module Clh.Core) (Clh.create ?home ?vclass machine)
  | Ticket ->
    Lock_core.pack
      (module Ticket_lock.Core)
      (Ticket_lock.create ?home ?vclass machine)
  | Anderson ->
    Lock_core.pack
      (module Anderson_lock.Core)
      (Anderson_lock.create ?home ?vclass machine)
  | Spin_then_block { spin_us } ->
    Lock_core.pack
      (module Stb_lock.Core)
      (Stb_lock.create ?home ~spin_us ?vclass machine)
  | Null -> invalid_arg "Lock.build: Null has no instance (use Lock.null)"
  | Cohort { local; global; max_handoffs } ->
    let role = "a cohort constituent (base algorithms only)" in
    require (is_base local) ~role local;
    require (is_base global) ~role global;
    Lock_core.pack
      (module Cohort.Core)
      (Cohort.create ?vclass ~max_handoffs ~topo
         ~local:(fun ~home ~vclass -> build machine ~home ~vclass ~topo local)
         ~global:(fun ~vclass -> build machine ?home ~vclass ~topo global)
         machine)
  | Hmcs { threshold } ->
    Lock_core.pack (module Hmcs.Core)
      (Hmcs.create ?home ~threshold ?vclass ~topo machine)
  | Cna { threshold } ->
    Lock_core.pack (module Cna.Core)
      (Cna.create ?home ~threshold ?vclass ~topo machine)
  | Rw { writer; policy; centralised } ->
    Lock_core.pack
      (module Rwlock.Core)
      (rwlock machine ?home ?vclass ~topo ~policy ~centralised writer)
  | Adaptive { numa } ->
    require (is_numa numa) ~role:"Adaptive's NUMA shape (Cohort, Hmcs or Cna)"
      numa;
    (* Three pre-created shapes sharing one lockdep class (distinct
       instance ids), built in promotion order. *)
    let vclass = Option.value vclass ~default:"adaptive" in
    let shapes =
      Array.map (build machine ?home ~vclass ~topo) (adaptive_shapes numa)
    in
    Lock_core.pack
      (module Adaptive.Core)
      (Adaptive.create ?home ~vclass ~topo ~shapes machine)

(* The RW composite over a built writer constituent. *)
and rwlock machine ?home ?vclass ~topo ~policy ~centralised writer =
  require
    (is_base writer || is_numa writer)
    ~role:"an RW writer constituent" writer;
  Rwlock.create ?home ?vclass ~policy ~centralised ~topo
    ~writer:(fun ~vclass -> build machine ?home ~vclass ~topo writer)
    machine

(* The uniform record over a built instance: the one place [acquires]
   counts completed blocking and timed acquisitions. *)
let of_packed ~name (Lock_core.Packed ((module M), l)) =
  let acquires = ref 0 in
  {
    name;
    acquire =
      (fun ctx ->
        M.acquire l ctx;
        incr acquires);
    release = M.release l;
    try_acquire = M.try_acquire l;
    try_acquire_for =
      (fun ctx ~deadline ->
        let ok = M.try_acquire_for l ctx ~deadline in
        if ok then incr acquires;
        ok);
    abortable = M.abortable l;
    recover = M.recover l;
    recoverable = M.recoverable l;
    is_free = (fun () -> M.is_free l);
    acquires;
  }

let topo_or_machine machine = function
  | Some t -> t
  | None -> Lock_core.topo_of_machine machine

let make machine ?(home = 0) ?vclass ?topo = function
  | Null -> null
  | algo ->
    of_packed ~name:(algo_name algo)
      (build machine ~home ?vclass ~topo:(topo_or_machine machine topo) algo)

(* The RW composite with both faces — workloads that want the reader side
   use this directly; [make (Rw ...)] wraps the writer face. *)
let make_rw machine ?home ?vclass ?topo ~policy ~centralised writer =
  rwlock machine ?home ?vclass
    ~topo:(topo_or_machine machine topo)
    ~policy ~centralised writer

(* Crash-tolerant acquire: poll in bounded slices so a dead holder is
   noticed and repaired instead of being waited on forever. Each slice is a
   timed acquisition of [check_period] cycles; on expiry, [recover] runs if
   the holder fail-stopped. The backoff pause between slices is mandatory,
   not a politeness: an abortable algorithm whose abandoned node is still
   queued fails its next timed attempt in zero virtual time (fail-fast on
   the marked node), and without the pause the retry loop would spin the
   host without ever advancing the simulation.

   The pause must also be *randomised*, and allowed to grow past the check
   period. Mass timeout is pathological for abandon-in-place queue locks: a
   release hand-off walking the queue collects each abandoned node, which
   frees that node's owner to re-enqueue and time out again — trail growth
   exactly matches collection, and if every waiter runs the same
   deterministic slice/pause cadence the walker arrives at each position
   just after its owner gave up, forever (observed as a no-crash livelock
   at p = 16). Jitter breaks the phase lock, and the growing cap thins the
   abandonment rate until the walker catches a node whose owner is still
   spinning. A non-abortable but recoverable algorithm (Ticket) blocks and
   recovers in-spin; a non-recoverable one just blocks — callers that plan
   to inject crashes should pick from the recoverable family. *)
let acquire_recoverable ?(check_period = 2_000) t ctx =
  if not (t.abortable && t.recoverable) then t.acquire ctx
  else begin
    let rng = Ctx.rng ctx in
    let rec attempt pause =
      if t.try_acquire_for ctx ~deadline:(Ctx.now ctx + check_period) then ()
      else begin
        ignore (t.recover ctx);
        Ctx.interruptible_pause ctx
          (1 + (pause / 2) + Eventsim.Rng.int rng pause);
        attempt (min (2 * pause) (8 * check_period))
      end
    in
    attempt 64
  end

(* Acquire with the processor's soft mask set, so inter-processor interrupts
   that could deadlock with this lock are deferred until release (Section
   3.2's adopted solution). *)
let with_lock_masked t ctx f =
  Ctx.set_soft_mask ctx;
  t.acquire ctx;
  Fun.protect
    ~finally:(fun () ->
      t.release ctx;
      Ctx.clear_soft_mask ctx)
    f

let with_lock t ctx f =
  t.acquire ctx;
  Fun.protect ~finally:(fun () -> t.release ctx) f

(* Space cost of one lock instance, in words, for [n_procs] processors and
   [n_clusters] clusters. MCS queue nodes are per-processor but *shared
   across all locks* on real systems; here we charge the per-lock view the
   paper uses when comparing strategies ("an additional two words per
   actively spinning processor" for distributed locks, one word for a spin
   lock, a P-entry array for Anderson). The NUMA composites follow the same
   convention (see lock.mli for the full accounting). *)
let rec space_words ?(n_clusters = 1) ~n_procs = function
  | Spin _ -> 1
  | Ticket -> 2
  | Anderson -> 1 + n_procs
  | Clh -> 1 + n_procs + 1 (* tail + a node per processor + the dummy *)
  | Mcs_original | Mcs_h1 | Mcs_h2 | Mcs_cas -> 1 + (2 * n_procs)
  | Spin_then_block _ -> 1 (* plus the scheduler's wait list, not memory *)
  | Null -> 0
  | Cohort { local; global; _ } ->
    (* One [local] instance per cluster, one [global], plus the per-cluster
       [owned] flag and pass counter. *)
    space_words ~n_clusters ~n_procs global
    + (n_clusters * space_words ~n_clusters ~n_procs local)
    + (2 * n_clusters)
  | Hmcs _ ->
    (* Root tail; root node (next + locked) and local tail per cluster;
       queue node (next + locked) per processor. *)
    1 + (3 * n_clusters) + (2 * n_procs)
  | Cna _ ->
    (* Tail + secondary head/tail, and a 3-word node per processor (next,
       locked, cluster). Independent of the cluster count — CNA's "compact"
       claim. *)
    3 + (3 * n_procs)
  | Rw { writer; centralised; _ } ->
    (* The writer constituent plus one reader-indicator word per cluster
       (count and gate bit share the word), or a single word for the
       centralised baseline. *)
    space_words ~n_clusters ~n_procs writer
    + (if centralised then 1 else n_clusters)
  | Adaptive { numa } ->
    (* The mode word plus the max over the three shapes. The accounting
       convention throughout this function is the paper's per-lock *active*
       view (MCS nodes are per-processor but shared across locks on real
       systems); under that convention only one shape's words spin at a
       time — the morph guard keeps the inactive shapes quiescent — so the
       max, not the sum, is the footprint comparable with the static
       rows. *)
    1
    + Array.fold_left
        (fun m a -> max m (space_words ~n_clusters ~n_procs a))
        0 (adaptive_shapes numa)
