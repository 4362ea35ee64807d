(* Adaptive lock morphing: test&set -> MCS -> NUMA composite, driven by a
   sliding window of observed contention.

   The paper hand-picked a lock shape per subsystem because no single shape
   wins across load regimes: a test&set lock is unbeatable uncontended, a
   queue lock under symmetric contention, a hierarchical composite once
   hand-offs cross clusters. This lock carries all three shapes and morphs
   between them at run time, Fissile-style, keyed on the contended fraction
   and the remote-hand-off fraction of the last [window] acquisitions.

   Morph protocol. The three constituent shapes are pre-created and share
   one lockdep class (distinct instance ids); [current] is a one-word timed
   cell naming the active shape. An acquirer routes by reading [current],
   acquires that shape, then re-reads [current] to validate: if a morph
   happened while it was queued, it releases the stale shape (a "drain"
   hand-off that wakes the next stale waiter) and re-routes. Only a
   releaser that owned the critical section writes [current], and only
   after checking the target shape is free with no waiters — so the old
   shape drains before its words carry the lock again, and [current] never
   moves while any processor is inside the critical section.

   Mutual exclusion: entering the critical section requires holding shape
   [s] *and* observing [current = s] after the shape-level acquire. Shape-
   level mutual exclusion makes two holders of one shape impossible, and
   [current] is written only between critical sections (by the releaser,
   before its shape-level hand-off), so two processors validating against
   different shapes cannot both be inside.

   Verification needs no special casing: every shape-level acquire/release
   — drains included — is a balanced pair on a constituent instance, and a
   recovery is the constituent's own forced hand-off. The observer gains
   [morphs_up]/[morphs_down] counters and a current-shape gauge through
   {!Verify.Morphed} events, which the checker ignores. *)

open Hector

(* Shape indices. *)
let shape_ts = 0
let shape_queue = 1
let shape_numa = 2
let n_shapes = 3

let shape_name = function
  | 0 -> "ts"
  | 1 -> "queue"
  | _ -> "numa"

type t = {
  name : string;
  shapes : Lock_core.packed array; (* [| ts; queue; numa |] *)
  current : Cell.t; (* the mode word: index of the active shape *)
  topo : Lock_core.topo;
  (* policy: sliding window of acquisitions and its thresholds *)
  window : int;
  up_contended : float;
  down_contended : float;
  up_remote : float;
  wait_threshold : int; (* cycles; a slower acquire counts as contended *)
  mutable w_acqs : int;
  mutable w_contended : int;
  mutable w_remote : int;
  (* Arrivals currently blocked inside a shape-level acquire (routing,
     queued or draining). Host-side, like the window: the wrapper can see
     queue depth even for shapes that cannot (a backed-off test&set has
     no queue to inspect). Overcounts after a crash kills a queued waiter
     — that only biases the policy towards bigger shapes, never towards
     shrinking a contended lock. *)
  mutable in_flight : int;
  (* bookkeeping (host-side, like every lock's holder word) *)
  mutable holder : int; (* -1 when free *)
  mutable holder_shape : int; (* shape the holder validated against *)
  mutable last_releaser : int; (* -1 before the first release *)
  mutable acquisitions : int;
  mutable morphs_up : int;
  mutable morphs_down : int;
  mutable drains : int; (* stale-shape hand-offs released and re-routed *)
  mutable deferrals : int; (* morphs blocked on a still-draining target *)
  mutable recovering : bool;
  abortable : bool;
  recoverable : bool;
  vcls : Verify.lock_class;
  vid : int;
}

(* The window is deliberately short: a regime change is only visible
   through acquisitions that *complete*, and the shape that most needs
   replacing (a saturated test&set) completes them slowest — a long
   window would leave the lock stuck in its worst shape for most of a
   load spike. Eight acquisitions is enough to estimate the contended
   fraction against thresholds this coarse. *)
let default_window = 8
let default_up_contended = 0.5
let default_down_contended = 0.15
let default_up_remote = 0.4

(* An acquisition also counts as contended when the shape-level acquire
   took longer than this. The instantaneous sample (holder set, or the
   shape reports waiters) misses the shape that most needs replacing: a
   backed-off test&set lock has no queue to inspect and its word is free
   for most of the wall-clock time between hand-offs, so a saturated
   spin shape looks idle at route time. The threshold sits above the
   family's uncontended acquire costs (a few µs) and far below a
   saturated wait (tens of µs). *)
let default_contended_wait_us = 10.0

let create ?(home = 0) ?(vclass = "adaptive") ?(window = default_window)
    ?(up_contended = default_up_contended)
    ?(down_contended = default_down_contended)
    ?(up_remote = default_up_remote)
    ?(contended_wait_us = default_contended_wait_us) ~name ~topo ~shapes
    ~abortable ~recoverable machine =
  if Array.length shapes <> n_shapes then
    invalid_arg "Adaptive.create: expected exactly [| ts; queue; numa |]";
  if window < 2 then invalid_arg "Adaptive.create: window must be >= 2";
  {
    name;
    shapes;
    current = Cell.make ~label:"adaptive.current" ~home shape_ts;
    topo;
    window;
    up_contended;
    down_contended;
    up_remote;
    wait_threshold =
      Config.cycles_of_us (Machine.config machine) contended_wait_us;
    w_acqs = 0;
    w_contended = 0;
    w_remote = 0;
    in_flight = 0;
    holder = -1;
    holder_shape = shape_ts;
    last_releaser = -1;
    acquisitions = 0;
    morphs_up = 0;
    morphs_down = 0;
    drains = 0;
    deferrals = 0;
    recovering = false;
    abortable;
    recoverable;
    vcls = Verify.lock_class vclass;
    vid = Verify.fresh_id ();
  }

let name t = t.name
let acquisitions t = t.acquisitions
let morphs_up t = t.morphs_up
let morphs_down t = t.morphs_down
let drains t = t.drains
let deferrals t = t.deferrals
let current_shape t = Cell.peek t.current
let vclass t = t.vcls
let vid t = t.vid
let holder t = t.holder

let is_free t =
  t.holder = -1 && Array.for_all Lock_core.p_is_free t.shapes

let waiters t =
  t.in_flight > 0 || Array.exists Lock_core.p_waiters t.shapes

(* Host-side window bookkeeping at critical-section entry. The caller has
   already decided [contended] from the route-time sample and the measured
   wait; an entry that leaves other arrivals still blocked behind it is
   contended too. A contended hand-off is remote when the previous
   releaser sat in a different cluster. *)
let entered t ctx ~shape ~contended =
  let p = Ctx.proc ctx in
  t.in_flight <- t.in_flight - 1;
  let contended = contended || t.in_flight > 0 in
  t.holder <- p;
  t.holder_shape <- shape;
  t.acquisitions <- t.acquisitions + 1;
  t.w_acqs <- t.w_acqs + 1;
  if contended then begin
    t.w_contended <- t.w_contended + 1;
    if
      t.last_releaser >= 0
      && t.topo.Lock_core.cluster_of t.last_releaser
         <> t.topo.Lock_core.cluster_of p
    then t.w_remote <- t.w_remote + 1
  end

let sample_contended t shape =
  t.holder >= 0 || Lock_core.p_waiters t.shapes.(shape)

let acquire t ctx =
  let t0 = Ctx.now ctx in
  t.in_flight <- t.in_flight + 1;
  let rec go () =
    let s = Ctx.read ctx t.current in
    let contended = sample_contended t s in
    Lock_core.p_acquire t.shapes.(s) ctx;
    if Ctx.read ctx t.current <> s then begin
      (* A morph landed while we were queued: hand the stale shape to the
         next drainer and re-route. Balanced pair; no critical section. *)
      t.drains <- t.drains + 1;
      Lock_core.p_release t.shapes.(s) ctx;
      go ()
    end
    else
      let contended =
        contended || Ctx.now ctx - t0 >= t.wait_threshold
      in
      entered t ctx ~shape:s ~contended
  in
  go ()

let try_acquire t ctx =
  t.in_flight <- t.in_flight + 1;
  let rec go () =
    let s = Ctx.read ctx t.current in
    let contended = sample_contended t s in
    if not (Lock_core.p_try_acquire t.shapes.(s) ctx) then begin
      t.in_flight <- t.in_flight - 1;
      false
    end
    else if Ctx.read ctx t.current <> s then begin
      t.drains <- t.drains + 1;
      Lock_core.p_release t.shapes.(s) ctx;
      go ()
    end
    else begin
      entered t ctx ~shape:s ~contended;
      true
    end
  in
  go ()

let try_acquire_for t ctx ~deadline =
  let t0 = Ctx.now ctx in
  t.in_flight <- t.in_flight + 1;
  let rec go () =
    if Ctx.now ctx >= deadline && t.abortable then begin
      t.in_flight <- t.in_flight - 1;
      false
    end
    else begin
      let s = Ctx.read ctx t.current in
      let contended = sample_contended t s in
      if not (Lock_core.p_try_acquire_for t.shapes.(s) ctx ~deadline) then begin
        t.in_flight <- t.in_flight - 1;
        false
      end
      else if Ctx.read ctx t.current <> s then begin
        t.drains <- t.drains + 1;
        Lock_core.p_release t.shapes.(s) ctx;
        go ()
      end
      else begin
        let contended =
          contended || Ctx.now ctx - t0 >= t.wait_threshold
        in
        entered t ctx ~shape:s ~contended;
        true
      end
    end
  in
  go ()

(* The policy, run by the releaser between its critical section and the
   shape-level hand-off — the only writer of [current].

   Promotion is eager: evaluated every release once a quarter-window
   quorum of samples exists, because the regimes that need a bigger shape
   are exactly the ones where a full window takes longest to fill (a
   saturated test&set completes acquisitions slowly). Demotion is
   conservative: evaluated only on a full window, so a brief lull cannot
   shrink the lock out from under a storm — and it keys on the contended
   fraction alone. The remote fraction is deliberately excluded from
   demotion: measured *under* the NUMA shape it is low precisely because
   that shape localises hand-offs, and demoting on it would oscillate.
   The gap between [up_contended] and [down_contended] is the hysteresis
   that keeps a borderline load from thrashing shapes every window.

   The fractions are clamped to [0, 1] — mirroring the observer-side
   invariant (contended can outrun acquisitions when waits abandon), a
   ratio above one means saturation, nothing hotter.

   The free-and-unqueued guard on the target implements the drain rule:
   the old shape's words never carry the lock again until its queue has
   fully drained; a blocked morph is deferred and retried. *)
let maybe_morph t ctx ~cur =
  let quorum = max 2 (t.window / 4) in
  (* The saturation fast path: half a window of arrivals blocked right
     now is direct evidence of the hot regime, available before the
     window can fill — a saturated test&set completes acquisitions so
     slowly that waiting for window samples from it would burn most of a
     load spike in the worst shape. *)
  let saturated = t.in_flight >= max 2 (t.window / 2) in
  if saturated || t.w_acqs >= quorum then begin
    let fc =
      min 1.0 (float_of_int t.w_contended /. float_of_int (max 1 t.w_acqs))
    in
    let fr =
      if t.w_contended = 0 then 0.0
      else min 1.0 (float_of_int t.w_remote /. float_of_int t.w_contended)
    in
    let hot = saturated || (t.w_acqs >= quorum && fc >= t.up_contended) in
    let target =
      if cur = shape_ts && hot then Some shape_queue
      else if
        cur = shape_queue && hot && t.w_contended >= 2 && fr >= t.up_remote
      then Some shape_numa
      else if t.w_acqs >= t.window && cur > shape_ts && fc <= t.down_contended
      then Some (cur - 1)
      else None
    in
    let reset () =
      t.w_acqs <- 0;
      t.w_contended <- 0;
      t.w_remote <- 0
    in
    match target with
    | Some tgt_idx ->
      let tgt = t.shapes.(tgt_idx) in
      if Lock_core.p_is_free tgt && not (Lock_core.p_waiters tgt) then begin
        Ctx.write ctx t.current tgt_idx;
        let up = tgt_idx > cur in
        if up then t.morphs_up <- t.morphs_up + 1
        else t.morphs_down <- t.morphs_down + 1;
        if Ctx.hooked ctx then
          Ctx.emit ctx (Verify.Morphed { cls = t.vcls; up; shape = tgt_idx })
      end
      else t.deferrals <- t.deferrals + 1;
      reset ()
    | None -> if t.w_acqs >= t.window then reset ()
  end

let release t ctx =
  assert (t.holder = Ctx.proc ctx);
  let s = t.holder_shape in
  t.holder <- -1;
  t.last_releaser <- Ctx.proc ctx;
  maybe_morph t ctx ~cur:s;
  Lock_core.p_release t.shapes.(s) ctx

(* Dead-holder recovery. The easy case: the corpse validated (it is
   [t.holder]) — delegate to its shape's own recover, which forces the
   hand-off and reports it. The hard case is a crash inside an in-flight
   morph or drain: the corpse holds a constituent shape but [t.holder] is
   -1 — it died after routing but before validating, mid-drain-release, or
   between writing [current] and its shape-level hand-off. No Adaptive
   word says which shape it holds, so sweep every shape's recover; each
   returns false unless its registered holder really is dead. Serialised
   by a host-side flag, like every recover in the family. *)
let recover t ctx =
  if not t.recoverable then false
  else if t.recovering then false
  else begin
    t.recovering <- true;
    Fun.protect
      ~finally:(fun () -> t.recovering <- false)
      (fun () ->
        let machine = Ctx.machine ctx in
        if t.holder >= 0 && not (Machine.proc_alive machine t.holder) then begin
          let dead = t.holder in
          let ok = Lock_core.p_recover t.shapes.(t.holder_shape) ctx in
          if ok then begin
            (* [p_recover] suspends on simulated memory while it forces
               the hand-off; a successor may have validated and registered
               itself in that window. Clear only the corpse's registration. *)
            if t.holder = dead then t.holder <- -1;
            (* The window sampled a regime the crash just invalidated. *)
            t.w_acqs <- 0;
            t.w_contended <- 0;
            t.w_remote <- 0
          end;
          ok
        end
        else begin
          let swept = ref false in
          Array.iter
            (fun sh -> if Lock_core.p_recover sh ctx then swept := true)
            t.shapes;
          !swept
        end)
  end

module Core = struct
  type nonrec t = t

  let name = name
  let acquire = acquire
  let release = release
  let try_acquire = try_acquire
  let try_acquire_for = try_acquire_for
  let abortable = true
  let recover = recover
  let recoverable = true
  let is_free = is_free
  let waiters = waiters
  let acquisitions = acquisitions
  let vclass = vclass
  let vid = vid
end
