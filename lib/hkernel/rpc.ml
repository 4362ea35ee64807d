(* Inter-cluster remote procedure calls.

   An RPC is carried by an inter-processor interrupt: the sender marshals a
   request (a remote write into the target's memory), raises the IPI, and
   spins on the reply word with interrupts enabled — the processor is busy
   but still serves incoming RPCs, as an exception-based kernel must. The
   service runs in the target's interrupt context and therefore must never
   wait on a reserve bit: it fails with [Would_deadlock] instead, and the
   initiator retries (Section 2.3).

   The target processor is chosen by the caller; Hurricane's rule is i-th
   processor to i-th processor (see {!Clustering.rpc_target}).

   Fault injection: with a plan installed ({!set_fault_plan}), a request or
   reply may be delayed, and at most once per call the request or reply may
   be lost outright. A lost message is recovered by the caller's reply
   timeout, which resends the IPI — at-least-once delivery, so services run
   under a fault plan must tolerate re-execution (a duplicate whose reply
   was already delivered is recognised and discarded). With no plan there
   are no draws, no timeouts and no extra cycles: timing is identical to a
   build without injection. *)

open Eventsim
open Hector

type outcome =
  | Ok of int
  | Would_deadlock (* a reserve bit was found set on the remote side *)
  | Absent (* the remote structure does not exist *)
  | Gave_up (* call_until_resolved exhausted its attempt budget *)
  | Dead_target (* the target processor fail-stopped; do not re-retry *)

let outcome_name = function
  | Ok v -> Printf.sprintf "Ok(%d)" v
  | Would_deadlock -> "Would_deadlock"
  | Absent -> "Absent"
  | Gave_up -> "Gave_up"
  | Dead_target -> "Dead_target"

type t = {
  ctxs : Ctx.t array;
  costs : Costs.t;
  req_cells : Cell.t array; (* request mailbox per processor *)
  reply_cells : Cell.t array; (* reply mailbox per (calling) processor *)
  mutable work : Ctx.t -> int -> unit;
      (* how marshal/dispatch cycles are charged; the kernel installs its
         memory-bound worker here *)
  mutable fault : Fault.t option;
  mutable calls : int;
  mutable deadlock_failures : int;
  mutable retries : int;
  mutable resends : int; (* reply timeouts that re-raised the IPI *)
  mutable gave_ups : int;
  mutable max_attempts_seen : int; (* worst attempt count over all calls *)
  mutable backoff_cap_hits : int; (* attempts past the x8 backoff cap *)
  mutable dead_targets : int; (* calls refused because the target is dead *)
}

let create machine ctxs costs =
  {
    ctxs;
    costs;
    req_cells =
      Array.init (Array.length ctxs) (fun p ->
          Machine.alloc machine ~label:(Printf.sprintf "rpcreq%d" p) ~home:p 0);
    (* One reply mailbox per processor, homed locally so the caller's reply
       spin is a local access. Allocated once here: a caller has at most one
       synchronous RPC outstanding, so reuse is safe, and allocating per
       call would grow the machine without bound on long runs. *)
    reply_cells =
      Array.init (Array.length ctxs) (fun p ->
          Machine.alloc machine
            ~label:(Printf.sprintf "rpcreply%d" p)
            ~home:p 0);
    work = (fun ctx cycles -> Ctx.work ctx cycles);
    fault = None;
    calls = 0;
    deadlock_failures = 0;
    retries = 0;
    resends = 0;
    gave_ups = 0;
    max_attempts_seen = 0;
    backoff_cap_hits = 0;
    dead_targets = 0;
  }

let set_work t f = t.work <- f
let set_fault_plan t plan = t.fault <- plan
let fault_plan t = t.fault

let calls t = t.calls
let deadlock_failures t = t.deadlock_failures
let retries t = t.retries
let resends t = t.resends
let gave_ups t = t.gave_ups
let max_attempts_seen t = t.max_attempts_seen
let backoff_cap_hits t = t.backoff_cap_hits
let dead_targets t = t.dead_targets

(* One synchronous RPC. [service] runs on the target processor's context in
   interrupt state. *)
let call t ctx ~target service =
  if target = Ctx.proc ctx then begin
    (* Local "call": run the service directly, no interrupt machinery. *)
    t.calls <- t.calls + 1;
    let r = service ctx in
    (match r with
    | Would_deadlock -> t.deadlock_failures <- t.deadlock_failures + 1
    | Ok _ | Absent | Gave_up | Dead_target -> ());
    r
  end
  else if not (Machine.proc_alive (Ctx.machine ctx) target) then begin
    (* Fail-stop detectability: peers can tell a dead processor from a slow
       one, so a call aimed at a corpse fails fast instead of burning reply
       timeouts against it. A host-side read — free when nobody dies. *)
    t.calls <- t.calls + 1;
    t.dead_targets <- t.dead_targets + 1;
    Dead_target
  end
  else begin
    t.calls <- t.calls + 1;
    t.work ctx t.costs.Costs.rpc_send;
    (* Injected congestion may hold up the request marshalling. *)
    (match t.fault with
    | None -> ()
    | Some plan -> (
      match Fault.draw_rpc_delay plan ~now:(Ctx.now ctx) with
      | None -> ()
      | Some d -> Ctx.interruptible_pause ctx d));
    (* Deposit the request in the target's mailbox: one remote write. *)
    Ctx.write ctx t.req_cells.(target) (Ctx.proc ctx + 1);
    let reply = Ivar.create () in
    let reply_cell = t.reply_cells.(Ctx.proc ctx) in
    (* At most one loss per call, whichever side the draw picks. *)
    let lost_once = ref false in
    let handler ~drop_reply tctx =
      t.work tctx t.costs.Costs.rpc_dispatch;
      if Ivar.peek reply = None then begin
        let r = service tctx in
        (match t.fault with
        | None -> ()
        | Some plan -> (
          match Fault.draw_rpc_delay plan ~now:(Ctx.now tctx) with
          | None -> ()
          | Some d -> Ctx.interruptible_pause tctx d));
        t.work tctx t.costs.Costs.rpc_reply;
        if not drop_reply then begin
          (* Deposit the reply at the caller: one remote write. *)
          Ctx.write tctx reply_cell 1;
          Ivar.fill (Ctx.engine tctx) reply r
        end
      end
      (* else: a resent duplicate whose reply already arrived — the target
         recognises the stale sequence number and discards it. *)
    in
    let post () =
      let fate =
        match t.fault with
        | Some plan when not !lost_once ->
          Fault.draw_rpc_drop plan ~now:(Ctx.now ctx)
        | _ -> Fault.No_drop
      in
      match fate with
      | Fault.Drop_request -> lost_once := true (* the IPI is lost *)
      | Fault.Drop_reply ->
        lost_once := true;
        Ctx.post_ipi t.ctxs.(target) (handler ~drop_reply:true)
      | Fault.No_drop -> Ctx.post_ipi t.ctxs.(target) (handler ~drop_reply:false)
    in
    post ();
    if Ctx.hooked ctx then Ctx.emit ctx (Verify.Rpc_issue { target });
    let rec wait () =
      let timeout =
        match t.fault with Some plan -> Fault.reply_timeout plan | None -> 0
      in
      if timeout <= 0 then Ctx.await ctx reply
      else
        match Ctx.await_timeout ctx ~timeout reply with
        | Some r -> r
        | None ->
          if not (Machine.proc_alive (Ctx.machine ctx) target) then begin
            (* The target died with our call in flight: degrade instead of
               resending IPIs into a corpse forever. *)
            t.dead_targets <- t.dead_targets + 1;
            Dead_target
          end
          else begin
            (* The reply is overdue: assume the request or reply was lost
               and resend the IPI. *)
            t.resends <- t.resends + 1;
            if Ctx.hooked ctx then Ctx.emit ctx Verify.Rpc_retry;
            t.work ctx t.costs.Costs.rpc_send;
            Ctx.write ctx t.req_cells.(target) (Ctx.proc ctx + 1);
            post ();
            wait ()
          end
    in
    let r = wait () in
    (* Consume the reply word. *)
    ignore (Ctx.read ctx reply_cell);
    if Ctx.hooked ctx then Ctx.emit ctx Verify.Rpc_reply;
    (match r with
    | Would_deadlock -> t.deadlock_failures <- t.deadlock_failures + 1
    | Ok _ | Absent | Gave_up | Dead_target -> ());
    r
  end

(* Retry a [Would_deadlock]-prone call until it resolves, backing off with
   jitter between attempts. [before_retry] lets the caller release local
   reserve bits (the optimistic protocol) before each new attempt — and
   before a [Gave_up] is returned, since a caller that gives up must not
   keep holding them either. [max_attempts = 0] retries forever (the
   pre-existing behaviour); a positive cap turns exhaustion into [Gave_up]
   so the caller can degrade instead of looping. *)
let call_until_resolved ?(before_retry = fun () -> ()) ?(max_attempts = 0) t
    ctx ~target service =
  let rec go attempt =
    let r = call t ctx ~target service in
    (* Attempt counts are recorded on every resolution — first-try
       successes, local (target = self) calls and exhaustion included —
       not only on the retry path, so the statistic reflects all calls. *)
    if attempt > t.max_attempts_seen then t.max_attempts_seen <- attempt;
    match r with
    | Would_deadlock ->
      t.retries <- t.retries + 1;
      if Ctx.hooked ctx then Ctx.emit ctx Verify.Rpc_retry;
      (* The backoff multiplier saturates at x8; attempts past that point
         no longer spread out and deserve a visible warning count. *)
      if attempt > 8 then t.backoff_cap_hits <- t.backoff_cap_hits + 1;
      before_retry ();
      if max_attempts > 0 && attempt >= max_attempts then begin
        t.gave_ups <- t.gave_ups + 1;
        Gave_up
      end
      else begin
        let base = t.costs.Costs.retry_backoff * min attempt 8 in
        Ctx.interruptible_pause ctx (base + Rng.int (Ctx.rng ctx) (max 1 base));
        go (attempt + 1)
      end
    | (Ok _ | Absent | Gave_up | Dead_target) as r -> r
  in
  go 1
