(* Per-processor execution context.

   All simulated kernel code runs under a [Ctx.t]: it charges instruction
   cycles, routes memory operations through the machine, and implements the
   interrupt model:

   - other processors post inter-processor interrupts (IPIs) into the inbox;
   - interrupts are taken at simulated operation boundaries (memory
     operations, [poll], [await], [idle]), one at a time, never nested;
   - Stodolsky-style soft masking: when the soft mask is set, a taken
     interrupt only enqueues its work on the per-processor deferred queue
     (cheap, local, cacheable accesses); the work runs when the mask is
     cleared. The paper uses this to let lock holders exclude RPC handlers
     without disabling hardware interrupts. *)

open Eventsim

type t = {
  machine : Machine.t;
  proc : int;
  rng : Rng.t;
  inbox : handler Queue.t;
  deferred : handler Queue.t;
  mutable soft_masked : bool;
  mutable in_interrupt : bool;
  mutable overlap_credit : int;
  mutable idle_wake : (unit -> unit) option;
  mutable irqs_taken : int;
  mutable irqs_deferred : int;
  mutable instr_cycles : int;
  mutable poll_tick : unit -> unit;
      (* the tick of the suspended poll wait that holds [polls], or
         [no_tick] while they are free *)
  mutable polls : (int * Engine.wait) list;
      (* per gap, the chain this processor's poll waits elide *)
  mutable pads : (int * Engine.wait) list;
      (* per work gap, the chain this processor's local pads elide *)
  mutable pad_resume : unit -> unit;
      (* the fiber of the pad that holds its chain elided or placed *)
  mutable pad_at : int; (* the element that chain resumed it at *)
  pad_credited : int ref; (* that chain's elements accounted *)
}

and handler = t -> unit

let no_tick () = ()

let create machine ~proc rng =
  if proc < 0 || proc >= Machine.n_procs machine then
    invalid_arg (Printf.sprintf "Ctx.create: bad processor id %d" proc);
  {
    machine;
    proc;
    rng;
    inbox = Queue.create ();
    deferred = Queue.create ();
    soft_masked = false;
    in_interrupt = false;
    overlap_credit = 0;
    idle_wake = None;
    irqs_taken = 0;
    irqs_deferred = 0;
    instr_cycles = 0;
    poll_tick = no_tick;
    polls = [];
    pads = [];
    pad_resume = ignore;
    pad_at = 0;
    pad_credited = ref 0;
  }

let machine t = t.machine
let proc t = t.proc
let rng t = t.rng
let engine t = Machine.engine t.machine
let config t = Machine.config t.machine
let now t = Machine.now t.machine

let irqs_taken t = t.irqs_taken
let irqs_deferred t = t.irqs_deferred
let instr_cycles t =
  Machine.settle t.machine ~proc:t.proc;
  t.instr_cycles
let soft_masked t = t.soft_masked
let in_interrupt t = t.in_interrupt

let hooked t = Machine.hooked t.machine
let emit t e = Machine.emit t.machine ~proc:t.proc ~now:(now t) e

let since_kill t dead =
  let killed = Machine.killed_at t.machine dead and now = now t in
  if killed >= 0 && killed <= now then now - killed else 0

(* Fail-stop enforcement: a dead processor's fiber parks — suspends with
   the resume continuation dropped on the floor — at the next operation
   boundary. Parking, not raising, is the point: an exception would unwind
   through [Fun.protect] cleanup (e.g. [Lock.with_lock]'s release) and
   politely hand back everything the processor holds, which a crash must
   not do. The check is one host-side array read; events already queued
   for the fiber (a pending memory-access completion, an IPI wake) fire
   into this check and die quietly. *)
let halt_if_dead t =
  if not (Machine.proc_alive t.machine t.proc) then
    Process.suspend (fun _resume -> ())

(* Pure compute. Instruction costs never touch the interconnect. *)
let work t cycles =
  halt_if_dead t;
  t.overlap_credit <- 0;
  t.instr_cycles <- t.instr_cycles + cycles;
  Machine.cpu_work t.machine cycles

(* Charge [cost] instruction cycles, minus those hidden by the overlap
   window; returns the cycles left to spend. *)
let charge t cost =
  let hidden = Int.min t.overlap_credit cost in
  t.overlap_credit <- t.overlap_credit - hidden;
  let cost = cost - hidden in
  t.instr_cycles <- t.instr_cycles + cost;
  cost

(* Charge [reg] register-to-register and [br] branch instructions. Cycles
   immediately following a fetch&store overlap with its store phase, so up
   to [atomic_overlap] of them are free (Section 4.1.1 of the paper). *)
let instr t ?(reg = 0) ?(br = 0) () =
  halt_if_dead t;
  let cfg = config t in
  let cost =
    charge t ((reg * cfg.Config.reg_cost) + (br * cfg.Config.branch_cost))
  in
  if cost > 0 then Machine.cpu_work t.machine cost

(* An interrupt is waiting and may be taken now (handlers never nest). *)
let interrupt_pending t = (not t.in_interrupt) && not (Queue.is_empty t.inbox)

(* Take pending interrupts, one at a time. A taken interrupt always pays
   handler entry; when the soft mask is set it only records its work on the
   deferred queue (a handful of local, cacheable cycles) and returns. *)
let rec poll t =
  halt_if_dead t;
  if interrupt_pending t then begin
    let h = Queue.pop t.inbox in
    let cfg = config t in
    t.in_interrupt <- true;
    t.irqs_taken <- t.irqs_taken + 1;
    Machine.cpu_work t.machine cfg.Config.irq_entry;
    (* Check the per-processor soft-mask flag: local and cacheable, two
       cycles. *)
    Machine.cpu_work t.machine 2;
    if t.soft_masked then begin
      t.irqs_deferred <- t.irqs_deferred + 1;
      Queue.push h t.deferred;
      Machine.cpu_work t.machine 4 (* enqueue work record, local *)
    end
    else h t;
    Machine.cpu_work t.machine cfg.Config.irq_exit;
    t.in_interrupt <- false;
    poll t
  end

(* Memory operations: interrupts are taken at the boundary, then the access
   is charged. Any memory operation ends the swap-overlap window. *)

let read t cell =
  poll t;
  t.overlap_credit <- 0;
  Machine.read t.machine ~proc:t.proc cell

let write t cell v =
  poll t;
  t.overlap_credit <- 0;
  Machine.write t.machine ~proc:t.proc cell v

let fetch_and_store t cell v =
  poll t;
  let old = Machine.fetch_and_store t.machine ~proc:t.proc cell v in
  t.overlap_credit <- (config t).Config.atomic_overlap;
  old

let test_and_set t cell = fetch_and_store t cell 1

let compare_and_swap t cell ~expect ~set =
  poll t;
  let ok = Machine.compare_and_swap t.machine ~proc:t.proc cell ~expect ~set in
  t.overlap_credit <- (config t).Config.atomic_overlap;
  ok

(* Soft masking (Stodolsky et al.): the flag sits at the top of the lock
   hierarchy. Setting and clearing are local cached accesses. Clearing
   drains the deferred work queue, running each record as ordinary kernel
   code. *)

let set_soft_mask t =
  Machine.cpu_work t.machine 2;
  t.soft_masked <- true

let clear_soft_mask t =
  Machine.cpu_work t.machine 2;
  t.soft_masked <- false;
  (* Drain the deferred work. Each record runs in interrupt context so a
     fresh IPI cannot nest inside it and re-enter non-reentrant kernel state
     (e.g. the processor's lock queue node). *)
  while not (Queue.is_empty t.deferred) do
    let h = Queue.pop t.deferred in
    Machine.cpu_work t.machine 4 (* dequeue work record *);
    t.in_interrupt <- true;
    h t;
    t.in_interrupt <- false
  done;
  poll t

let with_soft_mask t f =
  set_soft_mask t;
  Fun.protect ~finally:(fun () -> clear_soft_mask t) f

(* IPI delivery: enqueue the handler and wake the target if it is idle.
   The transfer cost of the request message is charged by the sender (see
   Hkernel.Rpc); the dispatch cost is charged by the receiver in [poll]. *)
let post_ipi target h =
  Queue.push h target.inbox;
  Machine.wake target.machine ~proc:target.proc;
  match target.idle_wake with
  | None -> ()
  | Some wake ->
    target.idle_wake <- None;
    wake ()

(* -- Waits run as engine events -------------------------------------------

   A busy-wait iteration (poll, test, pause or read) does no simulated work
   of its own, so it need not run in the fiber. The fiber runs the first
   [poll] and suspends once; later iterations run as plain engine
   callbacks, allocated once per wait, which make every [Engine.schedule]
   call the fiber loop would make, at the same time and in the same order.
   The fiber is resumed only when it has to run: the wait is over, or
   [poll] would take an interrupt (the fiber takes it and re-enters the
   wait). Each resume is the last act of the event that calls it
   ({!Process.suspend_tail}), so the fiber's next sleep may run in place.
   A dead processor's wait just stops, leaving the fiber suspended
   for good — parked, as [halt_if_dead] would park it. *)

(* The chain keyed [gap] in [chains], if one was made. *)
let rec chain gap = function
  | (g, w) :: rest -> if g = gap then Some w else chain gap rest
  | [] -> None

(* This processor's chain of [gap]-cycle polls, made on first use: its
   poll waits share one chain per gap, so a wait allocates no chain of its
   own. The chain runs whichever tick [poll_tick] holds. *)
let poller t gap =
  match chain gap t.polls with
  | Some w -> w
  | None ->
    let w =
      Engine.wait ~owner:t.proc ~even_gap:gap ~odd_gap:gap
        ~fire:(fun _ -> t.poll_tick ())
        ~credit:ignore
    in
    t.polls <- (gap, w) :: t.polls;
    w

(* A read-then-compute chain's elements [!credited, j) have run: each odd
   one issued a read, each even one charged [cycles] instruction cycles. *)
let credit_chain t credited ~cycles j =
  let a = !credited in
  if j > a then begin
    Machine.credit_reads t.machine ((j / 2) - (a / 2));
    t.instr_cycles <-
      t.instr_cycles + (cycles * (((j + 1) / 2) - ((a + 1) / 2)));
    credited := j
  end

(* Free the shared chains if [tick]'s wait holds them. *)
let release t tick = if t.poll_tick == tick then t.poll_tick <- no_tick

(* The shared core of [interruptible_pause], [await] and [await_timeout]:
   [poll], then [step ()] gives the cycles to pause before the next poll,
   or 0 once the wait is over.

   The ticks are elided. A tick changes nothing: it reads the clock, the
   inbox, [alive] and [ivar], and re-schedules itself. [step ()] gives
   [gap] at every tick before [until] unless [ivar] has been filled, so
   the ticks from the next one on form a chain of [gap] steps
   ({!Engine.elide}) that only an IPI, the processor's death
   ({!Machine.wake}), a fill of [ivar] ({!Ivar.fill}) or its first tick at
   or after [until] can end; the engine materialises that one itself, and
   its real tick code sees the wait through. The wait holds the shared
   chain ([poll_tick]) from its suspension to its resumption, when the
   chain is idle; a wait that finds it held by another fiber's wait, or
   whose gap is wider than {!Engine.max_gap}, runs real ticks. *)
let poll_wait ?ivar ?until t ~gap step =
  let over = ref false and resume = ref ignore in
  let rec loop () =
    poll t;
    let d = step () in
    if d > 0 then begin
      Process.suspend_tail (engine t) (fun k ->
          resume := k;
          if t.poll_tick == no_tick && gap <= Engine.max_gap then
            t.poll_tick <- tick;
          pause d);
      release t tick;
      if not !over then loop ()
    end
  and pause d =
    let at = Machine.now t.machine + d in
    let elided =
      d = gap && t.poll_tick == tick
      &&
      let w = poller t gap in
      Machine.elide_wait ?until t.machine ~proc:t.proc w ~at
      &&
      (Option.iter (fun iv -> Ivar.watch iv w) ivar;
       true)
    in
    if not elided then Engine.schedule (engine t) ~at tick
  and tick () =
    if not (Machine.proc_alive t.machine t.proc) then release t tick
    else if interrupt_pending t then !resume ()
    else begin
      let d = step () in
      if d > 0 then pause d
      else begin
        over := true;
        !resume ()
      end
    end
  in
  loop ()

let positive fn what n =
  if n <= 0 then
    invalid_arg
      (Printf.sprintf "Ctx.%s: %s must be positive (got %d)" fn what n)

(* An interruptible pause: the processor is merely waiting (backoff,
   polling delay), so interrupts keep being taken at a fine grain. Plain
   [work] models committed computation, which interrupts only at its
   boundary; a waiting processor must use this instead, or a peer's RPC
   sits in the inbox for the whole pause — long enough to re-synchronise
   retry loops into livelock. *)
let interruptible_pause ?(granule = 32) t cycles =
  positive "interruptible_pause" "granule" granule;
  let deadline = Machine.now t.machine + cycles in
  (* A tick [granule] or more before the deadline pauses a whole granule. *)
  poll_wait ~until:(deadline - granule + 1) t ~gap:granule (fun () ->
      let remaining = deadline - Machine.now t.machine in
      if remaining <= 0 then 0
      else if granule < remaining then granule
      else remaining)

(* Spin on a reply while continuing to take interrupts: this is how a
   processor waits for an RPC to complete in an exception-based kernel — the
   processor is busy, but interrupts (and hence incoming RPCs) still get
   through, which matters for the cross-cluster deadlock scenarios. *)
let await ?(poll_interval = 16) t ivar =
  positive "await" "poll_interval" poll_interval;
  (* Waiting for a remote reply while soft-masked could deadlock: the reply
     may depend on a service this processor has deferred. The kernel never
     holds a coarse lock across an RPC, so this must not happen. *)
  assert (not t.soft_masked);
  poll_wait ~ivar t ~gap:poll_interval (fun () ->
      if Ivar.is_full ivar then 0 else poll_interval);
  match Ivar.peek ivar with Some v -> v | None -> assert false

(* [await] with a deadline: gives up once [timeout] cycles pass without the
   ivar filling. This is what lets an RPC caller detect a lost message and
   resend instead of spinning forever. *)
let await_timeout ?(poll_interval = 16) t ~timeout ivar =
  positive "await_timeout" "poll_interval" poll_interval;
  assert (not t.soft_masked);
  let deadline = Machine.now t.machine + timeout in
  poll_wait ~ivar ~until:deadline t ~gap:poll_interval (fun () ->
      if Ivar.is_full ivar || Machine.now t.machine >= deadline then 0
      else poll_interval);
  Ivar.peek ivar

(* A read-branch-test spin: [Ctx.read] + one branch per iteration while
   [keep v]. Two events per iteration, as in the fiber loop: the read's
   completion (take the value, charge the branch) and the branch's end
   (test, poll, issue the next read).

   A spin on this processor's own PMM, on an uncached machine with no fault
   plan and no deadline, is elided: its iterations reserve nothing, so only
   a write to the cell, an IPI or the processor's death can change what a
   later one does ([Machine.elide_wait] watches for those). The iterations
   become a virtual chain — element 2m is a read's completion, 2m+1 the
   branch's end — and [credit] accounts each one's read and branch cycles
   as it virtually runs. When the wait is materialised, its next element
   runs the real code below, which re-elides if the spin goes on. *)
let spin_while ?deadline t cell keep =
  let m = t.machine and eng = engine t in
  let cfg = config t in
  let b = cfg.Config.branch_cost in
  let v = ref 0 and over = ref false and resume = ref ignore in
  let elidable =
    deadline = None && (not cfg.Config.cache_coherent)
    && Cell.home cell = t.proc && b > 0
  in
  let credited = ref 0 and chain = ref None in
  let rec issue () =
    t.overlap_credit <- 0;
    let finish = Machine.read_start m ~proc:t.proc cell in
    if finish >= 0 then begin
      (* Until something wakes the wait, every read returns the value the
         cell holds now, so the chain is virtual only if [keep] holds for
         it. *)
      let x = Cell.peek cell in
      if elidable && keep x
         && Machine.elide_wait m ~cell ~proc:t.proc (wait ()) ~at:finish
      then begin
        v := x;
        credited := 0
      end
      else Engine.schedule eng ~at:finish missed
    end
    else if cfg.Config.cache_hit > 0 then
      Engine.schedule_after eng ~delay:cfg.Config.cache_hit hit
    else hit ()
  and missed () = completed (Machine.read_finish m ~proc:t.proc cell)
  and hit () = completed (Cell.peek cell)
  and completed x =
    if Machine.proc_alive m t.proc then begin
      v := x;
      let cost = charge t b in
      if cost > 0 then Engine.schedule_after eng ~delay:cost branch
      else branch ()
    end
  and branch () =
    let expired =
      match deadline with Some d -> Machine.now m >= d | None -> false
    in
    if expired || not (keep !v) then begin
      over := true;
      !resume ()
    end
    else if not (Machine.proc_alive m t.proc) then ()
    else if interrupt_pending t then !resume ()
    else issue ()
  (* The chain, made on first elision. A function, not a [lazy], so the
     group is plain closures and a spin builds it without back-patching. *)
  and wait () =
    match !chain with
    | Some w -> w
    | None ->
      let w =
        Engine.wait ~owner:t.proc ~even_gap:b
          ~odd_gap:cfg.Config.local_latency
          ~fire:(fun j -> if j land 1 = 0 then missed () else branch ())
          ~credit:(credit_chain t credited ~cycles:b)
      in
      chain := Some w;
      w
  in
  let rec loop () =
    poll t;
    Process.suspend_tail eng (fun k ->
        resume := k;
        issue ());
    if !over then !v else loop ()
  in
  loop ()

(* This processor's chain of local reads [work] cycles apart, made on
   first use, as [poller] makes its poll chains. Its element 2m is a read's
   completion, 2m+1 the end of the work after it; firing one resumes the
   pad that holds the chain at that element. *)
let padder t work =
  match chain work t.pads with
  | Some w -> w
  | None ->
    let w =
      Engine.wait ~owner:t.proc ~even_gap:work
        ~odd_gap:(config t).Config.local_latency
        ~fire:(fun j ->
          let resume = t.pad_resume in
          t.pad_resume <- ignore;
          t.pad_at <- j;
          resume ())
        ~credit:(credit_chain t t.pad_credited ~cycles:work)
    in
    t.pads <- (work, w) :: t.pads;
    w

(* Padding: [read t cell; work t w] while fewer than [iters] iterations
   have run and [now t] is before [deadline]; returns the number run.

   On this processor's own PMM, on an uncached machine with no fault plan,
   a read reserves nothing and takes exactly [local_latency], and nothing
   reads the value, so after the first read the iterations are a fixed
   chain ({!Engine.elide}): element 0 is that read's completion, then
   alternately [w] and [local_latency] cycles apart, and its last element
   is the last iteration's work end ([until]). Only an IPI (taken at the
   next read's poll) or the processor's death ({!Machine.wake}) can change
   what an iteration does before then. Whichever element ends the chain
   resumes the fiber there, and the fiber runs the loop's code from it: the
   work after a read's completion, or the test and next read after a work
   end. A fault plan installed meanwhile wakes the chain, and its next
   read runs as an event. *)
let local_pad t cell ~work:w ~iters ~deadline =
  let m = t.machine and cfg = config t in
  let pad =
    if cfg.Config.cache_coherent || Cell.home cell <> t.proc || w <= 0
       || w > Engine.max_gap || cfg.Config.local_latency > Engine.max_gap
    then None
    else Some (padder t w)
  in
  let period = w + cfg.Config.local_latency in
  let rec loop k =
    if k >= iters || now t >= deadline then k
    else
      match pad with
      | None ->
        ignore (read t cell);
        work t w;
        loop (k + 1)
      | Some pad ->
        poll t;
        t.overlap_credit <- 0;
        let at = Machine.read_start m ~proc:t.proc cell in
        (* The chain's last element: the work end of iteration [k + last],
           the first after which the loop stops. *)
        let last =
          let d = deadline - at - w in
          Int.min (iters - k - 1) (if d <= 0 then 0 else ((d - 1) / period) + 1)
        in
        let until = at + w + (last * period) in
        let elided = ref false in
        Process.suspend_tail (engine t) (fun resume ->
            if
              Option.is_none (Machine.fault_plan m)
              && Machine.elide_wait ~until m ~proc:t.proc pad ~at
            then begin
              (* Set only now: a handler taken in the [poll] above may
                 have padded with this chain. *)
              t.pad_resume <- resume;
              t.pad_credited := 0;
              elided := true
            end
            else Engine.schedule (engine t) ~at resume);
        let j = if !elided then t.pad_at else 0 in
        if j land 1 = 0 then begin
          work t w;
          loop (k + (j / 2) + 1)
        end
        else loop (k + ((j + 1) / 2))
  in
  loop 0

(* Fault-injection point: code that wants to be subject to injected
   lock-holder stalls (e.g. a workload's critical section) calls this at
   the spot where a preemption would hurt. With no plan installed it is a
   single host-side branch — no draws, no simulated cycles — so paper
   workloads, which never call it anyway, are untouched. A drawn stall is
   an interruptible pause: the preempted holder's processor keeps serving
   interrupts (the preemptor runs with interrupts enabled). *)
let fault_point t ~site =
  match Machine.fault_plan t.machine with
  | None -> ()
  | Some plan ->
    (* The crash question comes first (and costs no draw when
       [crash_rate = 0.0], keeping crash-free plans bit-identical).
       Workloads place fault points inside their critical sections, so a
       positive rate kills lock holders mid-section — the case recovery
       exists for. The kill parks this very fiber on the spot. *)
    if Fault.draw_crash plan then begin
      Machine.kill_proc t.machine t.proc;
      halt_if_dead t
    end
    else begin
      match Fault.draw_stall plan ~site ~now:(Machine.now t.machine) with
      | None -> ()
      | Some cycles -> interruptible_pause t cycles
    end

(* Idle loop for processors with no workload of their own: sleep until an
   IPI arrives, serve it, repeat. The suspension keeps the event heap empty
   while idle, so simulations terminate when all real work is done. *)
let idle_loop t =
  let rec loop () =
    if Queue.is_empty t.inbox then
      Process.suspend (fun resume -> t.idle_wake <- Some resume);
    poll t;
    loop ()
  in
  loop ()
