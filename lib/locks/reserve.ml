(* Reserve bits: the fine-grained half of the hybrid locking strategy.

   A reserve bit lives in a status word co-located with the element it
   protects. It is set and cleared with plain loads and stores — no atomic
   operations — because every modification happens under the protection of
   the structure's coarse-grained lock (clearing is a single store and may
   happen outside the lock). Waiters release the coarse lock and spin on the
   status word with exponential backoff, re-acquiring the coarse lock once
   the bit clears (Figure 1b).

   The word doubles as a reader-writer reserve: bit 0 is the exclusive
   (write) reservation; the remaining bits count read reservations. Which
   mode applies depends on the data the bit protects (Section 2.3).

   Why [clear] can be a single store of 0, even outside the coarse lock:
   [try_reserve] succeeds only when the word is entirely free (no writer,
   no readers) and [try_reserve_read] refuses while the write bit is set —
   both under the coarse lock. So from the moment a write reservation is
   taken until it is cleared, the word's value is exactly [write_bit]: no
   reader increment can interleave, and storing 0 loses nothing. A
   read-modify-write here would not be any safer — it would just re-read a
   value the protocol already pins — and the paper's protocol ("clearing is
   a single store") relies on the store being cheap enough to do from
   interrupt level. *)

open Hector

let write_bit = 1
let reader_one = 2

let default_cls = Verify.lock_class "reserve"

(* All operations below assume the caller holds the coarse lock, except
   [clear_*] and [spin_until_clear*]. *)

let is_reserved ctx status =
  let v = Ctx.read ctx status in
  Ctx.instr ctx ~br:1 ();
  v land write_bit <> 0

(* [known] is the status value the caller just read (the status word is
   co-located with the key it examined during the search), saving the
   re-read. *)
let try_reserve ?known ?(cls = default_cls) ctx status =
  let v =
    match known with
    | Some v -> v
    | None -> Ctx.read ctx status
  in
  Ctx.instr ctx ~br:1 ();
  if v land write_bit <> 0 || v >= reader_one then false
  else begin
    Ctx.write ctx status (v lor write_bit);
    if Ctx.hooked ctx then
      Ctx.emit ctx
        (Verify.Reserve_set
           { cls; word = Cell.id status; label = Cell.label status });
    true
  end

let clear ctx status =
  Ctx.write ctx status 0;
  if Ctx.hooked ctx then
    Ctx.emit ctx (Verify.Reserve_clear { word = Cell.id status })

(* Crash repair: clear a write reservation abandoned by a fail-stopped
   holder. The abandoned reservation pins the word at [write_bit] (the
   same argument that makes [clear] a single store), so the sweep is that
   same store, issued on the corpse's behalf by whoever detects it. The
   installed checker sees the foreign clear but waives it because the
   recorded owner is dead. Returns [false] — touching no simulated memory
   beyond one probe load — when [dead] is still alive or the bit is not
   set, so callers can speculatively sweep every reservation they track. *)
let clear_orphan ?(cls = default_cls) ctx status ~dead =
  if dead < 0 || Machine.proc_alive (Ctx.machine ctx) dead then false
  else begin
    let v = Ctx.read ctx status in
    Ctx.instr ctx ~br:1 ();
    if v land write_bit = 0 then false
    else begin
      clear ctx status;
      if Ctx.hooked ctx then
        Ctx.emit ctx
          (Verify.Recovered { cls; dead; latency = Ctx.since_kill ctx dead });
      true
    end
  end

let try_reserve_read ?(cls = default_cls) ctx status =
  let v = Ctx.read ctx status in
  Ctx.instr ctx ~br:1 ();
  if v land write_bit <> 0 then false
  else begin
    Ctx.write ctx status (v + reader_one);
    if Ctx.hooked ctx then
      Ctx.emit ctx
        (Verify.Reserve_read_set
           { cls; word = Cell.id status; label = Cell.label status });
    true
  end

let clear_read ctx status =
  let v = Ctx.read ctx status in
  Ctx.instr ctx ~br:1 ();
  assert (v >= reader_one);
  Ctx.write ctx status (v - reader_one);
  if Ctx.hooked ctx then
    Ctx.emit ctx (Verify.Reserve_read_clear { word = Cell.id status })

let readers status = Cell.peek status / reader_one
let write_reserved status = Cell.peek status land write_bit <> 0

(* Both spins below report the same wait. *)
let wait_begins ~cls ctx status =
  if Ctx.hooked ctx then
    Ctx.emit ctx
      (Verify.Reserve_wait
         {
           cls;
           word = Cell.id status;
           label = Cell.label status;
           in_interrupt = Ctx.in_interrupt ctx;
         })

(* Spin (with exponential backoff) until the exclusive bit clears. Called
   without the coarse lock held; the caller re-acquires the coarse lock and
   re-searches afterwards. *)
let spin_until_clear ?(cls = default_cls) ctx backoff status =
  wait_begins ~cls ctx status;
  let rec loop delay =
    let v = Ctx.read ctx status in
    Ctx.instr ctx ~br:1 ();
    if v land write_bit <> 0 then begin
      Backoff.delay_on ctx backoff delay;
      loop (Backoff.next backoff delay)
    end
  in
  loop (Backoff.initial backoff);
  if Ctx.hooked ctx then Ctx.emit ctx Verify.Reserve_wait_done

(* Bounded spin: gives up once [timeout] cycles pass with the bit still
   set, returning false so the caller can re-search — reserve another
   element, say — instead of waiting out a stalled holder. A zero or
   negative timeout is an already-expired deadline: fail immediately,
   before the wait hooks and before any memory traffic, so the edge case
   has no side effects at all. *)
let spin_until_clear_timeout ?(cls = default_cls) ctx backoff status ~timeout =
  if timeout <= 0 then false
  else begin
  wait_begins ~cls ctx status;
  let deadline = Ctx.now ctx + timeout in
  let rec loop delay =
    let v = Ctx.read ctx status in
    Ctx.instr ctx ~br:1 ();
    if v land write_bit = 0 then true
    else if Ctx.now ctx >= deadline then false
    else begin
      Backoff.delay_on ctx backoff delay;
      loop (Backoff.next backoff delay)
    end
  in
  let ok = loop (Backoff.initial backoff) in
  if Ctx.hooked ctx then Ctx.emit ctx Verify.Reserve_wait_done;
  ok
  end
