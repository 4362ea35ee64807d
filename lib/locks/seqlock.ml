(* Sequence lock (see seqlock.mli for the protocol).

   The sequence word is the only simulated state. Writers are serialised by
   an external lock, so the writer side keeps a host-side shadow of the
   last value stored and pays exactly one timed store per transition;
   readers pay one timed load per sample. Validation outcomes are counted
   host-side and reported through the same hook sites as every other lock,
   at zero simulated cost. *)

open Hector

type t = {
  seq : Cell.t;
  mutable shadow : int; (* last value stored; valid under the writer lock *)
  mutable writer : int; (* proc inside a write section, -1 otherwise *)
  mutable writes : int;
  mutable repairs : int;
  mutable read_hits : int;
  mutable read_aborts : int;
  vcls : Verify.lock_class;
  vid : int;
}

let create machine ?(home = 0) ?(vclass = "seqlock") () =
  {
    seq = Machine.alloc machine ~label:vclass ~home 0;
    shadow = 0;
    writer = -1;
    writes = 0;
    repairs = 0;
    read_hits = 0;
    read_aborts = 0;
    vcls = Verify.lock_class vclass;
    vid = Machine.fresh_lock_id machine;
  }

let peek t = Cell.peek t.seq
let write_in_progress t = Cell.peek t.seq land 1 <> 0
let writes t = t.writes
let repairs t = t.repairs
let read_hits t = t.read_hits
let read_aborts t = t.read_aborts
let vclass t = t.vcls

let write_begin t ctx =
  (* The shard lock serialises writers, so [shadow] is the word's current
     value: no read-modify-write needed, just the store (the same argument
     that lets [Reserve.clear] be a single store). *)
  assert (t.shadow land 1 = 0);
  t.writer <- Ctx.proc ctx;
  t.shadow <- t.shadow + 1;
  Ctx.write ctx t.seq t.shadow

let write_end t ctx =
  assert (t.shadow land 1 = 1);
  t.writer <- -1;
  t.shadow <- t.shadow + 1;
  t.writes <- t.writes + 1;
  Ctx.write ctx t.seq t.shadow

(* A writer that fail-stopped between [write_begin] and [write_end] leaves
   the sequence word odd forever, so every optimistic reader falls back to
   the locked path. Roll the sequence forward to even on the corpse's
   behalf: one timed store from the recoverer. Safe because the corpse
   still "holds" the external writer lock while its shard is repaired, so
   no live writer can be inside. *)
let recover_write t ctx =
  if
    t.shadow land 1 = 1
    && t.writer >= 0
    && not (Machine.proc_alive (Ctx.machine ctx) t.writer)
  then begin
    (* Not [write_end]: a repair rolls the sequence forward but is not a
       completed write, so [writes] must not move — CRASH-STORM repair
       rows would otherwise overstate write throughput. *)
    assert (t.shadow land 1 = 1);
    t.writer <- -1;
    t.shadow <- t.shadow + 1;
    t.repairs <- t.repairs + 1;
    Ctx.write ctx t.seq t.shadow;
    true
  end
  else false

let with_write t ctx f =
  write_begin t ctx;
  Fun.protect ~finally:(fun () -> write_end t ctx) f

let read_begin t ctx =
  let v = Ctx.read ctx t.seq in
  Ctx.instr ctx ~br:1 ();
  if v land 1 = 0 then v
  else begin
    t.read_aborts <- t.read_aborts + 1;
    if Ctx.hooked ctx then Ctx.emit ctx (Verify.Optimistic_abort t.vcls);
    -1
  end

let read_validate t ctx seq =
  let v = Ctx.read ctx t.seq in
  Ctx.instr ctx ~br:1 ();
  if v = seq then begin
    t.read_hits <- t.read_hits + 1;
    (* A zero-length try-acquire/release pair: the read shows up in the
       contention profile under the seqlock's class but adds no lock-order
       edges (it never blocks). *)
    if Ctx.hooked ctx then begin
      Ctx.emit ctx (Verify.Try_acquired (t.vcls, t.vid));
      Ctx.emit ctx (Verify.Released (t.vcls, t.vid))
    end;
    true
  end
  else begin
    t.read_aborts <- t.read_aborts + 1;
    if Ctx.hooked ctx then Ctx.emit ctx (Verify.Optimistic_abort t.vcls);
    false
  end
