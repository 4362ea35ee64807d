(* Barrier for workload phases.

   Implemented at the engine level (ivar per generation) so that barrier
   synchronisation itself contributes almost nothing to the measured kernel
   costs — the paper measures page-fault response times, not barrier
   traffic. Waiting processors keep taking interrupts (Ctx.await), which is
   essential: the shared-fault test barriers while other clusters may still
   be sending demote RPCs. *)

open Eventsim
open Hector

type t = {
  parties : int;
  mutable arrived : int;
  mutable generation : unit Ivar.t;
}

let create ~parties =
  if parties <= 0 then invalid_arg "Barrier.create: parties must be positive";
  { parties; arrived = 0; generation = Ivar.create () }

let wait t ctx =
  (* A couple of cycles for the arrival bookkeeping. *)
  Ctx.work ctx 4;
  t.arrived <- t.arrived + 1;
  if t.arrived = t.parties then begin
    let gen = t.generation in
    t.arrived <- 0;
    t.generation <- Ivar.create ();
    Ivar.fill (Ctx.engine ctx) gen ()
  end
  else begin
    let gen = t.generation in
    Ctx.await ctx gen
  end
