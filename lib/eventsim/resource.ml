(* FIFO server resource.

   A resource models a component that serves one request at a time (a memory
   module, a station bus, the ring). [reserve ~now ~service] books a slot
   starting at [max now next_free] and holds the resource for [service]
   cycles. Callers book ahead: [Machine.access_finish_time] reserves every
   stage of an access's path when the access is issued, each at its
   computed arrival time there (the previous stage's finish). So service
   is FIFO in issue order, not arrival order, and not work-conserving: a
   request issued later but arriving at a stage earlier still queues
   behind every slot already booked, and an idle gap before a booked slot
   is never back-filled. This queueing is what produces the paper's
   second-order contention effects.

   The resource also keeps utilisation counters so experiments can report
   where time was lost. *)

type t = {
  name : string;
  mutable next_free : int;
  mutable busy_cycles : int;
  mutable queued_cycles : int; (* total time requests spent waiting *)
  mutable n_requests : int;
}

let create name =
  { name; next_free = 0; busy_cycles = 0; queued_cycles = 0; n_requests = 0 }

let name t = t.name

let reserve t ~now ~service =
  if service < 0 then invalid_arg "Resource.reserve: negative service";
  let start = Int.max now t.next_free in
  let finish = start + service in
  t.next_free <- finish;
  t.busy_cycles <- t.busy_cycles + service;
  t.queued_cycles <- t.queued_cycles + (start - now);
  t.n_requests <- t.n_requests + 1;
  finish

let next_free t = t.next_free

let busy_cycles t = t.busy_cycles
let queued_cycles t = t.queued_cycles
let n_requests t = t.n_requests

let utilization t ~horizon =
  if horizon <= 0 then 0.0
  else float_of_int t.busy_cycles /. float_of_int horizon

let pp ppf t =
  Format.fprintf ppf "%s: %d reqs, busy %d cyc, queued %d cyc" t.name
    t.n_requests t.busy_cycles t.queued_cycles
