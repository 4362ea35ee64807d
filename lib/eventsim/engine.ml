(* Discrete-event engine.

   The engine owns the virtual clock and an event heap of thunks. Simulated
   code never blocks the OCaml runtime: anything that must wait re-schedules
   itself (see {!Process}). Time is measured in integer machine cycles.

   Dispatch is allocation-free: [dispatch], shared by [step] and [run], reads
   the earliest timestamp with [Pqueue.min_time] (an int, [max_int] when
   drained) and takes the thunk with [Pqueue.pop_payload], so sustained runs
   cost the heap sift plus the thunk itself and nothing else. *)

exception Deadlock of string

type t = {
  mutable now : int;
  mutable seq : int;
  events : (unit -> unit) Pqueue.t;
  mutable executed : int;
  mutable max_events : int; (* safety valve against runaway simulations *)
}

let create ?(max_events = 200_000_000) () =
  { now = 0; seq = 0; events = Pqueue.create (); executed = 0; max_events }

let now t = t.now

let events_executed t = t.executed

let schedule t ~at f =
  if at < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%d is in the past (now=%d)" at t.now);
  let seq = t.seq in
  t.seq <- seq + 1;
  Pqueue.push t.events ~time:at ~seq f

let schedule_after t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(t.now + delay) f

let pending t = Pqueue.length t.events

(* Run the earliest event: advance the clock to its time, count it, call it.
   The caller has checked that the heap is not empty. Inlined, so [run]'s
   loop pays no extra call per event. *)
let[@inline] dispatch t =
  let time = Pqueue.min_time t.events in
  let f = Pqueue.pop_payload t.events in
  t.now <- time;
  t.executed <- t.executed + 1;
  f ()

let step t =
  if Pqueue.is_empty t.events then false
  else begin
    dispatch t;
    true
  end

let budget_exhausted t =
  raise
    (Deadlock
       (Printf.sprintf "event budget exhausted (%d events executed)"
          t.max_events))

let run ?until t =
  (* [Pqueue.min_time] reads the earliest timestamp as a bare int, so the
     loop condition is two comparisons and allocates nothing. *)
  let limit = match until with None -> max_int | Some l -> l in
  if t.executed > t.max_events then budget_exhausted t;
  while (not (Pqueue.is_empty t.events)) && Pqueue.min_time t.events <= limit do
    dispatch t;
    if t.executed > t.max_events then budget_exhausted t
  done;
  match until with
  | Some limit when t.now < limit && Pqueue.is_empty t.events -> t.now <- limit
  | _ -> ()
