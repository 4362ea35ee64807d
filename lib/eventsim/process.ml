(* Simulated processes as effect-based coroutines.

   A process is a plain OCaml function run under a deep effect handler. When
   it needs to let virtual time pass, it performs [Suspend reg]: the handler
   captures the continuation, wraps it in a resume thunk and hands it to
   [reg], which decides when (or whether) to schedule it. Ivars and
   resources build on that primitive.

   [pause] and [wait_until] sleep: the fiber's wake is an event at a known
   time. When the engine can prove that event is the next dispatch
   ({!Engine.sleep_in_place}), it makes that dispatch's bookkeeping at once
   and the fiber runs on without suspending. Otherwise the fiber performs
   [Sleep]; its wake tells the engine that the fiber it resumes alone holds
   the dispatch, which is what lets that fiber's next sleep run in place.
   Every other resume tells it the opposite. *)

open Effect
open Effect.Deep

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Sleep : Engine.t * int -> unit Effect.t

let suspend reg = perform (Suspend reg)

let sleep eng at =
  if not (Engine.sleep_in_place eng at) then perform (Sleep (eng, at))

let wait_until eng time =
  if time < Engine.now eng then
    invalid_arg "Process.wait_until: time is in the past";
  sleep eng time

let pause eng cycles =
  if cycles < 0 then invalid_arg "Process.pause: negative duration";
  if cycles > 0 then sleep eng (Engine.now eng + cycles)

let yield eng = suspend (fun resume -> Engine.schedule_after eng ~delay:0 resume)

let run_fiber eng f =
  match_with f ()
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type c) (eff : c Effect.t) ->
          match eff with
          | Suspend reg ->
            Some
              (fun (k : (c, unit) continuation) ->
                reg (fun () ->
                    Engine.resumed_other eng;
                    continue k ()))
          | Sleep (e, at) ->
            Some
              (fun (k : (c, unit) continuation) ->
                Engine.schedule e ~at (fun () ->
                    Engine.resumed_sleeper e;
                    continue k ()))
          | _ -> None);
    }

let spawn_at eng ~at f = Engine.schedule eng ~at (fun () -> run_fiber eng f)

let spawn eng f = spawn_at eng ~at:(Engine.now eng) f
