(* One-shot synchronisation variable.

   Used for RPC replies: the caller reads (suspending if empty), the handler
   fills. Filling wakes all readers at the current virtual time, and
   materialises the elided waits of processors polling it. *)

type 'a state =
  | Empty of (unit -> unit) list (* waiting resume thunks, newest first *)
  | Full of 'a

type 'a t = {
  mutable state : 'a state;
  mutable pollers : Engine.wait list;
}

exception Already_filled

let create () = { state = Empty []; pollers = [] }

let is_full t =
  match t.state with
  | Full _ -> true
  | Empty _ -> false

let peek t =
  match t.state with
  | Full v -> Some v
  | Empty _ -> None

let watch t w =
  if not (List.memq w t.pollers) then t.pollers <- w :: t.pollers

let fill eng t v =
  match t.state with
  | Full _ -> raise Already_filled
  | Empty waiters ->
    t.state <- Full v;
    (* Materialise the pollers here, not from a scheduled event: that
       event would run after this dispatch's own, and a poll due between
       the two would miss the fill. *)
    List.iter (Engine.materialise eng) t.pollers;
    t.pollers <- [];
    (* Wake in arrival order: the list is newest-first. *)
    List.iter
      (fun resume -> Engine.schedule eng ~at:(Engine.now eng) resume)
      (List.rev waiters)

let read t =
  match t.state with
  | Full v -> v
  | Empty _ ->
    Process.suspend (fun resume ->
        match t.state with
        | Full _ ->
          (* Filled between the check and the suspension (cannot happen in a
             single-threaded engine, but be safe). *)
          resume ()
        | Empty waiters -> t.state <- Empty (resume :: waiters));
    (match t.state with
    | Full v -> v
    | Empty _ -> assert false)
