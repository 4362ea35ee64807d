(* Binary min-heap of timestamped events, flattened to structure-of-arrays.

   Events are ordered by (time, seq): the sequence number breaks ties so that
   events scheduled for the same instant run in FIFO order, which keeps every
   simulation deterministic.

   The heap keeps three int columns in heap order ([times], [seqs],
   [slots]). Payloads do not move: each one lives in a slot table
   ([payloads]) at the slot id its heap entry names, so the sift loops read
   and write unboxed ints only and never hit the write barrier. [push]
   takes a free slot, stores the payload there (the one boxed write), and
   sifts a hole up; [pop_payload] reads the root's payload, overwrites its
   table entry with the filler, frees the slot and sifts a hole down. In
   both, the moving entry is held in locals, each level copies one parent
   (or child) into the hole, and the entry is written once at its final
   position.

   The free slots are an int stack kept in the tail of [slots]: positions
   [0, len) hold the heap's slot ids and [len, capacity) the free ones, so
   [push] takes [slots.(len)] and [pop_payload] puts the freed id back
   there once [len] has dropped. Slot ids run from 1; [payloads.(0)] holds
   the filler, the first payload ever pushed, which every free table entry
   points at. So popped payloads are never retained beyond that one value.

   Both hot operations are plain loops with no local closures, so the hot
   path ([push] / [min_time] / [pop_payload]) allocates nothing but the
   occasional capacity doubling; [test/test_pqueue.ml] pins that at zero
   minor words. The record-returning [peek] / [pop] / [drain] views are kept
   for tests and casual callers. *)

type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : 'a array;
  mutable len : int;
}

let create () =
  { times = [||]; seqs = [||]; slots = [||]; payloads = [||]; len = 0 }

let[@inline] length t = t.len
let[@inline] is_empty t = t.len = 0

let grow t payload =
  let cap = Array.length t.times in
  if t.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let times = Array.make ncap 0 in
    let seqs = Array.make ncap 0 in
    let slots = Array.make ncap 0 in
    (* The first push picks the filler; later doublings keep it. *)
    let filler = if cap = 0 then payload else t.payloads.(0) in
    let payloads = Array.make (ncap + 1) filler in
    Array.blit t.times 0 times 0 cap;
    Array.blit t.seqs 0 seqs 0 cap;
    Array.blit t.slots 0 slots 0 cap;
    Array.blit t.payloads 0 payloads 0 (Array.length t.payloads);
    (* The heap is full, so slots 1..cap are all taken; the new ones form
       the free stack. *)
    for i = cap to ncap - 1 do
      slots.(i) <- i + 1
    done;
    t.times <- times;
    t.seqs <- seqs;
    t.slots <- slots;
    t.payloads <- payloads
  end

let push t ~time ~seq payload =
  grow t payload;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = slots.(t.len) in
  t.payloads.(slot) <- payload;
  (* Move the hole up from the new last position while the parent sorts
     after the new entry. *)
  let i = ref t.len in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let tp = times.(parent) in
    if time < tp || (time = tp && seq < seqs.(parent)) then begin
      times.(!i) <- tp;
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else moving := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot;
  t.len <- t.len + 1

let peek t =
  if t.len = 0 then None
  else
    Some
      {
        time = t.times.(0);
        seq = t.seqs.(0);
        payload = t.payloads.(t.slots.(0));
      }

let peek_time t = if t.len = 0 then None else Some t.times.(0)

(* Allocation-free view of the earliest timestamp: [max_int] when empty, so
   the engine's run loop can compare against a limit without an option.
   Inlined into the engine's dispatch, as [min_seq] is. *)
let[@inline] min_time t = if t.len = 0 then max_int else t.times.(0)

let[@inline] min_seq t = if t.len = 0 then max_int else t.seqs.(0)

(* Remove the root, returning only its payload. The root's table entry is
   overwritten with the filler and its slot goes back on the free stack.
   The last entry is taken into locals and the hole walks down from the
   root towards the smaller child until the entry fits. *)
let pop_payload t =
  if t.len = 0 then invalid_arg "Pqueue.pop_payload: empty";
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let payloads = t.payloads in
  let freed = slots.(0) in
  let top = payloads.(freed) in
  payloads.(freed) <- payloads.(0);
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    let time = times.(n) and seq = seqs.(n) and slot = slots.(n) in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        (* [c] is the smaller child by (time, seq). *)
        let r = l + 1 in
        let c =
          if r < n then begin
            let tl = times.(l) and tr = times.(r) in
            if tr < tl || (tr = tl && seqs.(r) < seqs.(l)) then r else l
          end
          else l
        in
        let tc = times.(c) in
        if tc < time || (tc = time && seqs.(c) < seq) then begin
          times.(!i) <- tc;
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else moving := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    slots.(!i) <- slot
  end;
  slots.(n) <- freed;
  top

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) and seq = t.seqs.(0) in
    let payload = pop_payload t in
    Some { time; seq; payload }
  end

let clear t =
  (* Point every table entry back at the filler; [slots] stays a
     permutation of the slot ids, all of them now free. *)
  if Array.length t.payloads > 0 then
    Array.fill t.payloads 1 (Array.length t.payloads - 1) t.payloads.(0);
  t.len <- 0

(* Pop all entries in order; used by tests. *)
let drain t =
  let rec go acc =
    match pop t with
    | None -> List.rev acc
    | Some e -> go (e :: acc)
  in
  go []
