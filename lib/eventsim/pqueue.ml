(* Binary min-heap of timestamped events, flattened to structure-of-arrays.

   Events are ordered by (time, seq): the sequence number breaks ties so that
   events scheduled for the same instant run in FIFO order, which keeps every
   simulation deterministic.

   The heap stores its three columns in parallel arrays ([times], [seqs],
   [payloads]) instead of an array of records, so comparisons read unboxed
   ints. [push] and [pop_payload] sift a hole rather than swapping entries:
   the moving entry is held in locals, each level copies one parent (or
   child) into the hole, and the entry is written once at its final slot.
   Both are plain loops with no local closures, so the hot path ([push] /
   [min_time] / [pop_payload]) allocates nothing but the occasional capacity
   doubling; [test/test_pqueue.ml] pins that at zero minor words. The
   record-returning [peek] / [pop] / [drain] views are kept for tests and
   casual callers. *)

type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable len : int;
}

let create () = { times = [||]; seqs = [||]; payloads = [||]; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t payload =
  let cap = Array.length t.times in
  if t.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let times = Array.make ncap 0 in
    let seqs = Array.make ncap 0 in
    (* Fresh payload slots are filled with [payload]; it is about to be
       stored at [t.len] anyway, so no foreign value is retained. *)
    let payloads = Array.make ncap payload in
    Array.blit t.times 0 times 0 t.len;
    Array.blit t.seqs 0 seqs 0 t.len;
    Array.blit t.payloads 0 payloads 0 t.len;
    t.times <- times;
    t.seqs <- seqs;
    t.payloads <- payloads
  end

let push t ~time ~seq payload =
  grow t payload;
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  (* Move the hole up from the new last slot while the parent sorts after
     the new entry. *)
  let i = ref t.len in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let tp = times.(parent) in
    if time < tp || (time = tp && seq < seqs.(parent)) then begin
      times.(!i) <- tp;
      seqs.(!i) <- seqs.(parent);
      payloads.(!i) <- payloads.(parent);
      i := parent
    end
    else moving := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  payloads.(!i) <- payload;
  t.len <- t.len + 1

let peek t =
  if t.len = 0 then None
  else Some { time = t.times.(0); seq = t.seqs.(0); payload = t.payloads.(0) }

let peek_time t = if t.len = 0 then None else Some t.times.(0)

(* Allocation-free view of the earliest timestamp: [max_int] when empty, so
   the engine's run loop can compare against a limit without an option. *)
let min_time t = if t.len = 0 then max_int else t.times.(0)

(* Remove the root, returning only its payload. The last entry is taken
   into locals and the hole walks down from the root towards the smaller
   child until the entry fits. The vacated last slot is overwritten with a
   live payload so popped closures are not retained by the heap (at most one
   stale payload survives in slot 0 when the heap drains completely). *)
let pop_payload t =
  if t.len = 0 then invalid_arg "Pqueue.pop_payload: empty";
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  let top = payloads.(0) in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    let time = times.(n) and seq = seqs.(n) and payload = payloads.(n) in
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
          payloads.(!i) <- payloads.(c);
          i := c
        end
        else moving := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    payloads.(!i) <- payload;
    (* Drop the moved entry's old slot so the heap keeps no extra
       reference. *)
    payloads.(n) <- payloads.(0)
  end;
  top

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) and seq = t.seqs.(0) in
    let payload = pop_payload t in
    Some { time; seq; payload }
  end

let clear t =
  (* Release payload references beyond slot 0 (see [pop_payload]). *)
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
