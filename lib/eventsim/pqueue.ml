(* Binary min-heap of timestamped events, flattened to structure-of-arrays,
   with an in-order lane beside it.

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

   The lane. A caller that schedules a long plan in time order before
   running it (the SLO stream's 4 000 arrivals) would otherwise make every
   later sift walk a heap thousands of entries deep. So once the heap holds
   [lane_min] entries, a push whose (time, seq) sorts after the lane's last
   entry is appended to the lane instead: a FIFO ring of [ltimes] /
   [lseqs] / [lpays] columns, kept sorted by construction, with no sift.
   Every other push goes to the heap as before. [min_time], [min_seq] and
   [pop_payload] take the smaller of the heap root and the lane head by
   (time, seq), so the pop order is the same total order as a heap alone
   would give. A popped lane entry is overwritten with the heap's filler,
   which exists by then because the lane opens only after the heap has
   grown. When the lane is empty, each of them runs the heap code in place
   after one predictable branch.

   [lane_min] is a size the code observes, not an option. Sending every
   in-order push to the lane (about half of [fault_sweep]'s pushes, into a
   heap under 5 entries deep) made [fault_sweep]'s run about 3% slower
   (perfbench, 2 of 8 pairs won), and putting the heap code behind an extra
   call per operation about 5% slower; with the threshold, no
   [fault_sweep] or [numa_handoff] push reaches the lane, and about 12 000
   of [slo_stream]'s 124 000 pushes per pass do (every arrival past the
   first 32 of a cell).

   The hot operations are plain loops with no local closures, so the hot
   path ([push] / [min_time] / [pop_payload]) allocates nothing but the
   occasional capacity doubling of the heap or the lane;
   [test/test_pqueue.ml] pins that at zero minor words. The
   record-returning [peek] / [pop] / [drain] views are kept for tests and
   casual callers. *)

type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : 'a array;
  mutable len : int;
  (* The lane: a ring of [Array.length ltimes] (a power of two) entries,
     [llen] of them live from [lhead] on. *)
  mutable ltimes : int array;
  mutable lseqs : int array;
  mutable lpays : 'a array;
  mutable lhead : int;
  mutable llen : int;
}

(* The heap depth from which in-order pushes go to the lane. *)
let lane_min = 32

let create () =
  { times = [||]; seqs = [||]; slots = [||]; payloads = [||]; len = 0;
    ltimes = [||]; lseqs = [||]; lpays = [||]; lhead = 0; llen = 0 }

let[@inline] length t = t.len + t.llen
let[@inline] is_empty t = t.len = 0 && t.llen = 0
let lane_length t = t.llen

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

(* The lane is non-empty: does its head sort before the heap root? *)
let[@inline] lane_first t =
  t.len = 0
  ||
  let h = t.lhead in
  let lt = t.ltimes.(h) and ht = t.times.(0) in
  lt < ht || (lt = ht && t.lseqs.(h) < t.seqs.(0))

(* Does ([time], [seq]) sort after the lane's last entry? *)
let[@inline] after_lane_tail t ~time ~seq =
  t.llen = 0
  ||
  let j = (t.lhead + t.llen - 1) land (Array.length t.ltimes - 1) in
  let lt = t.ltimes.(j) in
  time > lt || (time = lt && seq > t.lseqs.(j))

(* Double the full lane (64 entries at first), unwrapping it to start at
   0. New payload entries point at the heap's filler. *)
let lane_grow t =
  let cap = Array.length t.ltimes in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let ltimes = Array.make ncap 0 in
  let lseqs = Array.make ncap 0 in
  let lpays = Array.make ncap t.payloads.(0) in
  for i = 0 to cap - 1 do
    let j = (t.lhead + i) land (cap - 1) in
    ltimes.(i) <- t.ltimes.(j);
    lseqs.(i) <- t.lseqs.(j);
    lpays.(i) <- t.lpays.(j)
  done;
  t.ltimes <- ltimes;
  t.lseqs <- lseqs;
  t.lpays <- lpays;
  t.lhead <- 0

let lane_push t ~time ~seq payload =
  if t.llen = Array.length t.ltimes then lane_grow t;
  let j = (t.lhead + t.llen) land (Array.length t.ltimes - 1) in
  t.ltimes.(j) <- time;
  t.lseqs.(j) <- seq;
  t.lpays.(j) <- payload;
  t.llen <- t.llen + 1

let lane_pop t =
  let h = t.lhead in
  let p = t.lpays.(h) in
  t.lpays.(h) <- t.payloads.(0);
  t.lhead <- (h + 1) land (Array.length t.ltimes - 1);
  t.llen <- t.llen - 1;
  p

let push t ~time ~seq payload =
  if t.len >= lane_min && after_lane_tail t ~time ~seq then
    lane_push t ~time ~seq payload
  else begin
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
  end

(* Allocation-free view of the earliest timestamp: [max_int] when empty, so
   the engine's run loop can compare against a limit without an option.
   Inlined into the engine's dispatch, as [min_seq] is. *)
let[@inline] min_time t =
  if t.llen = 0 then if t.len = 0 then max_int else t.times.(0)
  else if lane_first t then t.ltimes.(t.lhead)
  else t.times.(0)

let[@inline] min_seq t =
  if t.llen = 0 then if t.len = 0 then max_int else t.seqs.(0)
  else if lane_first t then t.lseqs.(t.lhead)
  else t.seqs.(0)

let peek t =
  if is_empty t then None
  else if t.llen > 0 && lane_first t then
    let h = t.lhead in
    Some { time = t.ltimes.(h); seq = t.lseqs.(h); payload = t.lpays.(h) }
  else
    Some
      {
        time = t.times.(0);
        seq = t.seqs.(0);
        payload = t.payloads.(t.slots.(0));
      }

let peek_time t = if is_empty t then None else Some (min_time t)

(* Remove the earliest entry, returning only its payload: the lane head if
   it sorts first, else the heap root. The root's table entry is
   overwritten with the filler and its slot goes back on the free stack.
   The last entry is taken into locals and the hole walks down from the
   root towards the smaller child until the entry fits. *)
let pop_payload t =
  if t.llen > 0 && lane_first t then lane_pop t
  else begin
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
  end

let pop t =
  if is_empty t then None
  else begin
    let time = min_time t and seq = min_seq t in
    let payload = pop_payload t in
    Some { time; seq; payload }
  end

let clear t =
  (* Point every table and lane entry back at the filler; [slots] stays a
     permutation of the slot ids, all of them now free. *)
  if Array.length t.payloads > 0 then begin
    let filler = t.payloads.(0) in
    Array.fill t.payloads 1 (Array.length t.payloads - 1) filler;
    Array.fill t.lpays 0 (Array.length t.lpays) filler
  end;
  t.len <- 0;
  t.lhead <- 0;
  t.llen <- 0

(* Pop all entries in order; used by tests. *)
let drain t =
  let rec go acc =
    match pop t with
    | None -> List.rev acc
    | Some e -> go (e :: acc)
  in
  go []
