(* Discrete-event engine.

   The engine owns the virtual clock and an event heap of thunks. Simulated
   code never blocks the OCaml runtime: anything that must wait re-schedules
   itself (see {!Process}). Time is measured in integer machine cycles.

   Dispatch is allocation-free: [dispatch], shared by [step] and [run], reads
   the earliest timestamp with [Pqueue.min_time] (an int, [max_int] when
   drained) and takes the thunk with [Pqueue.pop_payload], so sustained runs
   cost the heap sift plus the thunk itself and, while a wait is elided,
   one ring record (below). A plan scheduled before [run] in time order
   (the SLO stream's arrivals) goes past the heap's first 32 entries into
   [Pqueue]'s in-order lane, so the sift stays as shallow as the fibers'
   own events; the pop order, and so every seq and tie, is the heap's.

   In-place dispatch. A fiber's sleep ([Process.pause], [wait_until]) whose
   wake is provably the next dispatch skips the heap and the effect round
   trip ([sleep_in_place] gives the proof). The engine then makes the round
   trip's bookkeeping ([start_dispatch], with the seq [schedule] would
   take), so the seq counter, the ring and [events_executed], and every
   later seq, tie and elided wait's place with them, are exactly as after
   the round trip.

   Each dispatch touches only the waits it affects, and stores only ints.
   A wait leaving [idle] takes an id in the registry ([reg]) and gives it
   back on returning, so the registry is written twice per chain and holds
   at most as many waits as are ever elided or placed at once. Elided
   waits sit in [active] and placed ones in [placed], by id, each at its
   [slot], beside an int key: in [active] a chain's lock-step key (its
   gaps, and its element 0's time modulo the lock-step period), so [elide]
   reads only the records of the chains that match it; in [placed] the
   element's time, so [track] and [place] read only those of that time.
   The elided waits that end on their own sit in [ends], a binary min-heap
   of (end time, id) at their [hslot]; its top is the horizon, exact at
   every dispatch, so [run]'s loop and [sleep_in_place] read it without a
   scan. A chain that ends alone at the horizon, before every queued
   event, is dispatched at once by [end_chains]: no heap push and pop. A
   placed element runs through its wait's one closure, [run], made at the
   wait's first elision. The library builds without [-opaque], so
   [Pqueue]'s accessors are inlined into [dispatch] and [dispatch] into
   [run]'s loop.

   Elided waits. A wait whose iterations change nothing another event can
   observe (a processor spinning on its own memory module) need not put an
   event in the heap for every iteration. Its owner declares it with
   [elide] in place of scheduling the next iteration: the chain of events
   it would have run — element 0 at [at], then alternately [even_gap] and
   [odd_gap] cycles apart — stays virtual until something that can end it
   happens ([materialise]). Then the one element the real loop would
   dispatch next goes into the heap at exactly the (time, seq) place it
   would have held, and the owner's code runs it for real. A chain may also
   end on its own (a poll wait's deadline): its first element at or after
   [until] is its last virtual one, and [run] places that element before
   the clock reaches it ([horizon]).

   Placing that element needs its sequence number, and a virtual element
   never took one. Three things make the place computable:

   - Spaced sequence numbers. A real event's seq is [counter lsl seq_bits],
     so real events keep their order and a materialised element can take a
     seq strictly between two real ones.
   - Element 0's seq is reserved when the wait is elided: it is exactly the
     seq the real schedule call would have taken.
   - A dispatch ring. While any wait is elided or placed, every dispatch is
     recorded: its time, its own seq and the first counter it assigned. The
     scheduler of a real event is then the ring entry whose counter range
     holds its seq.

   Two events at the same time run in the order their schedulers were
   dispatched, so [before] compares two positions by time, then by seq when
   both seqs are real, and otherwise compares their schedulers, level by
   level. A chain element's scheduler is the element before it; element 0's
   is the dispatch that elided the wait. The element to materialise is the
   first one ordered after the dispatch in progress; its seq goes just
   below the first counter assigned by any dispatch ordered after its
   parent. *)

exception Deadlock of string

(* Low bits of a seq left free for materialised elements: real seqs are
   multiples of [1 lsl seq_bits]. *)
let seq_bits = 20
let frac_mask = (1 lsl seq_bits) - 1

(* A wait's state: [idle] (nothing virtual), [elided] (its chain is
   virtual), or [placed] (one element is in the heap, not yet run). *)
let idle = 0
let elided = 1
let placed = 2

type wait = {
  owner : int;
  even_gap : int; (* from element 2m to 2m+1 *)
  odd_gap : int; (* from element 2m+1 to 2m+2 *)
  fire : int -> unit;
  credit : int -> unit;
  mutable run : unit -> unit; (* fires element [m_j]; made at 1st elision *)
  mutable id : int; (* registry id while elided or placed, else -1 *)
  mutable state : int;
  mutable slot : int; (* in [active] while elided, [placed] while placed *)
  mutable hslot : int; (* index in [ends] while elided with an end, else -1 *)
  mutable t0 : int; (* time of element 0 *)
  mutable s0 : int; (* element 0's reserved seq *)
  mutable root : int; (* ring index of the dispatch that elided it *)
  mutable m_time : int; (* placed element: time, seq and index *)
  mutable m_seq : int;
  mutable m_j : int;
  mutable end_j : int; (* the chain's last element, index and time; *)
  mutable end_time : int; (* [max_int] when only a wake can end it *)
}

(* A gap must fit the 16 bits a ring entry keeps for it. *)
let max_gap = 0xffff

(* A wait's [run] before its first elision. *)
let no_run () = ()

let wait ~owner ~even_gap ~odd_gap ~fire ~credit =
  if even_gap <= 0 || odd_gap <= 0 || even_gap > max_gap || odd_gap > max_gap
  then invalid_arg "Engine.wait: chain gaps must be in [1, 65535]";
  {
    owner;
    even_gap;
    odd_gap;
    fire;
    credit;
    run = no_run;
    id = -1;
    state = idle;
    slot = -1;
    hslot = -1;
    t0 = 0;
    s0 = 0;
    root = 0;
    m_time = 0;
    m_seq = 0;
    m_j = 0;
    end_j = max_int;
    end_time = max_int;
  }

(* Fills the free cells of the registry, so it keeps no finished wait
   alive. *)
let no_wait =
  wait ~owner:(-1) ~even_gap:1 ~odd_gap:1 ~fire:ignore ~credit:ignore

(* The lock-step key of a chain whose element 0 is at [t0]: two chains of
   the same gaps have elements of the same parity (of either parity, when
   the gaps are equal) at one time exactly when their keys are equal and
   the later one starts at or after the earlier's element 0. Each field
   fits its 20 bits, as a gap is at most [max_gap]. *)
let key ~even ~odd t0 =
  let period = if even = odd then even else even + odd in
  (even lsl 40) lor (odd lsl 20) lor (t0 mod period)

(* An unordered set of registry ids, each wait at its [slot], with an int
   key beside each: the lock-step key in [active], the placed element's
   time in [placed]. *)
type waits = {
  mutable ids : int array;
  mutable keys : int array;
  mutable n : int;
}

let waits () = { ids = [||]; keys = [||]; n = 0 }

let add s w key =
  if s.n = Array.length s.ids then begin
    s.ids <- Array.append s.ids (Array.make (max 4 s.n) 0);
    s.keys <- Array.append s.keys (Array.make (max 4 s.n) 0)
  end;
  s.ids.(s.n) <- w.id;
  s.keys.(s.n) <- key;
  w.slot <- s.n;
  s.n <- s.n + 1

(* A map from a pair of real seqs [a < b] to a bool, by open addressing
   over int columns. A [Hashtbl] entry is a key tuple and a bucket cell
   stored into a long-lived table, so each is promoted at the next minor
   collection, and [fault_sweep]'s peak heap grew with them; here an entry
   allocates nothing. *)
module Pairs = struct
  type t = {
    mutable lo : int array; (* [a]; -1 marks a free slot *)
    mutable hi : int array;
    mutable v : Bytes.t; (* '\001' for true *)
    mutable size : int;
  }

  let create n =
    { lo = Array.make n (-1); hi = Array.make n 0; v = Bytes.make n '\000';
      size = 0 }

  (* The slot holding [(a, b)], or the free slot where it would go. *)
  let slot t a b =
    let mask = Array.length t.lo - 1 in
    let h = ((a lsr seq_bits) * 0x9E3779B1) lxor (b lsr seq_bits) in
    let i = ref ((h lxor (h lsr 15)) land mask) in
    while t.lo.(!i) >= 0 && not (t.lo.(!i) = a && t.hi.(!i) = b) do
      i := (!i + 1) land mask
    done;
    !i

  (* 1 (true), 0 (false), or -1 when absent. *)
  let find t a b =
    let i = slot t a b in
    if t.lo.(i) < 0 then -1 else Char.code (Bytes.get t.v i)

  let rec add t a b v =
    if 2 * (t.size + 1) > Array.length t.lo then begin
      let old = { t with size = 0 } in
      let n = 2 * Array.length t.lo in
      t.lo <- Array.make n (-1);
      t.hi <- Array.make n 0;
      t.v <- Bytes.make n '\000';
      t.size <- 0;
      Array.iteri
        (fun i x ->
          if x >= 0 then add t x old.hi.(i) (Bytes.get old.v i = '\001'))
        old.lo
    end;
    let i = slot t a b in
    if t.lo.(i) < 0 then begin
      t.lo.(i) <- a;
      t.hi.(i) <- b;
      t.size <- t.size + 1
    end;
    Bytes.set t.v i (if v then '\001' else '\000')

  let clear t =
    if t.size > 0 then begin
      Array.fill t.lo 0 (Array.length t.lo) (-1);
      t.size <- 0
    end
end

(* Dispatch ring capacity (a power of two). An elided wait whose root gets
   within an eighth of the capacity of falling out is re-rooted. *)
let ring_cap = 1024
let ring_mask = ring_cap - 1
let memo_period = ring_cap / 2

type t = {
  mutable now : int;
  mutable seq : int; (* counter: the next real seq is [seq lsl seq_bits] *)
  events : (unit -> unit) Pqueue.t;
  mutable executed : int;
  mutable max_events : int; (* safety valve against runaway simulations *)
  (* The dispatch in progress: its seq, the counter when it began and its
     ring index (-1 while unrecorded). [cur_seq] is -1 outside a
     dispatch. *)
  mutable cur_seq : int;
  mutable cur_first : int;
  mutable cur_entry : int;
  (* The registry: each elided or placed wait at its [id], [no_wait]
     elsewhere. The free ids are the stack [free.(0 .. n_free - 1)]. *)
  mutable reg : wait array;
  mutable free : int array;
  mutable n_free : int;
  (* Elided waits, and placed ones. *)
  active : waits;
  placed : waits;
  mutable min_root : int; (* lower bound on an elided wait's root *)
  (* [ends], the elided waits that have an end: a binary min-heap by end
     time in two columns (end time, id), each wait at its [hslot]; [max_int]
     times beyond [n_ends]. Its top's end is the horizon, the earliest time
     an elided chain ends on its own. *)
  mutable e_time : int array;
  mutable e_id : int array;
  mutable n_ends : int;
  (* The dispatch ring: one column per field, allocated at the first
     elision.
     Entries [r_base, r_next) are valid, at index [i land ring_mask]. *)
  mutable r_time : int array;
  mutable r_first : int array;
  mutable r_seq : int array;
  (* For a materialised element: its chain's element-0 seq, and
     [j lsl 32 lor even_gap lsl 16 lor odd_gap]. *)
  mutable r_s0 : int array;
  mutable r_jg : int array;
  mutable r_base : int;
  mutable r_next : int;
  (* Tie order of lock-step chains (below), keyed by the pair of element-0
     seqs, smaller first: [true] when the smaller's elements run first.
     Two generations, swapped every [memo_period] dispatches recorded; the
     pairs of active waits are carried into the new one, and a hit in the
     old one is copied forward. *)
  mutable memo : Pairs.t;
  mutable memo_old : Pairs.t;
  mutable memo_swap : int;
  (* In-place dispatch ([sleep_in_place]): [run]'s limit while inside it
     ([min_int] outside, even after a raise), and whether the code running
     is the fiber this dispatch resumed from its sleep, with no other fiber
     resumed since. *)
  mutable limit : int;
  mutable sleeper : bool;
}

let create ?(max_events = 200_000_000) () =
  {
    now = 0;
    seq = 0;
    events = Pqueue.create ();
    executed = 0;
    max_events;
    cur_seq = -1;
    cur_first = 0;
    cur_entry = -1;
    reg = [||];
    free = [||];
    n_free = 0;
    active = waits ();
    placed = waits ();
    min_root = max_int;
    e_time = [| max_int |];
    e_id = [| 0 |];
    n_ends = 0;
    r_time = [||];
    r_first = [||];
    r_seq = [||];
    r_s0 = [||];
    r_jg = [||];
    r_base = 0;
    r_next = 0;
    memo = Pairs.create 16;
    memo_old = Pairs.create 16;
    memo_swap = memo_period;
    limit = min_int;
    sleeper = false;
  }

let now t = t.now

let events_executed t = t.executed

let schedule t ~at f =
  if at < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%d is in the past (now=%d)" at t.now);
  let c = t.seq in
  t.seq <- c + 1;
  Pqueue.push t.events ~time:at ~seq:(c lsl seq_bits) f

let schedule_after t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(t.now + delay) f

(* An elided wait stands for the one event its chain keeps in the heap. *)
let pending t = Pqueue.length t.events + t.active.n

(* Some wait is elided or placed: dispatches must be recorded. *)
let[@inline] waiting t = t.active.n > 0 || t.placed.n > 0

(* -- The registry --------------------------------------------------------- *)

(* Give [w], leaving [idle], an id. *)
let register t w =
  if t.n_free = 0 then begin
    (* Every id is in use: double the registry, and free the new ids. *)
    let n = Array.length t.reg in
    let m = max 4 (2 * n) in
    t.reg <- Array.append t.reg (Array.make (m - n) no_wait);
    t.free <- Array.init m (fun i -> m - 1 - i);
    t.n_free <- m - n
  end;
  t.n_free <- t.n_free - 1;
  let id = t.free.(t.n_free) in
  t.reg.(id) <- w;
  w.id <- id

(* Take back the id of [w], returning to [idle]. *)
let unregister t w =
  t.reg.(w.id) <- no_wait;
  t.free.(t.n_free) <- w.id;
  t.n_free <- t.n_free + 1;
  w.id <- -1

let registry t = (Array.length t.reg - t.n_free, Array.length t.reg)

let remove t s w =
  let last = s.n - 1 in
  let moved = s.ids.(last) in
  s.ids.(w.slot) <- moved;
  s.keys.(w.slot) <- s.keys.(last);
  t.reg.(moved).slot <- w.slot;
  s.n <- last;
  w.slot <- -1

(* -- The dispatch ring ---------------------------------------------------- *)

let[@inline] record t =
  let i = t.r_next in
  let k = i land ring_mask in
  t.r_time.(k) <- t.now;
  t.r_first.(k) <- t.cur_first;
  t.r_seq.(k) <- t.cur_seq;
  t.r_next <- i + 1;
  if t.r_next - t.r_base > ring_cap then t.r_base <- t.r_next - ring_cap;
  t.cur_entry <- i

(* -- Positions and their order -------------------------------------------- *)

(* Where an event, or the dispatch that ran it, stands in dispatch order. *)
type pos =
  | Before_ring (* a dispatch older than every ring entry *)
  | Entry of int (* a recorded dispatch *)
  | Seq of int * int (* an event with a real seq: time, seq *)
  | Elem of int * int * int * int * int
      (* element [j >= 1] of a chain: t0, s0, even_gap, odd_gap, j *)

let elem_time ~t0 ~even ~odd j =
  t0 + (j / 2 * (even + odd)) + if j land 1 = 1 then even else 0

let elem ~t0 ~s0 ~even ~odd j =
  if j = 0 then Seq (t0, s0) else Elem (t0, s0, even, odd, j)

(* The ring entry that assigned counter [c]: the last with [first <= c]. *)
let lookup t c =
  if t.r_next = t.r_base || c < t.r_first.(t.r_base land ring_mask) then
    Before_ring
  else begin
    let lo = ref t.r_base and hi = ref (t.r_next - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.r_first.(mid land ring_mask) <= c then lo := mid else hi := mid - 1
    done;
    Entry !lo
  end

let pos_time t = function
  | Before_ring -> assert false
  | Entry e -> t.r_time.(e land ring_mask)
  | Seq (time, _) -> time
  | Elem (t0, _, even, odd, j) -> elem_time ~t0 ~even ~odd j

(* The seq to compare directly, or -1 for a chain element beyond 0. A
   materialised element's seq is fractional, but it sits correctly against
   every real seq, so a numeric comparison with a real seq is sound. *)
let direct_seq t = function
  | Entry e -> t.r_seq.(e land ring_mask)
  | Seq (_, s) -> s
  | Elem _ | Before_ring -> -1

(* The dispatch that scheduled the event at [p]. *)
let parent t = function
  | Before_ring -> assert false
  | Seq (_, s) -> lookup t (s asr seq_bits)
  | Elem (t0, s0, even, odd, j) -> elem ~t0 ~s0 ~even ~odd (j - 1)
  | Entry e ->
    let k = e land ring_mask in
    let s = t.r_seq.(k) in
    if s land frac_mask = 0 then lookup t (s asr seq_bits)
    else
      let jg = t.r_jg.(k) in
      let j = jg lsr 32 and even = (jg lsr 16) land 0xffff
      and odd = jg land 0xffff in
      let t0 = t.r_time.(k) - elem_time ~t0:0 ~even ~odd j in
      elem ~t0 ~s0:t.r_s0.(k) ~even ~odd (j - 1)

let ambiguous () =
  failwith "Engine: elided-wait ancestry runs past the dispatch ring"

(* A dispatch older than the ring precedes [p] when [p] is a ring entry or
   descends from one; anything else is a tie the ring cannot break. *)
let rec before_ring_precedes t = function
  | Entry _ -> true
  | Seq (_, s) -> (
    match lookup t (s asr seq_bits) with
    | Before_ring -> ambiguous ()
    | Entry _ | Seq _ | Elem _ -> true)
  | Elem (t0, s0, _, _, _) -> before_ring_precedes t (Seq (t0, s0))
  | Before_ring -> ambiguous ()

(* Lock-step chains. Two chains with the same gaps whose elements of the
   same parity (of any parity, when both gaps are equal) meet at one time
   tie at every level above, back to the first element 0: their order is
   fixed for as long as both exist, and that history can be far older than
   the ring. So each elision computes its order against every elided
   lock-step chain while the history is at hand ([elide]), and [before]
   answers such ties from [memo]. *)
let memo_find t a b =
  let lo = if a < b then a else b and hi = if a < b then b else a in
  let r = Pairs.find t.memo lo hi in
  let r =
    if r >= 0 then r
    else begin
      let r = Pairs.find t.memo_old lo hi in
      if r >= 0 then Pairs.add t.memo lo hi (r = 1);
      r
    end
  in
  if r < 0 then None else Some ((r = 1) = (a < b))

let memo_add t a b a_first =
  if a < b then Pairs.add t.memo a b a_first
  else Pairs.add t.memo b a (not a_first)

(* [before t a b]: the event at [a] is dispatched before the one at [b]. *)
let rec before t a b =
  match (a, b) with
  | Entry x, Entry y -> x < y
  | Before_ring, _ -> before_ring_precedes t b
  | _, Before_ring -> not (before_ring_precedes t a)
  | _ ->
    let ta = pos_time t a and tb = pos_time t b in
    if ta <> tb then ta < tb
    else begin
      match (a, b) with
      | Elem (t0a, s0a, even, odd, j), Elem (t0b, s0b, even', odd', k)
        when even = even' && odd = odd' && (even = odd || j land 1 = k land 1)
        -> (
        match memo_find t s0a s0b with
        | Some r -> r
        | None ->
          (* Climb both chains at once to the nearer element 0. *)
          let d = min j k in
          before t
            (elem ~t0:t0a ~s0:s0a ~even ~odd (j - d))
            (elem ~t0:t0b ~s0:s0b ~even ~odd (k - d)))
      | _ ->
        let sa = direct_seq t a and sb = direct_seq t b in
        if sa >= 0 && sb >= 0 then sa < sb
        else before t (parent t a) (parent t b)
    end

(* -- Elided waits ---------------------------------------------------------- *)

let w_elem w j =
  elem ~t0:w.t0 ~s0:w.s0 ~even:w.even_gap ~odd:w.odd_gap j

let w_time w j = elem_time ~t0:w.t0 ~even:w.even_gap ~odd:w.odd_gap j

(* The first element at or after [time]. *)
let first_from w time =
  let d = time - w.t0 in
  if d <= 0 then 0
  else begin
    let p = w.even_gap + w.odd_gap in
    let m = d / p in
    let r = d - (m * p) in
    if r = 0 then 2 * m
    else if r <= w.even_gap then (2 * m) + 1
    else (2 * m) + 2
  end

(* -- Chain ends: the [ends] heap ----------------------------------------- *)

let horizon t = t.e_time.(0)

let h_set t i time id =
  t.e_time.(i) <- time;
  t.e_id.(i) <- id;
  t.reg.(id).hslot <- i

let rec h_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    let ti = t.e_time.(i) and tp = t.e_time.(p) in
    if ti < tp then begin
      let idi = t.e_id.(i) and idp = t.e_id.(p) in
      h_set t p ti idi;
      h_set t i tp idp;
      h_up t p
    end
  end

let rec h_down t i =
  let l = (2 * i) + 1 in
  if l < t.n_ends then begin
    let r = l + 1 in
    let c = if r < t.n_ends && t.e_time.(r) < t.e_time.(l) then r else l in
    let ti = t.e_time.(i) and tc = t.e_time.(c) in
    if tc < ti then begin
      let idi = t.e_id.(i) and idc = t.e_id.(c) in
      h_set t i tc idc;
      h_set t c ti idi;
      h_down t c
    end
  end

let add_end t w =
  if t.n_ends = Array.length t.e_time then begin
    t.e_time <- Array.append t.e_time (Array.make t.n_ends max_int);
    t.e_id <- Array.append t.e_id (Array.make t.n_ends 0)
  end;
  h_set t t.n_ends w.end_time w.id;
  t.n_ends <- t.n_ends + 1;
  h_up t w.hslot

let remove_end t w =
  let i = w.hslot and last = t.n_ends - 1 in
  let time = t.e_time.(last) and id = t.e_id.(last) in
  t.e_time.(last) <- max_int;
  t.n_ends <- last;
  w.hslot <- -1;
  if i < last then begin
    h_set t i time id;
    h_up t i;
    h_down t t.reg.(id).hslot
  end

(* -- Eliding and placing ------------------------------------------------- *)

(* Carry the memo's pairs of elided and placed waits into the other
   generation, and make it current. *)
let swap_memo t =
  let fresh = t.memo_old in
  Pairs.clear fresh;
  let na = t.active.n in
  let nth i =
    t.reg.(if i < na then t.active.ids.(i) else t.placed.ids.(i - na))
  in
  let n = na + t.placed.n in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      let x = (nth a).s0 and y = (nth b).s0 in
      let lo = if x < y then x else y and hi = if x < y then y else x in
      let r = Pairs.find t.memo lo hi in
      if r >= 0 then Pairs.add fresh lo hi (r = 1)
    done
  done;
  t.memo_old <- t.memo;
  t.memo <- fresh;
  t.memo_swap <- t.r_next + memo_period

(* Run a placed element: it is the dispatch in progress. *)
let fire_placed t w =
  remove t t.placed w;
  unregister t w;
  w.state <- idle;
  w.fire w.m_j

let elide ?until t w ~at =
  if t.cur_seq < 0 || w.state <> idle || at <= t.now then false
  else begin
    w.t0 <- at;
    let end_j = match until with Some u -> first_from w u | None -> max_int in
    (* A chain that ends at element 0 has nothing to elide. *)
    if end_j = 0 then false
    else begin
      if Array.length t.r_time = 0 then begin
        t.r_time <- Array.make ring_cap 0;
        t.r_first <- Array.make ring_cap 0;
        t.r_seq <- Array.make ring_cap 0;
        t.r_s0 <- Array.make ring_cap 0;
        t.r_jg <- Array.make ring_cap 0
      end;
      if t.cur_entry < 0 then begin
        (* Nothing was active when this dispatch began, so the ring holds no
           current history: restart it here. *)
        if not (waiting t) then t.r_base <- t.r_next;
        record t
      end;
      let c = t.seq in
      t.seq <- c + 1;
      w.s0 <- c lsl seq_bits;
      w.end_j <- end_j;
      w.end_time <- (if end_j = max_int then max_int else w_time w end_j);
      w.root <- t.cur_entry;
      if t.r_next >= t.memo_swap then swap_memo t;
      (* Order this chain against each elided lock-step chain: element 0
         against that chain's element at the same time, if it has one (an
         even element, or either when both gaps are equal). Only a chain
         with the same key can have one. *)
      let k = key ~even:w.even_gap ~odd:w.odd_gap at in
      for a = 0 to t.active.n - 1 do
        let u = t.reg.(t.active.ids.(a)) in
        if t.active.keys.(a) = k && at >= u.t0 then
          memo_add t w.s0 u.s0
            (before t (Seq (at, w.s0)) (w_elem u (first_from u at)))
      done;
      if w.run == no_run then w.run <- (fun () -> fire_placed t w);
      register t w;
      w.state <- elided;
      add t.active w k;
      if w.end_time < max_int then add_end t w;
      if w.root < t.min_root then t.min_root <- w.root;
      true
    end
  end

(* Make element [j] of elided wait [w] the placed one, at its exact place
   ([m_time], [m_seq]), crediting the elements before it. The caller puts
   it in the heap, or dispatches it. *)
let enter t w j =
  let time = w_time w j in
  let seq =
    if j = 0 then w.s0
    else begin
      (* [x]: the first counter assigned by a dispatch ordered after the
         element's parent, element [j - 1]. *)
      let ptime = w_time w (j - 1) in
      let x = ref t.seq and i = ref (t.r_next - 1) and scanning = ref true in
      while !scanning do
        if !i < t.r_base then ambiguous ();
        let te = t.r_time.(!i land ring_mask) in
        if te > ptime || (te = ptime && before t (w_elem w (j - 1)) (Entry !i))
        then begin
          x := t.r_first.(!i land ring_mask);
          decr i
        end
        else scanning := false
      done;
      (* Between the real seqs of counters [x - 1] and [x], ordered against
         the other placed elements of the same gap and time. *)
      let floor = (!x - 1) lsl seq_bits and ceiling = !x lsl seq_bits in
      let lo = ref floor and hi = ref ceiling in
      let me = w_elem w j in
      for a = 0 to t.placed.n - 1 do
        let u = t.reg.(t.placed.ids.(a)) in
        if t.placed.keys.(a) = time && u.m_seq > floor && u.m_seq < ceiling
        then begin
          if before t (w_elem u u.m_j) me then lo := Int.max !lo u.m_seq
          else hi := Int.min !hi u.m_seq
        end
      done;
      if !hi - !lo < 2 then failwith "Engine: no free seq for an elided wait";
      (!lo + !hi) / 2
    end
  in
  remove t t.active w;
  if w.hslot >= 0 then remove_end t w;
  w.state <- placed;
  w.m_time <- time;
  w.m_seq <- seq;
  w.m_j <- j;
  add t.placed w time;
  w.credit j

(* Put element [j] of elided wait [w] into the heap at its exact place. *)
let place t w j =
  enter t w j;
  Pqueue.push t.events ~time:w.m_time ~seq:w.m_seq w.run

(* The first element of [w] ordered after ring entry [e]. *)
let first_after_entry t w e =
  let time = t.r_time.(e land ring_mask) in
  let j = first_from w time in
  if w_time w j = time && before t (w_elem w j) (Entry e) then j + 1 else j

let materialise t w =
  if w.state = elided then begin
    let e = if t.cur_entry >= 0 then t.cur_entry else t.r_next - 1 in
    place t w (first_after_entry t w e)
  end

let settle t w = if w.state = elided then w.credit (first_from w t.now)

let is_elided w = w.state = elided

(* Every elided wait, materialised after ring entry [e]. *)
let place_all_after t e =
  while t.active.n > 0 do
    let w = t.reg.(t.active.ids.(t.active.n - 1)) in
    place t w (first_after_entry t w e)
  done

(* The oldest root an elided wait may keep. *)
let root_limit t = t.r_next - (ring_cap * 7 / 8)

(* Re-root the waits whose root is about to leave the ring: each runs one
   real element and, if it spins on, elides again from a recent root.
   Downwards, so a wait placed (and swapped out of [active]) leaves only
   visited waits behind it. *)
let reroot t =
  let limit = root_limit t in
  let m = ref max_int in
  for a = t.active.n - 1 downto 0 do
    let w = t.reg.(t.active.ids.(a)) in
    if w.root < limit then place t w (first_after_entry t w t.cur_entry)
    else if w.root < !m then m := w.root
  done;
  t.min_root <- !m

(* Book-keeping for a dispatch that starts while waits are active: record
   it in the ring. A fractional seq is a placed element: its entry keeps
   that element's chain, which is its ancestry. *)
let track t =
  record t;
  let s = t.cur_seq in
  if s land frac_mask <> 0 then begin
    let k = t.cur_entry land ring_mask in
    for a = 0 to t.placed.n - 1 do
      let w = t.reg.(t.placed.ids.(a)) in
      if t.placed.keys.(a) = t.now && w.m_seq = s then begin
        t.r_s0.(k) <- w.s0;
        t.r_jg.(k) <- (w.m_j lsl 32) lor (w.even_gap lsl 16) lor w.odd_gap
      end
    done
  end;
  if t.min_root < root_limit t then reroot t

(* Make the event at ([time], [seq]) the dispatch in progress: move the
   clock, count it, and record it while waits are elided or placed. *)
let[@inline] start_dispatch t ~time ~seq =
  t.now <- time;
  t.executed <- t.executed + 1;
  t.cur_seq <- seq;
  t.cur_first <- t.seq;
  t.cur_entry <- -1;
  if waiting t then track t

(* Run the earliest event: advance the clock to its time, count it, call it.
   The caller has checked that the heap is not empty. Inlined, so [run]'s
   loop pays no extra call per event. *)
let[@inline] dispatch t =
  let time = Pqueue.min_time t.events in
  let seq = Pqueue.min_seq t.events in
  let f = Pqueue.pop_payload t.events in
  t.sleeper <- false;
  start_dispatch t ~time ~seq;
  f ()

let resumed_sleeper t = t.sleeper <- true

let resumed_other t = t.sleeper <- false

(* The dispatch a sleep until [at] would lead to, made here when it is
   provably the next one: the running fiber is all that is left of the
   dispatch in progress ([sleeper]: that dispatch resumed it from its own
   sleep, as its last act or at its start, and no other fiber since), no
   queued event comes before [at] (a tie would lose on seq), no elided
   chain ends by then ([horizon]), and [run]'s loop would dispatch it next
   (inside [run], within its [until], the budget not spent). Then
   [start_dispatch] makes the round trip's bookkeeping, with the seq
   [schedule] would take. *)
let sleep_in_place t at =
  if
    t.sleeper && at < Pqueue.min_time t.events && at < horizon t
    && at <= t.limit && t.executed <= t.max_events
  then begin
    let c = t.seq in
    t.seq <- c + 1;
    start_dispatch t ~time:at ~seq:(c lsl seq_bits);
    true
  end
  else false

let leave_dispatch t =
  t.cur_seq <- -1;
  t.cur_entry <- -1

let stuck t =
  let owner a = t.reg.(t.active.ids.(a)).owner in
  let owners = List.init t.active.n owner in
  raise
    (Deadlock
       (Printf.sprintf
          "no event can end the elided waits of processors %s: the event \
           heap is empty"
          (String.concat ", "
             (List.map string_of_int (List.sort compare owners)))))

let step t =
  if Pqueue.is_empty t.events && t.active.n > 0 then
    place_all_after t (t.r_next - 1);
  if Pqueue.is_empty t.events then false
  else begin
    dispatch t;
    if t.active.n > 0 then place_all_after t t.cur_entry;
    leave_dispatch t;
    true
  end

let budget_exhausted t =
  raise
    (Deadlock
       (Printf.sprintf "event budget exhausted (%d events executed)"
          t.max_events))

(* At [run ~until:limit]'s end every element up to [limit] has virtually
   run: the clock stands at the last of them, and the next goes into the
   heap, as a real run would leave it. *)
let park_after t limit =
  while t.active.n > 0 do
    let w = t.reg.(t.active.ids.(t.active.n - 1)) in
    let j = first_from w (limit + 1) in
    if j > 0 then t.now <- Int.max t.now (w_time w (j - 1));
    place t w j
  done

(* Place the last element of every elided chain that ends at the horizon.
   Called before the clock reaches it, so every dispatch so far precedes
   those elements. Only the earliest: what they run may wake a chain that
   ends later. A chain that ends there alone, before every queued event,
   is dispatched at once: pushed, it would be the next event popped. *)
let end_chains t =
  let h = horizon t in
  if
    (t.n_ends < 2 || t.e_time.(1) > h)
    && (t.n_ends < 3 || t.e_time.(2) > h)
    && h < Pqueue.min_time t.events
  then begin
    let w = t.reg.(t.e_id.(0)) in
    enter t w w.end_j;
    t.sleeper <- false;
    start_dispatch t ~time:h ~seq:w.m_seq;
    w.run ();
    if t.executed > t.max_events then budget_exhausted t
  end
  else
    while horizon t = h do
      let w = t.reg.(t.e_id.(0)) in
      place t w w.end_j
    done

(* [Pqueue.min_time] reads the earliest timestamp as a bare int, so the
   loop's test is a few comparisons and allocates nothing. *)
let run_loop t limit =
  let go = ref true in
  while !go do
    let next = Pqueue.min_time t.events and h = horizon t in
    if next >= h && h <= limit && h < max_int then end_chains t
    else if next <= limit && not (Pqueue.is_empty t.events) then begin
      dispatch t;
      if t.executed > t.max_events then budget_exhausted t
    end
    else go := false
  done

let run ?until t =
  let limit = match until with None -> max_int | Some l -> l in
  if t.executed > t.max_events then budget_exhausted t;
  t.limit <- limit;
  Fun.protect
    ~finally:(fun () -> t.limit <- min_int)
    (fun () -> run_loop t limit);
  leave_dispatch t;
  if t.active.n > 0 then begin
    match until with None -> stuck t | Some limit -> park_after t limit
  end;
  match until with
  | Some limit when t.now < limit && Pqueue.is_empty t.events -> t.now <- limit
  | _ -> ()
