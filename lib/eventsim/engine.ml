(* Discrete-event engine.

   The engine owns the virtual clock and an event heap of thunks. Simulated
   code never blocks the OCaml runtime: anything that must wait re-schedules
   itself (see {!Process}). Time is measured in integer machine cycles.

   Dispatch is allocation-free: [dispatch], shared by [step] and [run], reads
   the earliest timestamp with [Pqueue.min_time] (an int, [max_int] when
   drained) and takes the thunk with [Pqueue.pop_payload], so sustained runs
   cost the heap sift plus the thunk itself and, while a wait is elided,
   one ring record (below).

   In-place dispatch. A fiber's sleep ([Process.pause], [wait_until]) whose
   wake is provably the next dispatch skips the heap and the effect round
   trip ([sleep_in_place]). The proof has three parts. The fiber is all
   that is left of the dispatch in progress: that dispatch resumed it from
   its own sleep ([resumed_sleeper]) and no other fiber has been resumed
   since ([resumed_other] and each dispatch clear the flag), so once it
   would suspend nothing else would run. Nothing comes first: the wake is
   strictly before [Pqueue.min_time] (a tie would lose on seq) and before
   [horizon], so no elided chain ends first. And [run]'s loop would
   dispatch it next: inside [run] ([limit]), within its [until], and with
   the event budget not spent. Then the engine makes the bookkeeping the
   round trip would: it takes the next seq as [schedule] would, counts the
   event, sets [cur_seq], [cur_first] and [cur_entry], records the
   dispatch in the ring while waits are active, and moves the clock. So
   the seq counter, the ring and [events_executed] are exactly as after
   the round trip, and every later seq, tie and elided wait's place with
   them.

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
  mutable state : int;
  mutable slot : int; (* index in [active] while elided or placed *)
  mutable t0 : int; (* time of element 0 *)
  mutable s0 : int; (* element 0's reserved seq *)
  mutable root : int; (* ring index of the dispatch that elided it *)
  mutable m_time : int; (* placed element: time, seq and index *)
  mutable m_seq : int;
  mutable m_j : int;
  mutable end_j : int; (* the chain's last element, index and time; *)
  mutable end_time : int; (* [max_int] when only a wake can end it *)
}

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
  (* Waits elided or placed, and how many are elided. *)
  mutable active : wait array;
  mutable n_active : int;
  mutable live : int;
  mutable min_root : int; (* lower bound on an elided wait's root *)
  mutable horizon : int; (* lower bound on an elided chain's end time *)
  (* The dispatch ring: one column per field, allocated on first use.
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
    active = [||];
    n_active = 0;
    live = 0;
    min_root = max_int;
    horizon = max_int;
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
let pending t = Pqueue.length t.events + t.live

(* -- The dispatch ring ---------------------------------------------------- *)

let record t =
  if Array.length t.r_time = 0 then begin
    t.r_time <- Array.make ring_cap 0;
    t.r_first <- Array.make ring_cap 0;
    t.r_seq <- Array.make ring_cap 0;
    t.r_s0 <- Array.make ring_cap 0;
    t.r_jg <- Array.make ring_cap 0
  end;
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
  | Seq (_, s) -> lookup t (s asr seq_bits) <> Before_ring || ambiguous ()
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

(* A gap must fit the 16 bits a ring entry keeps for it. *)
let max_gap = 0xffff

let wait ~owner ~even_gap ~odd_gap ~fire ~credit =
  if even_gap <= 0 || odd_gap <= 0 || even_gap > max_gap || odd_gap > max_gap
  then invalid_arg "Engine.wait: chain gaps must be in [1, 65535]";
  {
    owner;
    even_gap;
    odd_gap;
    fire;
    credit;
    state = idle;
    slot = -1;
    t0 = 0;
    s0 = 0;
    root = 0;
    m_time = 0;
    m_seq = 0;
    m_j = 0;
    end_j = max_int;
    end_time = max_int;
  }

(* Fills [active]'s free slots, so they keep no finished wait alive. *)
let no_wait =
  wait ~owner:(-1) ~even_gap:1 ~odd_gap:1 ~fire:ignore ~credit:ignore

let w_elem w j =
  elem ~t0:w.t0 ~s0:w.s0 ~even:w.even_gap ~odd:w.odd_gap j

let w_time w j = elem_time ~t0:w.t0 ~even:w.even_gap ~odd:w.odd_gap j

(* The first element at or after [time]. *)
let first_from w time =
  let d = time - w.t0 in
  if d <= 0 then 0
  else begin
    let p = w.even_gap + w.odd_gap in
    let m = d / p and r = d mod p in
    if r = 0 then 2 * m
    else if r <= w.even_gap then (2 * m) + 1
    else (2 * m) + 2
  end

let add_active t w =
  if t.n_active = Array.length t.active then begin
    let a = Array.make (max 4 (2 * t.n_active)) no_wait in
    Array.blit t.active 0 a 0 t.n_active;
    t.active <- a
  end;
  t.active.(t.n_active) <- w;
  w.slot <- t.n_active;
  t.n_active <- t.n_active + 1

let remove_active t w =
  let last = t.n_active - 1 in
  let moved = t.active.(last) in
  t.active.(w.slot) <- moved;
  moved.slot <- w.slot;
  t.active.(last) <- no_wait;
  t.n_active <- last;
  w.slot <- -1

let elide ?until t w ~at =
  if t.cur_seq < 0 || w.state <> idle || at <= t.now then false
  else begin
    w.t0 <- at;
    let end_j = match until with Some u -> first_from w u | None -> max_int in
    (* A chain that ends at element 0 has nothing to elide. *)
    if end_j = 0 then false
    else begin
      if t.cur_entry < 0 then begin
        (* Nothing was active when this dispatch began, so the ring holds no
           current history: restart it here. *)
        if t.n_active = 0 then t.r_base <- t.r_next;
        record t
      end;
      let c = t.seq in
      t.seq <- c + 1;
      w.s0 <- c lsl seq_bits;
      w.end_j <- end_j;
      w.end_time <- (if end_j = max_int then max_int else w_time w end_j);
      if w.end_time < t.horizon then t.horizon <- w.end_time;
      w.root <- t.cur_entry;
      if t.r_next >= t.memo_swap then begin
        let fresh = t.memo_old in
        Pairs.clear fresh;
        for a = 0 to t.n_active - 1 do
          for b = a + 1 to t.n_active - 1 do
            let x = t.active.(a).s0 and y = t.active.(b).s0 in
            let lo = if x < y then x else y and hi = if x < y then y else x in
            let r = Pairs.find t.memo lo hi in
            if r >= 0 then Pairs.add fresh lo hi (r = 1)
          done
        done;
        t.memo_old <- t.memo;
        t.memo <- fresh;
        t.memo_swap <- t.r_next + memo_period
      end;
      (* Order this chain against each elided lock-step chain: element 0
         against that chain's element at the same time. *)
      for a = 0 to t.n_active - 1 do
        let u = t.active.(a) in
        if
          u.state = elided && u.even_gap = w.even_gap
          && u.odd_gap = w.odd_gap
        then begin
          let j = first_from u at in
          if w_time u j = at && (u.even_gap = u.odd_gap || j land 1 = 0) then
            memo_add t w.s0 u.s0 (before t (Seq (at, w.s0)) (w_elem u j))
        end
      done;
      w.state <- elided;
      t.live <- t.live + 1;
      add_active t w;
      if w.root < t.min_root then t.min_root <- w.root;
      true
    end
  end

(* Run a placed element: it is the dispatch in progress. *)
let fire_placed t w j () =
  remove_active t w;
  w.state <- idle;
  w.fire j

(* Put element [j] of elided wait [w] into the heap at its exact place. *)
let place t w j =
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
      for a = 0 to t.n_active - 1 do
        let u = t.active.(a) in
        if u.state = placed && u.m_time = time && u.m_seq > floor
           && u.m_seq < ceiling
        then begin
          if before t (w_elem u u.m_j) me then lo := Int.max !lo u.m_seq
          else hi := Int.min !hi u.m_seq
        end
      done;
      if !hi - !lo < 2 then failwith "Engine: no free seq for an elided wait";
      (!lo + !hi) / 2
    end
  in
  w.state <- placed;
  w.m_time <- time;
  w.m_seq <- seq;
  w.m_j <- j;
  t.live <- t.live - 1;
  w.credit j;
  Pqueue.push t.events ~time ~seq (fire_placed t w j)

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
  for a = 0 to t.n_active - 1 do
    let w = t.active.(a) in
    if w.state = elided then place t w (first_after_entry t w e)
  done

(* The oldest root an elided wait may keep. *)
let root_limit t = t.r_next - (ring_cap * 7 / 8)

(* Re-root the waits whose root is about to leave the ring: each runs one
   real element and, if it spins on, elides again from a recent root. *)
let reroot t =
  let limit = root_limit t in
  let m = ref max_int in
  for a = 0 to t.n_active - 1 do
    let w = t.active.(a) in
    if w.state = elided then begin
      if w.root < limit then place t w (first_after_entry t w t.cur_entry)
      else if w.root < !m then m := w.root
    end
  done;
  t.min_root <- !m

(* Book-keeping for a dispatch that starts while waits are active. A
   fractional seq is a placed element: its entry keeps that element's chain,
   which is its ancestry. *)
let track t =
  record t;
  let s = t.cur_seq in
  if s land frac_mask <> 0 then begin
    let k = t.cur_entry land ring_mask in
    for a = 0 to t.n_active - 1 do
      let w = t.active.(a) in
      if w.state = placed && w.m_seq = s && w.m_time = t.now then begin
        t.r_s0.(k) <- w.s0;
        t.r_jg.(k) <- (w.m_j lsl 32) lor (w.even_gap lsl 16) lor w.odd_gap
      end
    done
  end;
  if t.min_root < root_limit t then reroot t

(* Run the earliest event: advance the clock to its time, count it, call it.
   The caller has checked that the heap is not empty. Inlined, so [run]'s
   loop pays no extra call per event. *)
let[@inline] dispatch t =
  let time = Pqueue.min_time t.events in
  let seq = Pqueue.min_seq t.events in
  let f = Pqueue.pop_payload t.events in
  t.now <- time;
  t.executed <- t.executed + 1;
  t.cur_seq <- seq;
  t.cur_first <- t.seq;
  t.cur_entry <- -1;
  t.sleeper <- false;
  if t.n_active > 0 then track t;
  f ()

let resumed_sleeper t = t.sleeper <- true

let resumed_other t = t.sleeper <- false

(* The dispatch a sleep until [at] would lead to, made here when it is
   provably the next one: the running fiber is all that is left of the
   dispatch in progress, no event in the heap comes before [at], no
   elided chain's end is due by then ([horizon]; a stale one is only
   lower), and [run]'s loop would dispatch it next without stopping. Then
   the bookkeeping is the heap round trip's — a seq taken as [schedule]
   takes it, the count, the dispatch's seq and counter, the ring record —
   so every later seq, and every elided wait's place, is as before. *)
let sleep_in_place t at =
  if
    t.sleeper && at < Pqueue.min_time t.events && at < t.horizon
    && at <= t.limit && t.executed <= t.max_events
  then begin
    let c = t.seq in
    t.seq <- c + 1;
    t.now <- at;
    t.executed <- t.executed + 1;
    t.cur_seq <- c lsl seq_bits;
    t.cur_first <- t.seq;
    t.cur_entry <- -1;
    if t.n_active > 0 then track t;
    true
  end
  else false

let leave_dispatch t =
  t.cur_seq <- -1;
  t.cur_entry <- -1

let stuck t =
  let owners = ref [] in
  for a = 0 to t.n_active - 1 do
    let w = t.active.(a) in
    if w.state = elided then owners := w.owner :: !owners
  done;
  raise
    (Deadlock
       (Printf.sprintf
          "no event can end the elided waits of processors %s: the event \
           heap is empty"
          (String.concat ", "
             (List.map string_of_int (List.sort compare !owners)))))

let step t =
  if Pqueue.is_empty t.events && t.live > 0 then
    place_all_after t (t.r_next - 1);
  if Pqueue.is_empty t.events then false
  else begin
    dispatch t;
    if t.live > 0 then place_all_after t t.cur_entry;
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
  for a = 0 to t.n_active - 1 do
    let w = t.active.(a) in
    if w.state = elided then begin
      let j = first_from w (limit + 1) in
      if j > 0 then t.now <- Int.max t.now (w_time w (j - 1));
      place t w j
    end
  done

(* Place the last element of every elided chain that ends at [horizon],
   and move [horizon] to the earliest end left. Called before the clock
   reaches [horizon], so every dispatch so far precedes those elements.
   Only the earliest: what they run may wake a chain that ends later. *)
let end_chains t =
  let h = ref max_int in
  for a = 0 to t.n_active - 1 do
    let w = t.active.(a) in
    if w.state = elided && w.end_time < max_int then begin
      if w.end_time <= t.horizon then place t w w.end_j
      else if w.end_time < !h then h := w.end_time
    end
  done;
  t.horizon <- !h

(* [Pqueue.min_time] reads the earliest timestamp as a bare int, so the
   loop's test is three comparisons and allocates nothing. *)
let run_loop t limit =
  let go = ref true in
  while !go do
    let next = Pqueue.min_time t.events in
    if next >= t.horizon && t.horizon <= limit && t.horizon < max_int then
      end_chains t
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
  if t.live > 0 then begin
    match until with None -> stuck t | Some limit -> park_after t limit
  end;
  match until with
  | Some limit when t.now < limit && Pqueue.is_empty t.events -> t.now <- limit
  | _ -> ()
