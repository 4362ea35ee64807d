(* Unit and property tests for the event heap. *)

open Eventsim

let test_empty () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Alcotest.(check int) "length" 0 (Pqueue.length q);
  Alcotest.(check bool) "pop" true (Pqueue.pop q = None);
  Alcotest.(check bool) "peek" true (Pqueue.peek q = None)

let test_ordering () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:30 ~seq:0 "c";
  Pqueue.push q ~time:10 ~seq:1 "a";
  Pqueue.push q ~time:20 ~seq:2 "b";
  let pop () =
    match Pqueue.pop q with
    | Some e -> e.Pqueue.payload
    | None -> Alcotest.fail "unexpected empty"
  in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "drained" true (Pqueue.is_empty q)

let test_fifo_ties () =
  let q = Pqueue.create () in
  for i = 0 to 9 do
    Pqueue.push q ~time:5 ~seq:i i
  done;
  let order = List.map (fun e -> e.Pqueue.payload) (Pqueue.drain q) in
  Alcotest.(check (list int)) "ties pop in seq order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    order

let test_peek_does_not_remove () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:1 ~seq:0 "x";
  ignore (Pqueue.peek q);
  Alcotest.(check int) "still there" 1 (Pqueue.length q);
  Alcotest.(check (option int)) "peek_time" (Some 1) (Pqueue.peek_time q)

let test_clear () =
  let q = Pqueue.create () in
  for i = 0 to 99 do
    Pqueue.push q ~time:i ~seq:i i
  done;
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q)

let test_interleaved_push_pop () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:10 ~seq:0 10;
  Pqueue.push q ~time:5 ~seq:1 5;
  (match Pqueue.pop q with
  | Some e -> Alcotest.(check int) "min first" 5 e.Pqueue.payload
  | None -> Alcotest.fail "empty");
  Pqueue.push q ~time:1 ~seq:2 1;
  (match Pqueue.pop q with
  | Some e -> Alcotest.(check int) "new min" 1 e.Pqueue.payload
  | None -> Alcotest.fail "empty");
  match Pqueue.pop q with
  | Some e -> Alcotest.(check int) "last" 10 e.Pqueue.payload
  | None -> Alcotest.fail "empty"

let prop_drain_sorted =
  QCheck.Test.make ~name:"drain is sorted by (time, seq)" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Pqueue.create () in
      List.iteri (fun seq time -> Pqueue.push q ~time ~seq time) times;
      let out = Pqueue.drain q in
      let rec sorted = function
        | a :: (b :: _ as rest) ->
          (a.Pqueue.time < b.Pqueue.time
          || (a.Pqueue.time = b.Pqueue.time && a.Pqueue.seq < b.Pqueue.seq))
          && sorted rest
        | _ -> true
      in
      sorted out && List.length out = List.length times)

let prop_multiset_preserved =
  QCheck.Test.make ~name:"drain returns every pushed element" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Pqueue.create () in
      List.iteri (fun seq time -> Pqueue.push q ~time ~seq time) times;
      let out = List.map (fun e -> e.Pqueue.payload) (Pqueue.drain q) in
      List.sort compare out = List.sort compare times)

(* Random interleavings of push and pop against a reference model: every
   pop must return the exact (time, seq) minimum of what is currently in
   the heap, with seq as the FIFO tie-break. [Some t] pushes at time [t];
   [None] pops. This exercises sift-down paths that drain-only properties
   never reach (pops from partially filled heaps mid-stream). *)
let prop_interleaved_order =
  QCheck.Test.make ~name:"interleaved push/pop pops exact (time, seq) minimum"
    ~count:300
    QCheck.(list (option (int_bound 50)))
    (fun ops ->
      let q = Pqueue.create () in
      let model = ref [] (* (time, seq) pairs currently in the heap *) in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some time ->
            Pqueue.push q ~time ~seq:!seq (time, !seq);
            model := (time, !seq) :: !model;
            incr seq
          | None -> (
            match (Pqueue.pop q, !model) with
            | None, [] -> ()
            | None, _ :: _ | Some _, [] -> ok := false
            | Some e, entries ->
              let expected =
                List.fold_left min (List.hd entries) (List.tl entries)
              in
              if (e.Pqueue.time, e.Pqueue.seq) <> expected then ok := false;
              model := List.filter (fun x -> x <> expected) entries))
        ops;
      (* Whatever survives must still drain in exact order. *)
      let rest = List.map (fun e -> (e.Pqueue.time, e.Pqueue.seq)) (Pqueue.drain q) in
      !ok && rest = List.sort compare !model)

(* The hot path allocates nothing: with the heap 16 deep, a steady stream of
   [pop_payload] + [push] pairs must not move [Gc.minor_words]. Run with int
   payloads and with preallocated closures, the engine's boxed payloads.
   The deep case fills 64 entries in time order, so the lane holds all but
   the first 32, then pops and pushes at the tail: pushes alternate between
   the lane and the heap as one or the other drains, and after a warm-up
   that has grown the ring, they allocate nothing either. *)
let check_pop_push_allocation_free ?(fill_time = fun i -> i * 37 land 255)
    ?(time = fun seq -> seq * 2654435761 land 0xffff) ?(warm = 0) what
    payloads =
  let q = Pqueue.create () in
  let depth = Array.length payloads in
  Array.iteri (fun i p -> Pqueue.push q ~time:(fill_time i) ~seq:i p) payloads;
  let step seq =
    let p = Pqueue.pop_payload q in
    Pqueue.push q ~time:(time seq) ~seq p
  in
  for seq = depth to depth + warm - 1 do
    step seq
  done;
  let pairs = 10_000 in
  let first = depth + warm in
  let before = Gc.minor_words () in
  for seq = first to first + pairs - 1 do
    step seq
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.))
    ("minor words over 10 000 pop+push pairs, " ^ what)
    0. words;
  Alcotest.(check int) (Printf.sprintf "still %d deep" depth) depth
    (Pqueue.length q)

let test_push_pop_allocation_free () =
  check_pop_push_allocation_free "int payloads" (Array.init 16 Fun.id);
  check_pop_push_allocation_free "closure payloads"
    (Array.init 16 (fun i () -> i));
  check_pop_push_allocation_free ~fill_time:Fun.id ~time:Fun.id ~warm:200
    "64 deep, in order at the tail"
    (Array.init 64 (fun i () -> i))

(* A deep in-order fill opens the lane once the heap holds 32 entries; a
   push that sorts before the lane's tail, or ties its time with a lower
   seq, goes to the heap. *)
let test_lane_opens () =
  let q = Pqueue.create () in
  for i = 0 to 99 do
    Pqueue.push q ~time:i ~seq:(i * 2) i
  done;
  Alcotest.(check int) "every push past the 32nd in the lane" 68
    (Pqueue.lane_length q);
  Pqueue.push q ~time:99 ~seq:197 (-1);
  Pqueue.push q ~time:50 ~seq:1_000 (-2);
  Alcotest.(check int) "earlier pushes go to the heap" 68
    (Pqueue.lane_length q);
  Pqueue.push q ~time:99 ~seq:199 (-3);
  Alcotest.(check int) "a later seq at the tail's time joins the lane" 69
    (Pqueue.lane_length q);
  let order = List.map (fun e -> e.Pqueue.payload) (Pqueue.drain q) in
  Alcotest.(check (list int)) "one total order"
    (List.init 50 Fun.id @ [ 50; -2 ] @ List.init 48 (fun i -> 51 + i)
    @ [ -1; 99; -3 ])
    order

(* Deep heaps with heavy time ties: up to ~2 000 pushes over 8 distinct
   times, interleaved with pops. Every pop must return the first-inserted
   entry among those with the smallest time, and whatever is left must
   drain as a stable sort by time of the insertion order. This walks the
   hole through many levels and along equal-time chains, where only [seq]
   decides the order. *)
let prop_deep_ties_stable =
  QCheck.Test.make ~name:"deep heap with time ties pops as a stable sort"
    ~count:40
    QCheck.(list_of_size Gen.(int_bound 2000) (option (int_bound 7)))
    (fun ops ->
      let q = Pqueue.create () in
      (* Live entries, newest first, as (time, seq). *)
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      let by_time (a, _) (b, _) = compare a b in
      List.iter
        (fun op ->
          match op with
          | Some time ->
            Pqueue.push q ~time ~seq:!seq !seq;
            model := (time, !seq) :: !model;
            incr seq
          | None -> (
            match List.stable_sort by_time (List.rev !model) with
            | [] -> if not (Pqueue.is_empty q) then ok := false
            | ((_, s) as expected) :: _ ->
              if Pqueue.min_time q <> fst expected || Pqueue.pop_payload q <> s
              then ok := false;
              model := List.filter (fun x -> x <> expected) !model))
        ops;
      let rest = List.map (fun e -> (e.Pqueue.time, e.Pqueue.seq)) (Pqueue.drain q) in
      !ok && rest = List.stable_sort by_time (List.rev !model))

(* The in-order lane against a sorted model. Pops interleave with three
   kinds of push: in-order runs long enough to open the lane, as an arrival
   plan scheduled before a run; random pushes around the clock (the last
   popped time), which tie with lane times on either side of their seqs;
   and pushes at the time of the last run's tail with a lower seq, as
   [Engine.place] gives a materialised element. Real seqs are multiples of
   1024, so the latter take unused seqs below the tail's. Every pop must
   return the exact (time, seq) minimum, through [min_time], [min_seq] and
   [pop_payload], and whatever is left must drain in order. *)
type lane_op = Plan of int * int list | Random of int | Under | Pops of int

module Pairs = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let prop_lane_order =
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 2,
            map2
              (fun start gaps -> Plan (start, gaps))
              (int_bound 40)
              (list_size (int_range 20 90) (int_bound 3)) );
          (4, map (fun d -> Random d) (int_bound 120));
          (2, return Under);
          (4, map (fun k -> Pops k) (int_range 1 40));
        ])
  in
  QCheck.Test.make ~name:"the in-order lane pops the exact (time, seq) minimum"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 25) op))
    (fun ops ->
      let q = Pqueue.create () in
      let model = ref Pairs.empty in
      let next = ref 1 in
      let clock = ref 0 in
      (* The last run's tail, and how many seqs below it are taken. *)
      let tail = ref None and under = ref 0 in
      let ok = ref true in
      let push time seq =
        Pqueue.push q ~time ~seq (time, seq);
        model := Pairs.add (time, seq) !model
      in
      let fresh () =
        let s = !next lsl 10 in
        incr next;
        s
      in
      let pop () =
        match Pairs.min_elt_opt !model with
        | None -> if not (Pqueue.is_empty q) then ok := false
        | Some ((time, seq) as m) ->
          if
            Pqueue.min_time q <> time
            || Pqueue.min_seq q <> seq
            || Pqueue.pop_payload q <> m
          then ok := false;
          model := Pairs.remove m !model;
          clock := time
      in
      List.iter
        (function
          | Plan (start, gaps) ->
            let time = ref (!clock + start) in
            List.iter
              (fun gap ->
                time := !time + gap;
                let seq = fresh () in
                push !time seq;
                tail := Some (!time, seq);
                under := 0)
              gaps
          | Random d -> push (!clock + d) (fresh ())
          | Under -> (
            match !tail with
            | Some (time, seq) when !under < 1023 ->
              incr under;
              push time (seq - !under)
            | _ -> ())
          | Pops k ->
            for _ = 1 to k do
              pop ()
            done)
        ops;
      let rest =
        List.map (fun e -> (e.Pqueue.time, e.Pqueue.seq)) (Pqueue.drain q)
      in
      !ok && rest = Pairs.elements !model)

(* Payload identity under the slot indirection. Each case is one or more
   segments separated by [clear]; a segment first pushes [k] entries (the
   first segment at least 33, so the heap grows past 16 and 32), then runs
   random pushes and pops. Every payload is a fresh closure returning its
   own (time, seq); a pop must return, physically, the closure pushed with
   the exact (time, seq) minimum. *)
type op = Push of int | Pop

let prop_payload_identity =
  let op =
    QCheck.Gen.(
      frequency [ (3, map (fun t -> Push t) (int_bound 40)); (2, return Pop) ])
  in
  let segment min_k =
    QCheck.Gen.(pair (int_range min_k 70) (list_size (int_bound 150) op))
  in
  let gen =
    QCheck.Gen.(pair (segment 33) (list_size (int_bound 3) (segment 0)))
  in
  QCheck.Test.make ~name:"boxed payloads pop with their own (time, seq)"
    ~count:150 (QCheck.make gen)
    (fun (first, rest) ->
      let q = Pqueue.create () in
      let model = Hashtbl.create 64 (* (time, seq) -> pushed closure *) in
      let seq = ref 0 in
      let ok = ref true in
      let push time =
        let key = (time, !seq) in
        let f () = key in
        Pqueue.push q ~time ~seq:!seq f;
        Hashtbl.replace model key f;
        incr seq
      in
      let pop () =
        let expected =
          Hashtbl.fold (fun k _ m -> min k m) model (max_int, 0)
        in
        let f = Pqueue.pop_payload q in
        if f () <> expected || Hashtbl.find model expected != f then
          ok := false;
        Hashtbl.remove model expected
      in
      List.iteri
        (fun i (k, ops) ->
          if i > 0 then begin
            Pqueue.clear q;
            Hashtbl.reset model
          end;
          for j = 1 to k do
            push (j * 7 mod 41)
          done;
          List.iter
            (function
              | Push time -> push time
              | Pop -> if Hashtbl.length model > 0 then pop ())
            ops)
        (first :: rest);
      while Hashtbl.length model > 0 do
        pop ()
      done;
      !ok && Pqueue.is_empty q)

(* Fills [q] with [n] closures, each capturing a fresh ref, and records them
   in [w]. Not inlined, so no stack slot of the caller keeps one alive. *)
let[@inline never] fill_tracked ?(in_order = false) q w n =
  for i = 0 to n - 1 do
    let r = ref i in
    let f () = !r in
    Weak.set w i (Some f);
    Pqueue.push q ~time:(if in_order then i else i * 13 mod 7) ~seq:i f
  done

let[@inline never] pop_n q n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Pqueue.pop_payload q))
  done

let live w =
  List.filter (fun i -> Weak.check w i) (List.init (Weak.length w) Fun.id)

(* The heap must not retain popped payloads: after [pop_payload] and after
   [clear], a full major collection frees them all except the documented
   filler, the first payload ever pushed (index 0 here). *)
let test_no_retention () =
  let n = 40 in
  let q = Pqueue.create () in
  let w = Weak.create n in
  fill_tracked q w n;
  pop_n q 25;
  Gc.full_major ();
  Alcotest.(check int) "after 25 pops: 15 live entries + filler" 16
    (List.length (live w));
  Alcotest.(check bool) "filler kept" true (Weak.check w 0);
  pop_n q 15;
  Gc.full_major ();
  Alcotest.(check (list int)) "drained: only the filler" [ 0 ] (live w);
  let w2 = Weak.create n in
  fill_tracked q w2 n;
  Pqueue.clear q;
  Gc.full_major ();
  Alcotest.(check (list int)) "after clear: nothing from the second fill" []
    (live w2);
  Alcotest.(check (list int)) "filler still the first push" [ 0 ] (live w);
  (* Keep the queue, and so its filler, reachable until here. *)
  Alcotest.(check int) "empty" 0 (Pqueue.length q);
  (* A deep in-order fill: the first 32 entries go to the heap and the
     other 68 to the lane. Popped lane entries are dropped as heap ones
     are. *)
  let n = 100 in
  let q = Pqueue.create () in
  let w = Weak.create n in
  fill_tracked ~in_order:true q w n;
  Alcotest.(check int) "the lane holds 68" 68 (Pqueue.lane_length q);
  pop_n q 60;
  Gc.full_major ();
  Alcotest.(check (list int)) "after 60 pops: 40 live entries + filler"
    (0 :: List.init 40 (fun i -> 60 + i))
    (live w);
  pop_n q 40;
  Gc.full_major ();
  Alcotest.(check (list int)) "deep queue drained: only the filler" [ 0 ]
    (live w);
  let w2 = Weak.create n in
  fill_tracked ~in_order:true q w2 n;
  Pqueue.clear q;
  Gc.full_major ();
  Alcotest.(check (list int)) "after clear: nothing from the deep refill" []
    (live w2);
  Alcotest.(check (list int)) "deep filler still the first push" [ 0 ]
    (live w);
  Alcotest.(check int) "deep queue empty" 0 (Pqueue.length q)

let suite =
  [
    Alcotest.test_case "empty queue" `Quick test_empty;
    Alcotest.test_case "pops in time order" `Quick test_ordering;
    Alcotest.test_case "FIFO tie-breaking" `Quick test_fifo_ties;
    Alcotest.test_case "peek keeps elements" `Quick test_peek_does_not_remove;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved_push_pop;
    Alcotest.test_case "pop+push allocates nothing" `Quick
      test_push_pop_allocation_free;
    Alcotest.test_case "popped and cleared payloads are not retained" `Quick
      test_no_retention;
    Alcotest.test_case "in-order pushes open the lane" `Quick test_lane_opens;
    Qc.to_alcotest prop_drain_sorted;
    Qc.to_alcotest prop_multiset_preserved;
    Qc.to_alcotest prop_interleaved_order;
    Qc.to_alcotest prop_deep_ties_stable;
    Qc.to_alcotest prop_payload_identity;
    Qc.to_alcotest prop_lane_order;
  ]
