(* Tests for the discrete-event engine. *)

open Eventsim

let test_time_starts_at_zero () =
  let eng = Engine.create () in
  Alcotest.(check int) "now" 0 (Engine.now eng)

let test_runs_in_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~at:30 (fun () -> log := 30 :: !log);
  Engine.schedule eng ~at:10 (fun () -> log := 10 :: !log);
  Engine.schedule eng ~at:20 (fun () -> log := 20 :: !log);
  Engine.run eng;
  Alcotest.(check (list int)) "order" [ 10; 20; 30 ] (List.rev !log);
  Alcotest.(check int) "final time" 30 (Engine.now eng)

let test_same_time_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    Engine.schedule eng ~at:7 (fun () -> log := i :: !log)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_schedule_in_past_rejected () =
  let eng = Engine.create () in
  Engine.schedule eng ~at:10 (fun () -> ());
  Engine.run eng;
  Alcotest.check_raises "past" (Invalid_argument
    "Engine.schedule: at=5 is in the past (now=10)")
    (fun () -> Engine.schedule eng ~at:5 (fun () -> ()))

let test_events_can_schedule_events () =
  let eng = Engine.create () in
  let hits = ref 0 in
  let rec chain n =
    if n > 0 then
      Engine.schedule_after eng ~delay:5 (fun () ->
          incr hits;
          chain (n - 1))
  in
  chain 10;
  Engine.run eng;
  Alcotest.(check int) "all ran" 10 !hits;
  Alcotest.(check int) "time advanced" 50 (Engine.now eng)

let test_run_until () =
  let eng = Engine.create () in
  let hits = ref 0 in
  List.iter
    (fun t -> Engine.schedule eng ~at:t (fun () -> incr hits))
    [ 10; 20; 30; 40 ];
  Engine.run ~until:25 eng;
  Alcotest.(check int) "only early events" 2 !hits;
  Alcotest.(check int) "pending" 2 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check int) "rest ran" 4 !hits

let test_run_until_advances_clock_when_empty () =
  let eng = Engine.create () in
  Engine.run ~until:100 eng;
  Alcotest.(check int) "clock moved" 100 (Engine.now eng)

let test_step () =
  let eng = Engine.create () in
  Alcotest.(check bool) "nothing to step" false (Engine.step eng);
  Engine.schedule eng ~at:3 (fun () -> ());
  Alcotest.(check bool) "stepped" true (Engine.step eng);
  Alcotest.(check int) "executed" 1 (Engine.events_executed eng)

let test_event_budget () =
  let eng = Engine.create ~max_events:100 () in
  let rec forever () = Engine.schedule_after eng ~delay:1 forever in
  forever ();
  Alcotest.check_raises "budget"
    (Engine.Deadlock "event budget exhausted (100 events executed)")
    (fun () -> Engine.run eng)

let test_negative_delay_rejected () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
      Engine.schedule_after eng ~delay:(-1) (fun () -> ()))

(* -- Elided chains that end on their own ------------------------------------

   A chain elided with [~until] needs no wake: [run] puts its first element
   at or after [until] into the heap itself, at its exact place, before the
   clock passes it. *)

(* A chain of [gap]-cycle elements from [start] (elided by an event at
   time 0) whose [fire] logs what runs. *)
let chain eng log name ~gap ~start ?until () =
  let w =
    Engine.wait ~owner:0 ~even_gap:gap ~odd_gap:gap
      ~fire:(fun j -> log := (name, j, Engine.now eng) :: !log)
      ~credit:ignore
  in
  Engine.schedule eng ~at:0 (fun () ->
      if not (Engine.elide ?until eng w ~at:start) then
        Alcotest.fail "elide refused");
  w

(* Element 0 at 10, element [j] at 10 + 10j: the first at or after 95 is
   element 9, at 100, and it is the only element that runs. *)
let test_chain_runs_its_end () =
  let eng = Engine.create () in
  let log = ref [] in
  ignore (chain eng log "a" ~gap:10 ~start:10 ~until:95 ());
  Engine.run eng;
  Alcotest.(check (list (triple string int int)))
    "end element" [ ("a", 9, 100) ] !log;
  Alcotest.(check int) "events" 2 (Engine.events_executed eng)

(* The end element is placed among same-time events exactly where the real
   chain's would run: a metronome stepping with the chain's gap ties with
   every element, started before or after the chain. *)
let test_chain_end_ties_exactly () =
  let run ~elided ~metronome_first =
    let eng = Engine.create () in
    let log = ref [] in
    let note name = log := (name, Engine.now eng) :: !log in
    let metronome () =
      let rec tick k () =
        note "tick";
        if k < 12 then Engine.schedule_after eng ~delay:10 (tick (k + 1))
      in
      Engine.schedule eng ~at:0 (tick 0)
    in
    if metronome_first then metronome ();
    (if elided then begin
       let w =
         Engine.wait ~owner:0 ~even_gap:10 ~odd_gap:10
           ~fire:(fun _ -> note "end")
           ~credit:ignore
       in
       Engine.schedule eng ~at:0 (fun () ->
           ignore (Engine.elide ~until:95 eng w ~at:10))
     end
     else
       let rec element j () =
         if j = 9 then note "end"
         else Engine.schedule_after eng ~delay:10 (element (j + 1))
       in
       Engine.schedule eng ~at:0 (fun () ->
           Engine.schedule eng ~at:10 (element 0)));
    if not metronome_first then metronome ();
    Engine.run eng;
    List.rev !log
  in
  List.iter
    (fun metronome_first ->
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "metronome first: %b" metronome_first)
        (run ~elided:false ~metronome_first)
        (run ~elided:true ~metronome_first))
    [ true; false ]

(* With the heap empty, only the earliest end is placed: chain [a] ends at
   50, and its end wakes chain [b] (no end of its own before 1008), whose
   next element, at 56, must still be virtual. *)
let test_chain_ends_one_at_a_time () =
  let eng = Engine.create () in
  let log = ref [] in
  let b = ref None in
  let a =
    Engine.wait ~owner:0 ~even_gap:10 ~odd_gap:10
      ~fire:(fun j ->
        log := ("a", j, Engine.now eng) :: !log;
        Option.iter (Engine.materialise eng) !b)
      ~credit:ignore
  in
  Engine.schedule eng ~at:0 (fun () ->
      ignore (Engine.elide ~until:45 eng a ~at:10));
  b := Some (chain eng log "b" ~gap:7 ~start:7 ~until:1_000 ());
  Engine.run eng;
  Alcotest.(check (list (triple string int int)))
    "b woken at its next element" [ ("a", 4, 50); ("b", 7, 56) ]
    (List.rev !log)

(* A chain without an end that nothing wakes: [run] reports it at once. *)
let test_unended_chain_deadlocks () =
  let eng = Engine.create () in
  let w =
    Engine.wait ~owner:3 ~even_gap:16 ~odd_gap:16 ~fire:ignore ~credit:ignore
  in
  Engine.schedule eng ~at:0 (fun () -> ignore (Engine.elide eng w ~at:16));
  Alcotest.check_raises "deadlock"
    (Engine.Deadlock
       "no event can end the elided waits of processors 3: the event heap is \
        empty")
    (fun () -> Engine.run eng);
  Alcotest.(check bool) "few events" true (Engine.events_executed eng < 5)

(* Element 0 is already the last: nothing to elide, so the caller
   schedules it. *)
let test_chain_ending_at_zero_refused () =
  let eng = Engine.create () in
  let w =
    Engine.wait ~owner:0 ~even_gap:10 ~odd_gap:10 ~fire:ignore ~credit:ignore
  in
  let elided = ref true in
  Engine.schedule eng ~at:0 (fun () ->
      elided := Engine.elide ~until:10 eng w ~at:10);
  Engine.run eng;
  Alcotest.(check bool) "refused" false !elided

let test_wide_gap_rejected () =
  Alcotest.check_raises "wide"
    (Invalid_argument "Engine.wait: chain gaps must be in [1, 65535]")
    (fun () ->
      ignore
        (Engine.wait ~owner:0 ~even_gap:(Engine.max_gap + 1) ~odd_gap:1
           ~fire:ignore ~credit:ignore))

(* -- The wait registry -------------------------------------------------------

   A wait takes a registry id when it leaves idle and gives it back when it
   returns, so a loop of spins, each building a fresh wait, keeps the
   registry at one wait in use while it runs and leaves none after [run]. *)
let test_registry_bounded () =
  let open Hector in
  let eng = Engine.create () in
  let m = Machine.create eng Config.hector in
  let cell = Machine.alloc m ~home:0 0 in
  let ctx = Ctx.create m ~proc:0 (Rng.create 1) in
  let rounds = 200 and used = ref 0 and size = ref 0 in
  Process.spawn eng (fun () ->
      for r = 1 to rounds do
        ignore (Ctx.spin_while ctx cell (fun v -> v < r))
      done);
  Process.spawn eng (fun () ->
      for r = 1 to rounds do
        Process.pause eng 1_000;
        let u, n = Engine.registry eng in
        used := max !used u;
        size := max !size n;
        Machine.write m ~proc:1 cell r
      done);
  Engine.run eng;
  Alcotest.(check int) "one wait in use at a time" 1 !used;
  Alcotest.(check bool) "registry stays small" true (!size <= 4);
  Alcotest.(check int) "none in use after run" 0 (fst (Engine.registry eng));
  Alcotest.(check bool) "the spins were elided" true
    (Engine.events_executed eng < 20 * rounds)

let suite =
  [
    Alcotest.test_case "time starts at zero" `Quick test_time_starts_at_zero;
    Alcotest.test_case "runs events in time order" `Quick test_runs_in_order;
    Alcotest.test_case "same-time events run FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "scheduling in the past fails" `Quick
      test_schedule_in_past_rejected;
    Alcotest.test_case "events schedule events" `Quick
      test_events_can_schedule_events;
    Alcotest.test_case "run ~until leaves later events" `Quick test_run_until;
    Alcotest.test_case "run ~until advances an empty clock" `Quick
      test_run_until_advances_clock_when_empty;
    Alcotest.test_case "single step" `Quick test_step;
    Alcotest.test_case "livelock budget" `Quick test_event_budget;
    Alcotest.test_case "negative delay rejected" `Quick
      test_negative_delay_rejected;
    Alcotest.test_case "elided chain runs its end element" `Quick
      test_chain_runs_its_end;
    Alcotest.test_case "chain end ties exactly" `Quick
      test_chain_end_ties_exactly;
    Alcotest.test_case "chain ends placed one at a time" `Quick
      test_chain_ends_one_at_a_time;
    Alcotest.test_case "unended chain raises Deadlock" `Quick
      test_unended_chain_deadlocks;
    Alcotest.test_case "chain ending at element 0 not elided" `Quick
      test_chain_ending_at_zero_refused;
    Alcotest.test_case "gap wider than max_gap rejected" `Quick
      test_wide_gap_rejected;
    Alcotest.test_case "wait registry stays bounded" `Quick
      test_registry_bounded;
  ]
