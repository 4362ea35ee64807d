(* Tests for effect-based simulated processes. *)

open Eventsim

let test_pause_advances_time () =
  let eng = Engine.create () in
  let seen = ref (-1) in
  Process.spawn eng (fun () ->
      Process.pause eng 100;
      seen := Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "resumed at 100" 100 !seen

let test_pause_zero_is_noop () =
  let eng = Engine.create () in
  let ran = ref false in
  Process.spawn eng (fun () ->
      Process.pause eng 0;
      ran := true;
      Alcotest.(check int) "no time passed" 0 (Engine.now eng));
  Engine.run eng;
  Alcotest.(check bool) "ran" true !ran

let test_wait_until () =
  let eng = Engine.create () in
  let log = ref [] in
  Process.spawn eng (fun () ->
      Process.wait_until eng 50;
      log := ("a", Engine.now eng) :: !log;
      Process.wait_until eng 70;
      log := ("b", Engine.now eng) :: !log);
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "waits hit their times"
    [ ("a", 50); ("b", 70) ]
    (List.rev !log)

let test_wait_until_past_rejected () =
  let eng = Engine.create () in
  let raised = ref false in
  Process.spawn eng (fun () ->
      Process.pause eng 10;
      (try Process.wait_until eng 5 with Invalid_argument _ -> raised := true));
  Engine.run eng;
  Alcotest.(check bool) "raised" true !raised

let test_spawn_at () =
  let eng = Engine.create () in
  let started = ref (-1) in
  Process.spawn_at eng ~at:42 (fun () -> started := Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "starts at 42" 42 !started

let test_two_processes_interleave () =
  let eng = Engine.create () in
  let log = ref [] in
  let worker name delay =
    Process.spawn eng (fun () ->
        for i = 1 to 3 do
          Process.pause eng delay;
          log := (name, i, Engine.now eng) :: !log
        done)
  in
  worker "fast" 10;
  worker "slow" 25;
  Engine.run eng;
  let names = List.map (fun (n, _, _) -> n) (List.rev !log) in
  Alcotest.(check (list string))
    "interleaving by time"
    [ "fast"; "fast"; "slow"; "fast"; "slow"; "slow" ]
    names

let test_suspend_manual_resume () =
  let eng = Engine.create () in
  let resume_slot = ref None in
  let state = ref "init" in
  Process.spawn eng (fun () ->
      state := "suspended";
      Process.suspend (fun resume -> resume_slot := Some resume);
      state := "resumed");
  Engine.run eng;
  Alcotest.(check string) "parked" "suspended" !state;
  (match !resume_slot with
  | Some resume -> resume ()
  | None -> Alcotest.fail "no resume captured");
  Alcotest.(check string) "woke" "resumed" !state

let test_yield_lets_same_time_events_run () =
  let eng = Engine.create () in
  let log = ref [] in
  Process.spawn eng (fun () ->
      log := "a1" :: !log;
      Process.yield eng;
      log := "a2" :: !log);
  Process.spawn eng (fun () -> log := "b" :: !log);
  Engine.run eng;
  Alcotest.(check (list string)) "b ran between" [ "a1"; "b"; "a2" ]
    (List.rev !log)

let test_many_processes () =
  let eng = Engine.create () in
  let finished = ref 0 in
  for i = 1 to 200 do
    Process.spawn eng (fun () ->
        Process.pause eng i;
        incr finished)
  done;
  Engine.run eng;
  Alcotest.(check int) "all finished" 200 !finished;
  Alcotest.(check int) "time is max delay" 200 (Engine.now eng)

(* -- In-place dispatch ------------------------------------------------------

   A sleep whose wake is provably the next dispatch runs in place
   ({!Engine.sleep_in_place}); everything observable — times, order, seqs
   and the event count — must be as if it had gone through the heap. *)

(* A random fiber program. [Wake j] synchronously resumes the [j]-th of
   the fibers parked when it runs (by id, cyclically), as [Ctx.post_ipi]
   resumes an idle processor. [Tail] and [Tpark] suspend with
   {!Process.suspend_tail}, whose resumes are always an event's last act,
   as [Ctx]'s waits resume their fibers: [Tail (h, g)] is resumed after [h]
   events [g] cycles apart (at once, inside the suspension, for [h = 0]),
   and [Twake j] picks the [j]-th tail-parked fiber the same way and
   resumes it by an event at the current time. *)
type op =
  | Pause of int
  | Until of int (* [wait_until (now + d)] *)
  | Fill of int
  | Read of int
  | Spawn of prog
  | Park
  | Wake of int
  | Tail of int * int
  | Tpark
  | Twake of int

and prog = { id : int; ops : op list }

let n_ivars = 3

let rec pp_prog ppf { id; ops } =
  Format.fprintf ppf "@[<hov 1>[%d:" id;
  List.iter
    (fun op ->
      match op with
      | Pause d -> Format.fprintf ppf "@ p%d" d
      | Until d -> Format.fprintf ppf "@ u%d" d
      | Fill i -> Format.fprintf ppf "@ f%d" i
      | Read i -> Format.fprintf ppf "@ r%d" i
      | Spawn p -> Format.fprintf ppf "@ s%a" pp_prog p
      | Park -> Format.fprintf ppf "@ park"
      | Wake j -> Format.fprintf ppf "@ w%d" j
      | Tail (h, g) -> Format.fprintf ppf "@ t%d.%d" h g
      | Tpark -> Format.fprintf ppf "@ tpark"
      | Twake j -> Format.fprintf ppf "@ tw%d" j)
    ops;
  Format.fprintf ppf "]@]"

(* Programs with ids numbered in pre-order. Delays are small so that wakes
   tie often. *)
let gen_progs =
  let open QCheck.Gen in
  let rec raw depth =
    list_size (int_range 1 8)
      (frequency
         ([
            (6, map (fun d -> `Pause d) (int_bound 4));
            (3, map (fun d -> `Until d) (int_bound 3));
            (2, map (fun i -> `Fill i) (int_bound (n_ivars - 1)));
            (2, map (fun i -> `Read i) (int_bound (n_ivars - 1)));
            (1, return `Park);
            (2, map (fun j -> `Wake j) (int_bound 7));
            (3, map2 (fun h g -> `Tail (h, g)) (int_bound 2) (int_bound 3));
            (1, return `Tpark);
            (2, map (fun j -> `Twake j) (int_bound 7));
          ]
         @ if depth > 0 then [ (1, map (fun p -> `Spawn p) (raw (depth - 1))) ]
           else []))
  in
  map
    (fun raws ->
      let next = ref 0 in
      let rec number ops =
        let id = !next in
        incr next;
        {
          id;
          ops =
            List.map
              (function
                | `Pause d -> Pause d
                | `Until d -> Until d
                | `Fill i -> Fill i
                | `Read i -> Read i
                | `Park -> Park
                | `Wake j -> Wake j
                | `Tail (h, g) -> Tail (h, g)
                | `Tpark -> Tpark
                | `Twake j -> Twake j
                | `Spawn r -> Spawn (number r))
              ops;
        }
      in
      List.map number raws)
    (list_size (int_range 1 4) (raw 2))

type scenario = {
  progs : prog list;
  until : int; (* a first [run ~until], or -1 for none *)
  budget : int;
}

let gen_scenario =
  QCheck.Gen.(
    map3
      (fun progs until budget -> { progs; until; budget })
      gen_progs
      (frequency [ (1, return (-1)); (2, int_bound 12) ])
      (frequency [ (3, return 1_000); (1, int_range 1 30) ]))

let print_scenario s =
  Format.asprintf "until=%d budget=%d@ %a" s.until s.budget
    (Format.pp_print_list pp_prog) s.progs

(* Run [s] on a fresh engine: [start eng prog] starts one top-level
   program. The trace of (time, fiber id * 100 + op index) after each op,
   with (time, -1 - events executed) where a first [run ~until] returns;
   the events executed and whether the budget ran out. *)
let drive s start =
  let eng = Engine.create ~max_events:s.budget () in
  let log = ref [] in
  let note id k = log := (Engine.now eng, (id * 100) + k) :: !log in
  let started = start eng note in
  List.iter started s.progs;
  let exhausted =
    try
      if s.until >= 0 then begin
        Engine.run ~until:s.until eng;
        log := (Engine.now eng, -1 - Engine.events_executed eng) :: !log
      end;
      Engine.run eng;
      false
    with Engine.Deadlock _ -> true
  in
  (List.rev !log, Engine.events_executed eng, exhausted)

(* [k ()] as the last act of the [hops]-th event [gap] cycles apart, or at
   once for [hops = 0]. *)
let rec hop eng hops gap k =
  if hops = 0 then k ()
  else Engine.schedule_after eng ~delay:gap (fun () -> hop eng (hops - 1) gap k)

(* The [j]-th of the fibers parked in [tbl], by id and cyclically, if any
   is. Both interpreters resolve a wake against the same parked set. *)
let pick tbl j =
  match List.sort compare (Hashtbl.fold (fun id _ ids -> id :: ids) tbl []) with
  | [] -> None
  | ids -> Some (List.nth ids (j mod List.length ids))

(* Resume fiber [id] of [tbl], if it is parked there. *)
let resume tbl id =
  match Hashtbl.find_opt tbl id with
  | Some resume ->
    Hashtbl.remove tbl id;
    resume ()
  | None -> ()

let wake parked j = Option.iter (resume parked) (pick parked j)

(* An event now that resumes the [j]-th tail-parked fiber, if it is still
   parked then. *)
let twake eng tparked j =
  Option.iter
    (fun id ->
      Engine.schedule eng ~at:(Engine.now eng) (fun () -> resume tparked id))
    (pick tparked j)

(* The program as fibers. *)
let as_fibers eng note =
  let ivars = Array.init n_ivars (fun _ -> Ivar.create ()) in
  let parked = Hashtbl.create 8 and tparked = Hashtbl.create 8 in
  let rec fiber { id; ops } () =
    List.iteri
      (fun k op ->
        (match op with
        | Pause d -> Process.pause eng d
        | Until d -> Process.wait_until eng (Engine.now eng + d)
        | Fill i -> if not (Ivar.is_full ivars.(i)) then Ivar.fill eng ivars.(i) ()
        | Read i -> Ivar.read ivars.(i)
        | Spawn p -> Process.spawn eng (fiber p)
        | Park -> Process.suspend (fun resume -> Hashtbl.replace parked id resume)
        | Wake j -> wake parked j
        | Tail (h, g) -> Process.suspend_tail eng (hop eng h g)
        | Tpark ->
          Process.suspend_tail eng (fun resume ->
              Hashtbl.replace tparked id resume)
        | Twake j -> twake eng tparked j);
        note id k)
      ops
  in
  fun p -> Process.spawn eng (fiber p)

(* The same program as plain engine callbacks: each suspension schedules
   (or stores) the rest of the program as a thunk. *)
let as_callbacks eng note =
  let full = Array.make n_ivars false in
  let readers = Array.make n_ivars [] in
  let parked = Hashtbl.create 8 and tparked = Hashtbl.create 8 in
  let rec exec id k = function
    | [] -> ()
    | op :: rest -> (
      let next () =
        note id k;
        exec id (k + 1) rest
      in
      match op with
      | Pause 0 -> next ()
      | Pause d -> Engine.schedule_after eng ~delay:d next
      | Until d -> Engine.schedule eng ~at:(Engine.now eng + d) next
      | Fill i ->
        if not full.(i) then begin
          full.(i) <- true;
          List.iter
            (fun r -> Engine.schedule eng ~at:(Engine.now eng) r)
            (List.rev readers.(i));
          readers.(i) <- []
        end;
        next ()
      | Read i -> if full.(i) then next () else readers.(i) <- next :: readers.(i)
      | Spawn p ->
        Engine.schedule eng ~at:(Engine.now eng) (fun () -> exec p.id 0 p.ops);
        next ()
      | Park -> Hashtbl.replace parked id next
      | Wake j ->
        wake parked j;
        next ()
      | Tail (h, g) -> hop eng h g next
      | Tpark -> Hashtbl.replace tparked id next
      | Twake j ->
        twake eng tparked j;
        next ())
  in
  fun p ->
    Engine.schedule eng ~at:(Engine.now eng) (fun () -> exec p.id 0 p.ops)

let prop_in_place_matches_callbacks =
  QCheck.Test.make
    ~name:"in-place sleeps replay the program as engine callbacks" ~count:500
    (QCheck.make ~print:print_scenario gen_scenario) (fun s ->
      drive s as_fibers = drive s as_callbacks)

(* Events at 10, 20 and 30 under [step]: one per step, even though each
   wake would be the next dispatch under [run]. *)
let test_no_in_place_under_step () =
  let eng = Engine.create () in
  let log = ref [] in
  Process.spawn eng (fun () ->
      for _ = 1 to 3 do
        Process.pause eng 10;
        log := Engine.now eng :: !log
      done);
  let steps = ref [] in
  while Engine.step eng do
    steps := (Engine.now eng, Engine.events_executed eng, List.length !log)
             :: !steps
  done;
  Alcotest.(check (list (triple int int int)))
    "one event per step"
    [ (0, 1, 0); (10, 2, 1); (20, 3, 2); (30, 4, 3) ]
    (List.rev !steps)

(* A wake at [until] runs; the sleep after it, past [until], suspends and
   leaves the clock at the limit. *)
let test_pause_past_until_suspends () =
  let eng = Engine.create () in
  let log = ref [] in
  Process.spawn eng (fun () ->
      Process.pause eng 10;
      log := Engine.now eng :: !log;
      Process.pause eng 40;
      log := Engine.now eng :: !log;
      Process.pause eng 1;
      log := Engine.now eng :: !log);
  Engine.run ~until:50 eng;
  Alcotest.(check (list int)) "ran to the limit" [ 10; 50 ] (List.rev !log);
  Alcotest.(check int) "clock at the limit" 50 (Engine.now eng);
  Alcotest.(check int) "wake queued" 1 (Engine.pending eng);
  Alcotest.(check int) "events" 3 (Engine.events_executed eng);
  Engine.run eng;
  Alcotest.(check (list int)) "then the rest" [ 10; 50; 51 ] (List.rev !log);
  Alcotest.(check int) "events after" 4 (Engine.events_executed eng)

(* Fiber [b] is parked; fiber [a], running from its own sleep, resumes it
   synchronously. [b]'s sleep must not run in place: [a]'s code after the
   resume runs first, at the same time. *)
let test_synchronous_resume_never_runs_ahead () =
  let eng = Engine.create () in
  let log = ref [] in
  let note s = log := (s, Engine.now eng) :: !log in
  let parked = ref None in
  Process.spawn eng (fun () ->
      Process.suspend (fun resume -> parked := Some resume);
      note "b resumed";
      Process.pause eng 10;
      note "b slept");
  Process.spawn eng (fun () ->
      Process.pause eng 5;
      Option.iter (fun resume -> resume ()) !parked;
      note "a after resume";
      Process.pause eng 3;
      note "a slept");
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "a's code runs before b's sleep ends"
    [ ("b resumed", 5); ("a after resume", 5); ("a slept", 8); ("b slept", 15) ]
    (List.rev !log)

(* As above, but [b] then suspends with [suspend_tail] and is resumed
   inside the suspension itself: that resume is in the dispatch that
   suspended, so [b]'s sleep still must not run ahead of [a]'s code. *)
let test_synchronous_tail_resume_never_runs_ahead () =
  let eng = Engine.create () in
  let log = ref [] in
  let note s = log := (s, Engine.now eng) :: !log in
  let parked = ref None in
  Process.spawn eng (fun () ->
      Process.suspend (fun resume -> parked := Some resume);
      Process.suspend_tail eng (fun resume -> resume ());
      note "b resumed";
      Process.pause eng 10;
      note "b slept");
  Process.spawn eng (fun () ->
      Process.pause eng 5;
      Option.iter (fun resume -> resume ()) !parked;
      note "a after resume");
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "a's code runs before b's sleep ends"
    [ ("b resumed", 5); ("a after resume", 5); ("b slept", 15) ]
    (List.rev !log)

(* The same through [Ctx.post_ipi]: the idle processor's interrupt entry
   is a sleep, and the poster's code after the post runs first. *)
let test_post_ipi_never_runs_ahead () =
  let open Hector in
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let target = Ctx.create machine ~proc:1 (Rng.create 1) in
  let sender = Ctx.create machine ~proc:0 (Rng.create 2) in
  let log = ref [] in
  let note s = log := (s, Engine.now eng) :: !log in
  Process.spawn eng (fun () -> Ctx.idle_loop target);
  Process.spawn eng (fun () ->
      Ctx.work sender 5;
      Ctx.post_ipi target (fun _ -> note "handler");
      note "sender after post";
      Ctx.work sender 1);
  Engine.run ~until:1_000 eng;
  match List.rev !log with
  | [ ("sender after post", 5); ("handler", h) ] when h > 5 -> ()
  | l ->
    Alcotest.failf "order: %s"
      (String.concat "; " (List.map (fun (s, t) -> Printf.sprintf "%s@%d" s t) l))

(* A fiber sleeping past the budget: it runs out at the same count, with
   the clock where the heap round trip leaves it. *)
let test_budget_same_count () =
  let eng = Engine.create ~max_events:100 () in
  Process.spawn eng (fun () ->
      for _ = 1 to 1_000 do
        Process.pause eng 1
      done);
  (match Engine.run eng with
  | () -> Alcotest.fail "no Deadlock"
  | exception Engine.Deadlock _ -> ());
  Alcotest.(check int) "events" 101 (Engine.events_executed eng);
  Alcotest.(check int) "clock" 100 (Engine.now eng)

(* A [run] that raises leaves no limit behind: [step] afterwards still
   runs one event at a time. *)
let test_raise_leaves_no_limit () =
  let eng = Engine.create () in
  let log = ref [] in
  Process.spawn eng (fun () ->
      Process.pause eng 2;
      failwith "boom");
  Process.spawn eng (fun () ->
      Process.pause eng 5;
      log := Engine.now eng :: !log;
      Process.pause eng 1;
      log := Engine.now eng :: !log);
  (match Engine.run eng with
  | () -> Alcotest.fail "no exception"
  | exception Failure _ -> ());
  ignore (Engine.step eng);
  Alcotest.(check (list int)) "one wake per step" [ 5 ] !log;
  ignore (Engine.step eng);
  Alcotest.(check (list int)) "then the next" [ 6; 5 ] !log

let suite =
  [
    Alcotest.test_case "pause advances virtual time" `Quick
      test_pause_advances_time;
    Alcotest.test_case "pause 0 is a no-op" `Quick test_pause_zero_is_noop;
    Alcotest.test_case "wait_until" `Quick test_wait_until;
    Alcotest.test_case "wait_until in the past fails" `Quick
      test_wait_until_past_rejected;
    Alcotest.test_case "spawn_at" `Quick test_spawn_at;
    Alcotest.test_case "two processes interleave" `Quick
      test_two_processes_interleave;
    Alcotest.test_case "manual suspend/resume" `Quick test_suspend_manual_resume;
    Alcotest.test_case "yield" `Quick test_yield_lets_same_time_events_run;
    Alcotest.test_case "200 processes" `Quick test_many_processes;
    Qc.to_alcotest prop_in_place_matches_callbacks;
    Alcotest.test_case "nothing runs in place under step" `Quick
      test_no_in_place_under_step;
    Alcotest.test_case "a sleep past run ~until suspends" `Quick
      test_pause_past_until_suspends;
    Alcotest.test_case "a synchronous resume never runs ahead" `Quick
      test_synchronous_resume_never_runs_ahead;
    Alcotest.test_case "a synchronous tail resume never runs ahead" `Quick
      test_synchronous_tail_resume_never_runs_ahead;
    Alcotest.test_case "a post_ipi wake never runs ahead" `Quick
      test_post_ipi_never_runs_ahead;
    Alcotest.test_case "budget exhaustion at the same count" `Quick
      test_budget_same_count;
    Alcotest.test_case "a run that raises leaves no limit" `Quick
      test_raise_leaves_no_limit;
  ]
