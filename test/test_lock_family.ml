(* Tests for the lock-family extensions (ticket, Anderson) and the
   four-classes capstone workload. *)

open Eventsim
open Hector
open Locks

let make_numa () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.numachine in
  let ctx p = Ctx.create machine ~proc:p (Rng.create (600 + p)) in
  (eng, machine, ctx)

let stress_lock acquire release machine eng ctx_of =
  let inside = ref 0 and peak = ref 0 and total = ref 0 in
  for proc = 0 to 7 do
    let ctx = ctx_of proc in
    Process.spawn eng (fun () ->
        for _ = 1 to 25 do
          acquire ctx;
          incr inside;
          peak := max !peak !inside;
          incr total;
          Ctx.work ctx 40;
          decr inside;
          release ctx
        done)
  done;
  Engine.run eng;
  Alcotest.(check int) "mutual exclusion" 1 !peak;
  Alcotest.(check int) "all ran" 200 !total;
  ignore machine

let test_ticket_mutual_exclusion () =
  let eng, machine, ctx = make_numa () in
  let lock = Ticket_lock.create ~home:0 machine in
  stress_lock (Ticket_lock.acquire lock) (Ticket_lock.release lock) machine eng ctx;
  Alcotest.(check int) "acquisitions" 200 (Ticket_lock.acquisitions lock);
  Alcotest.(check bool) "free at end" true (Ticket_lock.is_free lock)

let test_ticket_fifo () =
  let eng, machine, ctx = make_numa () in
  let lock = Ticket_lock.create ~home:0 machine in
  let order = ref [] in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Ticket_lock.acquire lock c;
      Ctx.work c 3000;
      Ticket_lock.release lock c);
  for p = 1 to 4 do
    Process.spawn eng (fun () ->
        let c = ctx p in
        Process.pause eng (150 * p);
        Ticket_lock.acquire lock c;
        order := p :: !order;
        Ticket_lock.release lock c)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "tickets are FIFO" [ 1; 2; 3; 4 ]
    (List.rev !order)

let test_ticket_needs_cas () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  Alcotest.(check bool) "refused on swap-only HECTOR" true
    (match Ticket_lock.create machine with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_anderson_mutual_exclusion () =
  let eng, machine, ctx = make_numa () in
  let lock = Anderson_lock.create ~home:0 machine in
  stress_lock (Anderson_lock.acquire lock) (Anderson_lock.release lock) machine
    eng ctx;
  Alcotest.(check int) "acquisitions" 200 (Anderson_lock.acquisitions lock)

let test_anderson_fifo () =
  let eng, machine, ctx = make_numa () in
  let lock = Anderson_lock.create ~home:0 machine in
  let order = ref [] in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Anderson_lock.acquire lock c;
      Ctx.work c 3000;
      Anderson_lock.release lock c);
  for p = 1 to 4 do
    Process.spawn eng (fun () ->
        let c = ctx p in
        Process.pause eng (150 * p);
        Anderson_lock.acquire lock c;
        order := p :: !order;
        Anderson_lock.release lock c)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "slots are FIFO" [ 1; 2; 3; 4 ] (List.rev !order)

let test_space_accounting () =
  let w a = Lock.space_words ~n_procs:16 a in
  Alcotest.(check int) "spin" 1 (w (Lock.Spin { max_backoff_us = 35.0 }));
  Alcotest.(check int) "ticket" 2 (w Lock.Ticket);
  Alcotest.(check int) "anderson" 17 (w Lock.Anderson);
  (* "an additional two words per actively spinning processor" *)
  Alcotest.(check int) "mcs" 33 (w Lock.Mcs_h2);
  Alcotest.(check bool) "clh comparable to mcs" true (w Lock.Clh <= w Lock.Mcs_h2);
  (* The NUMA composites at P = 16, C = 4 (the numachine clustering); the
     formulas are documented in lock.mli. *)
  let w4 a = Lock.space_words ~n_clusters:4 ~n_procs:16 a in
  Alcotest.(check int) "cohort = global + C*local + 2C" 173 (w4 Lock.c_mcs_mcs);
  Alcotest.(check int) "hmcs = 1 + 3C + 2P" 45 (w4 Lock.hmcs);
  Alcotest.(check int) "cna = 3 + 3P" 51 (w4 Lock.cna);
  (* CNA's "compact" claim: its footprint does not grow with the cluster
     count. *)
  Alcotest.(check int) "cna is cluster-independent" (w4 Lock.cna)
    (Lock.space_words ~n_clusters:1 ~n_procs:16 Lock.cna)

(* The capability table: every algorithm the CLI can name plus the
   configurations the paper's figures and the composites' edge cases use,
   each with the facts a built instance must report. The abort and crash
   suites draw their algorithm lists from it. *)
type row = {
  algo : Lock.algo;
  name : string;
  abortable : bool;
  recoverable : bool;
  cas : bool;
  words : int; (* space_words ~n_clusters:4 ~n_procs:16 *)
}

let row algo name ~abortable ~recoverable ~cas ~words =
  { algo; name; abortable; recoverable; cas; words }

let table =
  let c_ticket =
    Lock.Cohort
      {
        local = Lock.Ticket;
        global = Lock.Ticket;
        max_handoffs = Cohort.default_max_handoffs;
      }
  in
  [
    row (Lock.Spin { max_backoff_us = 35.0 }) "Spin(35us)" ~abortable:true
      ~recoverable:true ~cas:false ~words:1;
    row (Lock.Spin { max_backoff_us = 2000.0 }) "Spin(2ms)" ~abortable:true
      ~recoverable:true ~cas:false ~words:1;
    row Lock.Mcs_original "MCS" ~abortable:true ~recoverable:true ~cas:false
      ~words:33;
    row Lock.Mcs_h1 "H1-MCS" ~abortable:true ~recoverable:true ~cas:false
      ~words:33;
    row Lock.Mcs_h2 "H2-MCS" ~abortable:true ~recoverable:true ~cas:false
      ~words:33;
    row Lock.Mcs_cas "H2-MCS(cas)" ~abortable:true ~recoverable:true ~cas:true
      ~words:33;
    row Lock.Clh "CLH" ~abortable:true ~recoverable:true ~cas:false ~words:18;
    (* A drawn ticket cannot be handed back, but waiters recover in-spin. *)
    row Lock.Ticket "Ticket" ~abortable:false ~recoverable:true ~cas:true
      ~words:2;
    row Lock.Anderson "Anderson" ~abortable:true ~recoverable:true ~cas:true
      ~words:17;
    (* Blocked waiters are the scheduler's: neither capability. *)
    row (Lock.Spin_then_block { spin_us = 5.0 }) "STB(5us)" ~abortable:false
      ~recoverable:false ~cas:false ~words:1;
    row Lock.Null "none" ~abortable:true ~recoverable:false ~cas:false ~words:0;
    row Lock.c_mcs_mcs "C-H1-MCS-H1-MCS" ~abortable:true ~recoverable:true
      ~cas:false ~words:173;
    row Lock.hmcs "HMCS" ~abortable:true ~recoverable:true ~cas:false ~words:45;
    row Lock.cna "CNA" ~abortable:true ~recoverable:true ~cas:false ~words:51;
    row
      (Lock.Rw
         {
           writer = Lock.c_mcs_mcs;
           policy = Rwlock.Writer_blocking;
           centralised = false;
         })
      "RW-C-H1-MCS-H1-MCS" ~abortable:true ~recoverable:true ~cas:true
      ~words:177;
    (* Unlike a cohort, an RW lock over Ticket stays recoverable: the
       writer's in-spin repair hands the writer lock on and the next
       writer's sweep owns the gates, so the crash property holds. *)
    row
      (Lock.Rw
         {
           writer = Lock.Ticket;
           policy = Rwlock.Writer_blocking;
           centralised = false;
         })
      "RW-Ticket" ~abortable:false ~recoverable:true ~cas:true ~words:6;
    (* Capabilities belong to the instance: a non-abortable constituent
       makes the cohort non-abortable, and a cohort over Ticket cannot be
       recovered (Ticket's in-spin repair would release one constituent
       behind the cohort's back). *)
    row c_ticket "C-Ticket-Ticket" ~abortable:false ~recoverable:false
      ~cas:true ~words:18;
  ]

(* Each row's algorithm built on a compare&swap machine. *)
let built () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.numachine in
  List.map (fun r -> (r, Lock.make machine r.algo)) table

let algos_where p =
  List.filter_map (fun (r, l) -> if p l then Some r.algo else None) (built ())

let test_capability_table () =
  List.iter
    (fun (r, (l : Lock.t)) ->
      let n = r.name in
      Alcotest.(check string) (n ^ " algo_name") r.name (Lock.algo_name r.algo);
      Alcotest.(check string) (n ^ " name") r.name l.Lock.name;
      Alcotest.(check bool) (n ^ " abortable") r.abortable l.Lock.abortable;
      Alcotest.(check bool) (n ^ " recoverable") r.recoverable l.Lock.recoverable;
      Alcotest.(check bool) (n ^ " needs_cas") r.cas (Lock.needs_cas r.algo);
      Alcotest.(check int) (n ^ " space_words") r.words
        (Lock.space_words ~n_clusters:4 ~n_procs:16 r.algo);
      Alcotest.(check bool) (n ^ " free when built") true (l.Lock.is_free ()))
    (built ());
  List.iter
    (fun (s, a) ->
      Alcotest.(check bool)
        (Printf.sprintf "spelling %S is in the table" s)
        true
        (List.exists (fun r -> r.algo = a) table))
    Lock.spellings

(* Each role check in [Lock.build]: a cohort takes base algorithms only,
   an RW writer a base algorithm or a NUMA composite; [Null] has no
   instance to build. *)
let test_invalid_constructions () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.numachine in
  let cohort local =
    Lock.Cohort { local; global = Lock.Mcs_h1; max_handoffs = 4 }
  in
  let rw writer =
    Lock.Rw { writer; policy = Rwlock.Writer_blocking; centralised = false }
  in
  List.iter
    (fun algo ->
      Alcotest.(check bool)
        (Lock.algo_name algo ^ " refused")
        true
        (match Lock.make machine algo with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [
      cohort Lock.cna;
      cohort Lock.Null;
      cohort (Lock.Spin_then_block { spin_us = 5.0 });
      rw Lock.Null;
      rw (rw Lock.Mcs_h1);
    ];
  Alcotest.(check bool) "build Null refused" true
    (match
       Lock.build machine ~topo:(Lock_core.topo_of_machine machine) Lock.Null
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* [Lock.of_string] is the CLI's [--lock] parser: a spin cap under 1 us is
   refused at parse time (a usage error) instead of raising from
   [Backoff.create] once the run has started. *)
let test_of_string () =
  let parses s =
    match Lock.of_string s with Ok a -> Some (Lock.algo_name a) | Error _ -> None
  in
  List.iter
    (fun s -> Alcotest.(check (option string)) s None (parses s))
    [ "spin:0"; "spin:-5"; "spin:0.3"; "spin:nan"; "spin:inf"; "bogus"; "" ];
  Alcotest.(check (option string)) "spin:35" (Some "Spin(35us)") (parses "spin:35");
  Alcotest.(check (option string)) "spin:1" (Some "Spin(1us)") (parses "spin:1");
  Alcotest.(check (option string)) "case-insensitive" (Some "CNA") (parses "CNA");
  List.iter
    (fun (s, a) ->
      Alcotest.(check (option string)) s (Some (Lock.algo_name a)) (parses s))
    Lock.spellings

let test_lock_family_via_uniform_interface () =
  let eng, machine, ctx = make_numa () in
  List.iter
    (fun algo ->
      let lock = Lock.make machine algo in
      Process.spawn eng (fun () ->
          let c = ctx 0 in
          lock.Lock.acquire c;
          lock.Lock.release c;
          Alcotest.(check bool)
            (Lock.algo_name algo ^ " free after")
            true (lock.Lock.is_free ())))
    ([ Lock.Ticket; Lock.Anderson ] @ Lock.all_numa_algos);
  Engine.run eng

let test_four_classes_shape () =
  let r =
    Workloads.Four_classes.run
      ~config:{ Workloads.Four_classes.default_config with iters = 30 }
      ()
  in
  let open Workloads in
  (* Classes 1-3 stay near the uncontended fault cost even while class 4
     runs; class 4 pays the cross-cluster ownership traffic. *)
  Alcotest.(check bool) "class 1 near baseline" true
    (r.Four_classes.non_concurrent.Measure.mean_us < 260.0);
  Alcotest.(check bool) "class 2 near baseline" true
    (r.Four_classes.independent.Measure.mean_us < 260.0);
  Alcotest.(check bool) "class 3 absorbed by replication" true
    (r.Four_classes.read_shared.Measure.mean_us < 300.0);
  Alcotest.(check bool) "class 4 pays for write sharing" true
    (r.Four_classes.write_shared.Measure.mean_us
    > r.Four_classes.independent.Measure.mean_us *. 1.2);
  Alcotest.(check bool) "ownership traffic happened" true
    (r.Four_classes.invalidations > 0);
  Alcotest.(check bool) "replication happened" true
    (r.Four_classes.replications >= 16)

let suite =
  [
    Alcotest.test_case "ticket mutual exclusion" `Quick
      test_ticket_mutual_exclusion;
    Alcotest.test_case "ticket FIFO" `Quick test_ticket_fifo;
    Alcotest.test_case "ticket needs CAS" `Quick test_ticket_needs_cas;
    Alcotest.test_case "Anderson mutual exclusion" `Quick
      test_anderson_mutual_exclusion;
    Alcotest.test_case "Anderson FIFO" `Quick test_anderson_fifo;
    Alcotest.test_case "lock space accounting" `Quick test_space_accounting;
    Alcotest.test_case "capability table" `Quick test_capability_table;
    Alcotest.test_case "--lock spellings and spin caps" `Quick test_of_string;
    Alcotest.test_case "invalid constructions are refused" `Quick
      test_invalid_constructions;
    Alcotest.test_case "ticket/Anderson/composites via Lock.make" `Quick
      test_lock_family_via_uniform_interface;
    Alcotest.test_case "CLASSES: four access classes" `Slow
      test_four_classes_shape;
  ]
