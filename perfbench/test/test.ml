(* Tests of the host-cost benchmark itself.

     dune build @perfbench/test/perftest

   - driver equivalence: at the default seed every driver cell's simulated
     result equals the workload module's own [run] on the same config, so
     the benchmark times exactly the experiments' program;
   - the per-cell check passes there (stored reference digest and
     workload invariants);
   - exact counts repeat across two runs of one seed;
   - traced spans nest within their parents, the Chrome trace reads back
     with one track per clock, and tracing leaves simulated results
     unchanged.

   [test.exe --print-reference] prints perfbench/reference.ml from the
   workload modules' own runs. *)

open Perfbench

let failures = ref 0

let check name ok detail =
  if ok then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s: %s\n%!" name detail
  end

let driver_cells () =
  List.concat_map
    (fun (_, cells) -> cells ~seed:Suite.default_seed ())
    Suite.workloads

let print_reference () =
  print_endline
    "(* Digests of the simulated results at the default seed, from the \
     workload\n\
    \   modules' own runs: perfbench/test/test.exe --print-reference. *)\n";
  print_endline "let cells =\n  [";
  List.iter
    (fun (c : Suite.cell) ->
      Printf.printf "    (%S, %S);\n" c.Suite.id (c.Suite.experiment ()))
    (driver_cells ());
  print_endline "  ]"

(* The counts a later change may rest a claim on. *)
let exact (o : Suite.outcome) =
  match o.Suite.m with
  | None -> None
  | Some m ->
    Some
      ( List.filter
          (fun (name, _) -> name <> "eventsim.major_collections")
          m.Drivers.counts,
        m.Drivers.minor_words )

let test_cells () =
  List.iter
    (fun (cell : Suite.cell) ->
      let id = cell.Suite.id in
      let a = Suite.run_cell ~seed:Suite.default_seed cell in
      let expected = cell.Suite.experiment () in
      check (id ^ ": driver result = experiment result")
        (a.Suite.digest = expected)
        (Printf.sprintf "digest %s, experiment %s" a.Suite.digest expected);
      check (id ^ ": per-cell check")
        (a.Suite.problems = [])
        (String.concat "; " a.Suite.problems);
      let b = Suite.run_cell ~seed:Suite.default_seed cell in
      check (id ^ ": exact counts repeat")
        (exact a <> None && exact a = exact b)
        "counts or minor words differ between two runs")
    (driver_cells ())

let test_nesting_detects_escape () =
  let tr = Some (Span.create ()) in
  let p = Span.enter tr ~name:"p" ~parent:(-1) ~req:0 ~tid:0 ~fiber:false ~sim:0 in
  let c = Span.enter tr ~name:"c" ~parent:p ~req:0 ~tid:0 ~fiber:true ~sim:5 in
  Span.leave tr p ~sim:10;
  Span.leave tr c ~sim:20;
  match tr with
  | Some t -> check "nesting check flags a child outliving its parent"
                (Span.check_nesting t <> None) "not flagged"
  | None -> ()

let test_trace () =
  let us_of_cycles = Hector.Config.us_of_cycles Hector.Config.hector in
  let t = Span.create () in
  (* The first cell of each driver workload. *)
  let cells =
    List.filter_map
      (fun (_, cells) -> List.nth_opt (cells ~seed:Suite.default_seed ()) 0)
      Suite.workloads
  in
  List.iter
    (fun (cell : Suite.cell) ->
      let traced = Suite.run_cell ~trace:t ~seed:Suite.default_seed cell in
      let plain = Suite.run_cell ~seed:Suite.default_seed cell in
      check (cell.Suite.id ^ ": traced result = untraced result")
        (traced.Suite.digest = plain.Suite.digest && traced.Suite.problems = [])
        (String.concat "; " traced.Suite.problems))
    cells;
  check "spans recorded" (Span.length t > 0) "no spans";
  check "spans nest within their parents"
    (Span.check_nesting t = None)
    (Option.value ~default:"" (Span.check_nesting t));
  let doc = Json.of_string (Json.to_string (Span.to_json ~us_of_cycles t)) in
  let events =
    match Json.get doc "traceEvents" with Json.List l -> l | _ -> []
  in
  let on_track pid =
    List.length
      (List.filter
         (fun e ->
           Json.member e "ph" = Some (Json.String "X")
           && Json.member e "pid" = Some (Json.Int pid))
         events)
  in
  check "chrome trace: one complete event per span on each clock track"
    (on_track Span.host_pid = Span.length t && on_track Span.sim_pid = Span.length t)
    (Printf.sprintf "host %d, sim %d, spans %d" (on_track Span.host_pid)
       (on_track Span.sim_pid) (Span.length t));
  let names = List.map (fun (r : Span.row) -> r.Span.name) (Span.summary ~us_of_cycles t) in
  List.iter
    (fun n -> check ("span " ^ n ^ " recorded") (List.mem n names) "missing")
    [
      "setup"; "engine.run"; "memmgr.fault"; "memmgr.unmap"; "barrier.wait";
      "lock.acquire"; "lock.release"; "khash.lookup"; "khash.with_element";
      "slo.queue_wait"; "khash.insert_untimed";
    ]

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print-reference" then
    print_reference ()
  else begin
    test_nesting_detects_escape ();
    test_trace ();
    test_cells ();
    if !failures > 0 then begin
      Printf.printf "%d failures\n" !failures;
      exit 1
    end
  end
