(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index). The experiments, their
   names and their outputs are the entries of [Registry].

   Usage:
     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe fig5a fig7d ...  # selected experiments
     dune exec bench/main.exe -- --json [names] # write BENCH_results.json
     dune exec bench/main.exe -- --dat DIR     # .dat series + plots.gp
     dune exec bench/main.exe -- --bechamel    # wall-clock micro-benchmarks
                                               # of the substrate (one
                                               # Test.make per table)

   All experiment output is simulated HECTOR time; the Bechamel mode
   measures the *simulator's* own wall-clock cost. *)

open Hurricane

(* Run and print each entry as soon as its cells finish. *)
let print entries =
  List.iter
    (fun e ->
      List.iter (Registry.print Format.std_formatter) (Registry.run [ e ]))
    entries

(* -- Bechamel wall-clock micro-benchmarks ---------------------------------- *)

let bechamel_tests () =
  let open Bechamel in
  let open Hector in
  let uncontended_pair =
    Test.make ~name:"UNC: simulate uncontended H2 pair"
      (Staged.stage (fun () ->
           ignore (Workloads.Uncontended.run ~iters:50 Locks.Lock.Mcs_h2)))
  in
  let fig5_step =
    Test.make ~name:"FIG5: simulate 4-proc lock stress window"
      (Staged.stage (fun () ->
           ignore
             (Workloads.Lock_stress.run
                ~config:
                  {
                    Workloads.Lock_stress.default_config with
                    p = 4;
                    window_us = 1000.0;
                  }
                Locks.Lock.Mcs_h2)))
  in
  let fig7_fault =
    Test.make ~name:"FIG7: simulate 4-proc independent faults"
      (Staged.stage (fun () ->
           ignore
             (Workloads.Independent_faults.run
                ~config:
                  {
                    Workloads.Independent_faults.default_config with
                    p = 4;
                    iters = 10;
                  }
                ())))
  in
  let engine_events =
    Test.make ~name:"substrate: 10k engine events"
      (Staged.stage (fun () ->
           let eng = Eventsim.Engine.create () in
           for i = 1 to 10_000 do
             Eventsim.Engine.schedule eng ~at:i (fun () -> ())
           done;
           Eventsim.Engine.run eng))
  in
  (* The flattened-core pin: schedule-then-dispatch of 100k thunks through
     the structure-of-arrays heap, reported as events/sec so the engine's
     raw dispatch rate is tracked across PRs (the interleaved variant keeps
     the heap at working depth instead of draining a pre-filled one). *)
  let engine_events_flat =
    Test.make ~name:"substrate: 100k events pinned (events/sec)"
      (Staged.stage (fun () ->
           let eng = Eventsim.Engine.create () in
           let remaining = ref 100_000 in
           let rec feed () =
             if !remaining > 0 then begin
               decr remaining;
               Eventsim.Engine.schedule_after eng ~delay:1 feed
             end
           in
           (* 16 concurrent chains: the heap stays ~16 deep, as in a
              16-processor simulation, rather than degenerating to a
              FIFO drain. *)
           for _ = 1 to 16 do
             feed ()
           done;
           Eventsim.Engine.run eng))
  in
  (* The same 16-chain stream, but every event is a freshly allocated
     closure, as a fiber resume is. [feed] above reuses one closure, which
     hides what storing a young pointer in the heap costs. *)
  let engine_events_fresh =
    Test.make ~name:"substrate: 100k fresh-closure events (events/sec)"
      (Staged.stage (fun () ->
           let eng = Eventsim.Engine.create () in
           let remaining = ref 100_000 in
           let rec feed chain =
             if !remaining > 0 then begin
               decr remaining;
               Eventsim.Engine.schedule_after eng ~delay:1 (fun () ->
                   feed chain)
             end
           in
           for chain = 1 to 16 do
             feed chain
           done;
           Eventsim.Engine.run eng))
  in
  let machine_accesses =
    Test.make ~name:"substrate: 10k timed remote reads"
      (Staged.stage (fun () ->
           let eng = Eventsim.Engine.create () in
           let machine = Machine.create eng Config.hector in
           let cell = Machine.alloc machine ~home:15 0 in
           Eventsim.Process.spawn eng (fun () ->
               for _ = 1 to 10_000 do
                 ignore (Machine.read machine ~proc:0 cell)
               done);
           Eventsim.Engine.run eng))
  in
  [
    (uncontended_pair, None);
    (fig5_step, None);
    (fig7_fault, None);
    (engine_events, Some 10_000);
    (engine_events_flat, Some 100_000);
    (engine_events_fresh, Some 100_000);
    (machine_accesses, None);
  ]

(* [filters] restricts to tests whose name contains one of the given
   substrings (CI runs [--bechamel substrate] as a fast smoke step). *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let run_bechamel ?(filters = []) () =
  let open Bechamel in
  let selected (test, _) =
    filters = [] || List.exists (fun f -> contains ~sub:f (Test.name test)) filters
  in
  let tests = List.filter selected (bechamel_tests ()) in
  if tests = [] then begin
    Format.eprintf "no bechamel test matches %s@." (String.concat ", " filters);
    exit 2
  end;
  List.iter
    (fun (test, events_per_run) ->
      let instances = Toolkit.Instance.[ monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:true
          ~predictors:[| Measure.run |]
      in
      let estimates = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            let rate =
              match events_per_run with
              | Some n when est > 0.0 ->
                Printf.sprintf " %11.0f events/sec" (float_of_int n /. est *. 1e9)
              | _ -> ""
            in
            Format.printf "%-50s %14.1f ns/run%s@." name est rate
          | _ -> Format.printf "%-50s (no estimate)@." name)
        estimates)
    tests

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | "--bechamel" :: filters -> run_bechamel ~filters ()
  | "--json" :: rest ->
    (* Machine-readable export; non-flag arguments restrict to a subset of
       experiments (CI runs a fast one). [--jobs N] runs the independent
       experiment cells on N domains — the file is byte-identical to a
       sequential run — and [--out PATH] redirects the output. See
       Bench_json for the schema. *)
    let rec parse names jobs path = function
      | [] -> (List.rev names, jobs, path)
      | "--jobs" :: n :: tl -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> parse names j path tl
        | _ ->
          Format.eprintf "--jobs expects a positive integer, got %S@." n;
          exit 2)
      | [ "--jobs" ] ->
        Format.eprintf "--jobs expects a positive integer@.";
        exit 2
      | "--out" :: p :: tl -> parse names jobs p tl
      | [ "--out" ] ->
        Format.eprintf "--out expects a path@.";
        exit 2
      | name :: tl -> parse (name :: names) jobs path tl
    in
    let names, jobs, path = parse [] 1 "BENCH_results.json" rest in
    (try Bench_json.write ~path (Bench_json.document ~jobs ~names ())
     with Invalid_argument msg ->
       Format.eprintf "%s@." msg;
       exit 2);
    Format.printf "wrote %s@." path
  | [ "--dat"; dir ] ->
    List.iter (Format.printf "wrote %s@.") (Registry.write_dat dir)
  | [] ->
    Format.printf
      "HURRICANE locking reproduction - all experiments (simulated HECTOR \
       time)@.";
    print Registry.all
  | names -> (
    match List.map Registry.find names with
    | entries -> print entries
    | exception Invalid_argument msg ->
      Format.eprintf "%s, --bechamel@." msg;
      exit 2)
