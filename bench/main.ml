(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index).

   Usage:
     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe fig5a fig7d ...  # selected experiments
     dune exec bench/main.exe -- --json [names] # write BENCH_results.json
     dune exec bench/main.exe -- --bechamel    # wall-clock micro-benchmarks
                                               # of the substrate (one
                                               # Test.make per table)

   All experiment output is simulated HECTOR time; the Bechamel mode
   measures the *simulator's* own wall-clock cost. *)

open Hurricane

let ppf = Format.std_formatter

let run_fig4 () = Report.fig4 ppf (Experiments.fig4 ())
let run_uncontended () = Report.uncontended ppf (Experiments.uncontended ())

let run_fig5a () =
  Report.fig5 ppf ~name:"FIG5a" ~hold_us:0.0 (Experiments.fig5a ())

let run_fig5b () =
  Report.fig5 ppf ~name:"FIG5b" ~hold_us:25.0 (Experiments.fig5b ())

let run_starvation () = Report.starvation ppf (Experiments.starvation ())

let run_fig7a () =
  Report.fig7 ppf ~name:"FIG7a - independent faults, one 16-processor cluster"
    ~xlabel:"p"
    ~claim:
      "little difference up to p=4; beyond that spin degrades; at p=16 spin \
       is over 2x the distributed locks"
    (Experiments.fig7a ())

let run_fig7b () =
  Report.fig7 ppf ~name:"FIG7b - shared faults, one 16-processor cluster"
    ~xlabel:"p"
    ~claim:
      "smaller gap between distributed and spin locks: contention shifts to \
       the reserve bits"
    (Experiments.fig7b ())

let run_fig7c () =
  Report.fig7 ppf ~name:"FIG7c - independent faults, p=16, cluster-size sweep"
    ~xlabel:"cluster"
    ~claim:
      "small clusters best; no degradation for cluster size <= 4 (hybrid \
       matches fine-grain locking)"
    (Experiments.fig7c ())

let run_fig7d () =
  Report.fig7 ppf ~name:"FIG7d - shared faults, p=16, cluster-size sweep"
    ~xlabel:"cluster"
    ~claim:
      "moderate cluster sizes win: inter-cluster ownership traffic dominates \
       very small clusters, lock contention the largest"
    (Experiments.fig7d ())

let run_constants () = Report.constants ppf (Experiments.constants ())
let run_retries () = Report.retries ppf (Experiments.retries ())

let run_abl1 () =
  Report.ablation_granularity ppf (Experiments.ablation_granularity ())

let run_abl2 () =
  Report.ablation_combining ppf (Experiments.ablation_combining ())

let run_abl3 () = Report.ablation_cas ppf (Experiments.ablation_cas ())
let run_abl4 () = Report.ablation_clh ppf (Experiments.ablation_clh ())

let run_abl5 () =
  Report.ablation_cached_locks ppf (Experiments.ablation_cached_locks ())

let run_abl6 () =
  Report.ablation_spin_then_block ppf (Experiments.ablation_spin_then_block ())

let run_abl7 () = Report.ablation_lockfree ppf (Experiments.ablation_lockfree ())
let run_abl8 () = Report.ablation_layout ppf (Experiments.ablation_layout ())

let run_abl9 () =
  Report.ablation_lock_family ppf (Experiments.ablation_lock_family ())
let run_trylock () = Report.trylock ppf (Experiments.trylock ())
let run_classes () = Report.classes ppf (Experiments.classes ())
let run_cow () = Report.cow ppf (Experiments.cow ())
let run_fs () = Report.fs ppf (Experiments.fs ())
let run_fault_matrix () = Report.fault_matrix ppf (Experiments.fault_matrix ())
let run_verify () = Report.verify ppf (Experiments.verify_suite ())
let run_obs () = Report.obs ppf (Experiments.obs_profile ())
let run_numa () = Report.numa_locks ppf (Experiments.numa_locks ())
let run_hash () = Report.hash_scaling ppf (Experiments.hash_scaling ())
let run_abort () = Report.abort_storm ppf (Experiments.abort_storm ())
let run_crash () = Report.crash_storm ppf (Experiments.crash_storm ())
let run_rw () = Report.rw_scaling ppf (Experiments.rw_scaling ())
let run_slo () = Report.slo ppf (Experiments.slo ())
let run_adaptive () = Report.adaptive ppf (Experiments.adaptive ())

let experiments =
  [
    ("fig4", run_fig4);
    ("uncontended", run_uncontended);
    ("fig5a", run_fig5a);
    ("fig5b", run_fig5b);
    ("starvation", run_starvation);
    ("fig7a", run_fig7a);
    ("fig7b", run_fig7b);
    ("fig7c", run_fig7c);
    ("fig7d", run_fig7d);
    ("constants", run_constants);
    ("retries", run_retries);
    ("ablation-granularity", run_abl1);
    ("ablation-combining", run_abl2);
    ("ablation-cas", run_abl3);
    ("ablation-clh", run_abl4);
    ("ablation-cached-locks", run_abl5);
    ("ablation-spin-then-block", run_abl6);
    ("ablation-lockfree", run_abl7);
    ("ablation-layout", run_abl8);
    ("ablation-lock-family", run_abl9);
    ("trylock", run_trylock);
    ("classes", run_classes);
    ("cow", run_cow);
    ("fs", run_fs);
    ("fault-matrix", run_fault_matrix);
    ("verify", run_verify);
    ("obs", run_obs);
    ("numa", run_numa);
    ("hash", run_hash);
    ("abort-storm", run_abort);
    ("crash-storm", run_crash);
    ("rw", run_rw);
    ("slo", run_slo);
    ("adaptive", run_adaptive);
  ]

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
       Format.eprintf "%s; available: %s@." msg
         (String.concat ", " Bench_json.default_names);
       exit 2);
    Format.printf "wrote %s@." path
  | [ "--dat"; dir ] ->
    let written = Dat.write_all dir in
    List.iter (Format.printf "wrote %s@.") written
  | [] ->
    Format.printf
      "HURRICANE locking reproduction - all experiments (simulated HECTOR \
       time)@.";
    List.iter (fun (_, f) -> f ()) experiments
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None ->
          Format.eprintf "unknown experiment %S; available: %s, --bechamel@."
            name
            (String.concat ", " (List.map fst experiments));
          exit 2)
      names
