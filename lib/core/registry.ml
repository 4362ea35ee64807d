(* The experiment registry (interface in registry.mli): one entry per table,
   figure, ablation and extension experiment, in the order [bench] prints
   them. Every consumer — the bench text run, the JSON export, the .dat
   plots and [hurricane_sim figure] — goes through {!run}, so each output
   comes from the same cells and the same combine. *)

open Hector
open Locks
open Workloads

type knobs = {
  cfg : Config.t option;
  procs : int list option;
  sizes : int list option;
  iters : int option;
  rounds : int option;
}

let full =
  { cfg = None; procs = None; sizes = None; iters = None; rounds = None }

(* One experiment: its cells along the outermost sweep axis, how their
   results combine (in cell order), and the outputs the combined value
   feeds. *)
type ('c, 'r) spec = {
  name : string;
  cells : (knobs -> 'c) list;
  combine : 'c list -> 'r;
  report : Format.formatter -> 'r -> unit;
  json : ('r -> Json.t) option;
  dat : (string -> 'r -> Dat.plot) option;
}

type t = Experiment : ('c, 'r) spec -> t

let name (Experiment s) = s.name
let exported (Experiment s) = Option.is_some s.json

(* A whole experiment as one cell. *)
let one ?json name run report =
  let combine = function
    | [ r ] -> r
    | rs ->
      invalid_arg
        (Printf.sprintf "Registry: single-cell experiment %s got %d results"
           name (List.length rs))
  in
  Experiment { name; cells = [ run ]; combine; report; json; dat = None }

(* One cell per value of the outermost sweep axis. Every runner's outermost
   loop is that axis, so concatenating the cells' rows in order reproduces
   the whole run's row order exactly. *)
let split ?json ?dat name axis run report =
  Experiment
    {
      name;
      cells = List.map (fun x k -> run k x) axis;
      combine = List.concat;
      report;
      json;
      dat;
    }

(* -- JSON encoders (schema in bench_json.mli) ------------------------------ *)

let rows encode rs = Json.List (List.map encode rs)

let counts_json (c : Instr_model.counts) =
  Json.Obj
    [
      ("atomic", Json.Int c.Instr_model.atomic);
      ("mem", Json.Int c.Instr_model.mem);
      ("reg", Json.Int c.Instr_model.reg);
      ("br", Json.Int c.Instr_model.br);
    ]

let fig4_json =
  rows (fun (r : Experiments.fig4_row) ->
      Json.Obj
        [
          ("algo", Json.String (Instr_model.algo_name r.Experiments.algo));
          ("ours", counts_json r.Experiments.ours);
          ("paper", counts_json r.Experiments.paper);
          ("matches_paper",
           Json.Bool (r.Experiments.ours = r.Experiments.paper));
          ("predicted_us", Json.Float r.Experiments.predicted_us);
        ])

let uncontended_json =
  rows (fun (r : Uncontended.result) ->
      Json.Obj
        [
          ("algo", Json.String (Lock.algo_name r.Uncontended.algo));
          ("pair_us", Json.Float r.Uncontended.pair_us);
          ("predicted_us",
           match r.Uncontended.predicted_us with
           | Some us -> Json.Float us
           | None -> Json.Null);
        ])

let summary_fields (s : Measure.summary) =
  [
    ("n", Json.Int s.Measure.n);
    ("mean_us", Json.Float s.Measure.mean_us);
    ("p50_us", Json.Float s.Measure.p50_us);
    ("p90_us", Json.Float s.Measure.p90_us);
    ("p99_us", Json.Float s.Measure.p99_us);
    ("p999_us", Json.Float s.Measure.p999_us);
    ("min_us", Json.Float s.Measure.min_us);
    ("max_us", Json.Float s.Measure.max_us);
    ("frac_above_2ms", Json.Float s.Measure.frac_above_2ms);
  ]

let fig5_json ~hold_us series =
  Json.Obj
    [
      ("hold_us", Json.Float hold_us);
      ("series",
       rows
         (fun (s : Experiments.fig5_series) ->
           Json.Obj
             [
               ("algo", Json.String (Lock.algo_name s.Experiments.algo));
               ("points",
                rows
                  (fun (p, (r : Lock_stress.result)) ->
                    Json.Obj
                      (("p", Json.Int p)
                       :: summary_fields r.Lock_stress.summary
                      @ [
                          ("acquisitions", Json.Int r.Lock_stress.acquisitions);
                        ]))
                  s.Experiments.points);
             ])
         series);
    ]

let fig7_json ~xlabel series =
  Json.Obj
    [
      ("xlabel", Json.String xlabel);
      ("series",
       rows
         (fun (s : Experiments.fig7_series) ->
           Json.Obj
             [
               ("algo", Json.String (Lock.algo_name s.Experiments.lock_algo));
               ("points",
                rows
                  (fun (p : Experiments.fig7_point) ->
                    Json.Obj
                      [
                        ("x", Json.Int p.Experiments.x);
                        ("mean_us", Json.Float p.Experiments.mean_us);
                        ("p99_us", Json.Float p.Experiments.p99_us);
                        ("retries", Json.Int p.Experiments.retries);
                        ("rpcs", Json.Int p.Experiments.rpcs);
                      ])
                  s.Experiments.series);
             ])
         series);
    ]

let constants_json (r : Calibration.result) =
  Json.Obj
    [
      ("soft_fault_us", Json.Float r.Calibration.soft_fault_us);
      ("lockless_fault_us", Json.Float r.Calibration.lockless_fault_us);
      ("lock_overhead_us", Json.Float r.Calibration.lock_overhead_us);
      ("null_rpc_us", Json.Float r.Calibration.null_rpc_us);
      ("replicate_fault_us", Json.Float r.Calibration.replicate_fault_us);
      ("replicate_extra_us", Json.Float r.Calibration.replicate_extra_us);
    ]

let numa_locks_json =
  rows (fun (algo, (c : Numa_stress.config), (r : Numa_stress.result)) ->
      Json.Obj
        [
          ("algo", Json.String (Lock.algo_name algo));
          ("clusters", Json.Int c.n_clusters);
          ("hold_us", Json.Float c.hold_us);
          ("mean_us", Json.Float r.summary.Measure.mean_us);
          ("p99_us", Json.Float r.summary.Measure.p99_us);
          ("acquisitions", Json.Int r.acquisitions);
          ("local_handoffs", Json.Int r.local_handoffs);
          ("remote_handoffs", Json.Int r.remote_handoffs);
          ("remote_frac", Json.Float (Numa_stress.remote_frac r));
          ("max_wait_us", Json.Float r.max_wait_us);
        ])

let hash_scaling_json =
  rows (fun ((c : Hash_scaling.config), (r : Hash_scaling.result)) ->
      Json.Obj
        [
          ("granularity",
           Json.String (Hkernel.Khash.granularity_name r.granularity));
          ("shards", Json.Int r.shards);
          ("optimistic", Json.Bool r.optimistic);
          ("p", Json.Int c.p);
          ("read_ratio", Json.Float c.read_ratio);
          ("read_mean_us", Json.Float r.read_summary.Measure.mean_us);
          ("read_p99_us", Json.Float r.read_summary.Measure.p99_us);
          ("update_mean_us", Json.Float r.update_summary.Measure.mean_us);
          ("throughput_ops_ms", Json.Float r.throughput_ops_ms);
          ("optimistic_hits", Json.Int r.optimistic_hits);
          ("optimistic_fallbacks", Json.Int r.optimistic_fallbacks);
          ("atomics", Json.Int r.atomics);
        ])

let abort_storm_json =
  rows (fun (r : Abort_storm.result) ->
      Json.Obj
        [
          ("algo", Json.String (Lock.algo_name r.algo));
          ("attempts", Json.Int r.attempts);
          ("acquisitions", Json.Int r.acquisitions);
          ("aborts", Json.Int r.aborts);
          ("fast_fails", Json.Int r.fast_fails);
          ("stalls", Json.Int r.stalls);
          ("overshoot_mean_us", Json.Float r.overshoot.Measure.mean_us);
          ("overshoot_p99_us", Json.Float r.overshoot.Measure.p99_us);
          ("overshoot_max_us", Json.Float r.max_overshoot_us);
          ("bound_ratio", Json.Float r.bound_ratio);
          ("recovery_mean_us", Json.Float r.recovery.Measure.mean_us);
          ("recovery_max_us", Json.Float r.recovery.Measure.max_us);
          ("obs_aborts", Json.Int r.obs_aborts);
          ("obs_repairs", Json.Int r.obs_repairs);
          ("remote_aborts", Json.Int r.remote_aborts);
          ("final_free", Json.Bool r.final_free);
        ])

let crash_storm_json =
  rows (fun (r : Crash_storm.result) ->
      Json.Obj
        [
          ("algo", Json.String (Lock.algo_name r.algo));
          ("kills", Json.Int r.kills);
          ("acquisitions", Json.Int r.acquisitions);
          ("obs_crashes", Json.Int r.obs_crashes);
          ("obs_recoveries", Json.Int r.obs_recoveries);
          ("lockdep_recoveries", Json.Int r.lockdep_recoveries);
          ("lockdep_violations", Json.Int r.lockdep_violations);
          ("recovery_mean_us", Json.Float r.recovery.Measure.mean_us);
          ("recovery_p99_us", Json.Float r.recovery.Measure.p99_us);
          ("recovery_max_us", Json.Float r.recovery.Measure.max_us);
          ("recovery_n", Json.Int r.recovery.Measure.n);
          ("clusters_hit", Json.Int (Crash_storm.clusters_hit r));
          ("worst_cluster_p99_us",
           Json.Float (Crash_storm.worst_cluster_p99_us r));
          ("final_free", Json.Bool r.final_free);
        ])

let rw_scaling_json =
  rows (fun (r : Rw_scaling.result) ->
      Json.Obj
        [
          ("style", Json.String r.style_name);
          ("read_ratio", Json.Float r.read_ratio);
          ("clusters", Json.Int r.n_clusters);
          ("p", Json.Int r.p);
          ("read_mean_us", Json.Float r.read_summary.Measure.mean_us);
          ("read_p99_us", Json.Float r.read_summary.Measure.p99_us);
          ("read_p999_us", Json.Float r.read_summary.Measure.p999_us);
          ("write_mean_us", Json.Float r.write_summary.Measure.mean_us);
          ("throughput_ops_ms", Json.Float r.throughput_ops_ms);
          ("read_throughput_ops_ms", Json.Float r.read_throughput_ops_ms);
          ("reads", Json.Int r.reads_done);
          ("writes", Json.Int r.writes_done);
          ("peak_readers", Json.Int r.peak_readers);
          ("read_remote", Json.Int r.read_remote);
          ("seq_aborts", Json.Int r.seq_aborts);
          ("lockdep_violations", Json.Int r.lockdep_violations);
        ])

let slo_json =
  rows (fun ((c : Slo_stream.config), (r : Slo_stream.result)) ->
      Json.Obj
        [
          ("offered_per_ms", Json.Float c.rate_per_ms);
          ("p", Json.Int c.p);
          ("elements", Json.Int c.elements);
          ("shards", Json.Int c.shards);
          ("completed", Json.Int r.completed);
          ("achieved_per_ms", Json.Float r.achieved_per_ms);
          ("read", Json.Obj (summary_fields r.read_summary));
          ("update", Json.Obj (summary_fields r.update_summary));
          ("peak_backlog", Json.Int r.peak_backlog);
          ("optimistic_hits", Json.Int r.optimistic_hits);
          ("optimistic_fallbacks", Json.Int r.optimistic_fallbacks);
          ("lockdep_violations", Json.Int r.lockdep_violations);
        ])

let adaptive_json =
  rows (fun (r : Diurnal.result) ->
      Json.Obj
        [
          ("lock", Json.String r.algo_name);
          ("cold1_ops", Json.Int r.cold1_ops);
          ("hot_ops", Json.Int r.hot_ops);
          ("cold2_ops", Json.Int r.cold2_ops);
          ("cold_throughput_ops_ms", Json.Float r.cold_throughput_ops_ms);
          ("hot_throughput_ops_ms", Json.Float r.hot_throughput_ops_ms);
          ("morphs_up", Json.Int r.morphs_up);
          ("morphs_down", Json.Int r.morphs_down);
          ("final_shape", Json.Int r.final_shape);
          ("final_free", Json.Bool r.final_free);
          ("lockdep_violations", Json.Int r.lockdep_violations);
        ])

(* -- the entries ----------------------------------------------------------- *)

let fig5 name ~title ~hold_us =
  split name Experiments.fig5_algos
    (fun k a ->
      Experiments.fig5 ?cfg:k.cfg ~hold_us ?procs:k.procs ~algos:[ a ] ())
    (Report.fig5 ~name:title ~hold_us)
    ~json:(fig5_json ~hold_us)
    ~dat:(fun dir s ->
      Dat.plot ~xlabel:"contending processors" (Dat.fig5 dir ~name s) s)

let fig7 name ~title ~claim ~by run =
  let xlabel, json_xlabel, plot_xlabel =
    match by with
    | `P -> ("p", "p", "contending processors")
    | `Cluster -> ("cluster", "cluster_size", "cluster size")
  in
  split name Experiments.fig7_algos
    (fun k a -> run k [ a ])
    (Report.fig7 ~name:title ~xlabel ~claim)
    ~json:(fig7_json ~xlabel:json_xlabel)
    ~dat:(fun dir s -> Dat.plot ~xlabel:plot_xlabel (Dat.fig7 dir ~name s) s)

let all =
  [
    one "fig4" ~json:fig4_json
      (fun k -> Experiments.fig4 ?cfg:k.cfg ())
      Report.fig4;
    one "uncontended" ~json:uncontended_json
      (fun k -> Experiments.uncontended ?cfg:k.cfg ())
      Report.uncontended;
    fig5 "fig5a" ~title:"FIG5a" ~hold_us:0.0;
    fig5 "fig5b" ~title:"FIG5b" ~hold_us:25.0;
    one "starvation"
      ~json:(fun s -> Json.Obj (summary_fields s))
      (fun k -> Experiments.starvation ?cfg:k.cfg ())
      Report.starvation;
    fig7 "fig7a" ~title:"FIG7a - independent faults, one 16-processor cluster"
      ~by:`P
      ~claim:
        "little difference up to p=4; beyond that spin degrades; at p=16 \
         spin is over 2x the distributed locks"
      (fun k algos ->
        Experiments.fig7a ?cfg:k.cfg ?procs:k.procs ?iters:k.iters ~algos ());
    fig7 "fig7b" ~title:"FIG7b - shared faults, one 16-processor cluster"
      ~by:`P
      ~claim:
        "smaller gap between distributed and spin locks: contention shifts \
         to the reserve bits"
      (fun k algos ->
        Experiments.fig7b ?cfg:k.cfg ?procs:k.procs ?rounds:k.rounds ~algos ());
    fig7 "fig7c" ~title:"FIG7c - independent faults, p=16, cluster-size sweep"
      ~by:`Cluster
      ~claim:
        "small clusters best; no degradation for cluster size <= 4 (hybrid \
         matches fine-grain locking)"
      (fun k algos ->
        Experiments.fig7c ?cfg:k.cfg ?sizes:k.sizes ?iters:k.iters ~algos ());
    fig7 "fig7d" ~title:"FIG7d - shared faults, p=16, cluster-size sweep"
      ~by:`Cluster
      ~claim:
        "moderate cluster sizes win: inter-cluster ownership traffic \
         dominates very small clusters, lock contention the largest"
      (fun k algos ->
        Experiments.fig7d ?cfg:k.cfg ?sizes:k.sizes ?rounds:k.rounds ~algos ());
    one "constants" ~json:constants_json
      (fun k -> Experiments.constants ?cfg:k.cfg ())
      Report.constants;
    one "retries" (fun k -> Experiments.retries ?cfg:k.cfg ()) Report.retries;
    one "ablation-granularity"
      (fun k -> Experiments.ablation_granularity ?cfg:k.cfg ())
      Report.ablation_granularity;
    one "ablation-combining"
      (fun k -> Experiments.ablation_combining ?cfg:k.cfg ())
      Report.ablation_combining;
    one "ablation-cas"
      (fun _ -> Experiments.ablation_cas ())
      Report.ablation_cas;
    one "ablation-clh"
      (fun _ -> Experiments.ablation_clh ())
      Report.ablation_clh;
    one "ablation-cached-locks"
      (fun _ -> Experiments.ablation_cached_locks ())
      Report.ablation_cached_locks;
    one "ablation-spin-then-block"
      (fun _ -> Experiments.ablation_spin_then_block ())
      Report.ablation_spin_then_block;
    one "ablation-lockfree"
      (fun _ -> Experiments.ablation_lockfree ())
      Report.ablation_lockfree;
    one "ablation-layout"
      (fun k -> Experiments.ablation_layout ?cfg:k.cfg ())
      Report.ablation_layout;
    one "ablation-lock-family"
      (fun k -> Experiments.ablation_lock_family ?cfg:k.cfg ())
      Report.ablation_lock_family;
    one "trylock" (fun k -> Experiments.trylock ?cfg:k.cfg ()) Report.trylock;
    one "classes" (fun k -> Experiments.classes ?cfg:k.cfg ()) Report.classes;
    one "cow" (fun k -> Experiments.cow ?cfg:k.cfg ()) Report.cow;
    one "fs" (fun k -> Experiments.fs ?cfg:k.cfg ()) Report.fs;
    one "fault-matrix"
      (fun k -> Experiments.fault_matrix ?cfg:k.cfg ())
      Report.fault_matrix;
    one "verify" (fun _ -> Experiments.verify_suite ()) Report.verify;
    (* The profile's report converts cycles at HECTOR's clock, so the run
       stays on HECTOR whatever [cfg] says. *)
    one "obs"
      (fun _ -> Experiments.obs_profile ())
      (fun ppf r -> Report.obs ppf r);
    split "numa_locks" ~json:numa_locks_json Experiments.numa_algos
      (fun k a -> Experiments.numa_locks ?cfg:k.cfg ~algos:[ a ] ())
      Report.numa_locks;
    split "hash_scaling" ~json:hash_scaling_json Experiments.hash_procs
      (fun k p -> Experiments.hash_scaling ?cfg:k.cfg ~procs:[ p ] ())
      Report.hash_scaling;
    split "abort_storm" ~json:abort_storm_json Experiments.numa_algos
      (fun k a -> Experiments.abort_storm ?cfg:k.cfg ~algos:[ a ] ())
      Report.abort_storm;
    split "crash_storm" ~json:crash_storm_json Experiments.crash_algos
      (fun k a -> Experiments.crash_storm ?cfg:k.cfg ~algos:[ a ] ())
      Report.crash_storm;
    split "rw_scaling" ~json:rw_scaling_json Experiments.rw_styles
      (fun k s -> Experiments.rw_scaling ?cfg:k.cfg ~styles:[ s ] ())
      Report.rw_scaling;
    split "slo" ~json:slo_json Experiments.slo_rates
      (fun k r -> Experiments.slo ?cfg:k.cfg ~rates:[ r ] ())
      Report.slo;
    split "adaptive" ~json:adaptive_json Experiments.adaptive_algos
      (fun k a -> Experiments.adaptive ?cfg:k.cfg ~algos:[ a ] ())
      Report.adaptive;
  ]

let find n =
  match List.find_opt (fun e -> name e = n) all with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "unknown experiment %S; available: %s" n
         (String.concat ", " (List.map name all)))

(* -- running --------------------------------------------------------------- *)

type outcome = Outcome : ('c, 'r) spec * 'r -> outcome

(* Every cell of every entry goes through one {!Par.map}. A cell returns a
   commit that files its result with its experiment; the commits run on the
   calling domain in input order, so each experiment combines its results
   in cell order whatever the pool did. *)
let run ?(jobs = 1) ?(knobs = full) entries =
  let staged =
    List.map
      (fun (Experiment s) ->
        let results = ref [] in
        let cells =
          List.map
            (fun cell () ->
              let r = cell knobs in
              fun () -> results := r :: !results)
            s.cells
        in
        (cells, fun () -> Outcome (s, s.combine (List.rev !results))))
      entries
  in
  Par.map ~jobs (fun cell -> cell ()) (List.concat_map fst staged)
  |> List.iter (fun commit -> commit ());
  List.map (fun (_, finish) -> finish ()) staged

let print ppf (Outcome (s, r)) = s.report ppf r
let json (Outcome (s, r)) = Option.map (fun encode -> encode r) s.json

let write_dat ?knobs dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let plotted = List.filter (fun (Experiment s) -> Option.is_some s.dat) all in
  let plots =
    List.filter_map
      (fun (Outcome (s, r)) -> Option.map (fun emit -> emit dir r) s.dat)
      (run ?knobs plotted)
  in
  List.map (fun p -> p.Dat.path) plots @ [ Dat.gnuplot_script dir plots ]
