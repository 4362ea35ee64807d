(* The experiment registry (interface in registry.mli): one entry per table,
   figure, ablation and extension experiment, in the order [bench] prints
   them. Every consumer — the bench text run, the JSON export, the .dat
   plots and [hurricane_sim figure] — goes through {!run}, so each output
   comes from the same cells and the same combine. *)

open Locks
open Workloads

type knobs = {
  procs : int list option;
  sizes : int list option;
  iters : int option;
  rounds : int option;
}

let full = { procs = None; sizes = None; iters = None; rounds = None }

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

(* A whole experiment as one cell; no knob reaches it. *)
let one ?json name run report =
  let combine = function
    | [ r ] -> r
    | rs ->
      invalid_arg
        (Printf.sprintf "Registry: single-cell experiment %s got %d results"
           name (List.length rs))
  in
  Experiment
    { name; cells = [ (fun _ -> run ()) ]; combine; report; json; dat = None }

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
                       :: Spec.summary_fields r.Lock_stress.summary
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

(* -- the entries ----------------------------------------------------------- *)

(* An extension experiment: one cell per grid config; the rows' JSON and
   text table come from the spec's columns. *)
let of_spec (Spec.Spec s) =
  split s.section s.grid
    (fun _ c -> [ (c, s.run c) ])
    (Spec.print s) ~json:(rows (Spec.row s))

let fig5 name ~title ~hold_us =
  split name Experiments.fig5_algos
    (fun k a -> Experiments.fig5 ~hold_us ?procs:k.procs ~algos:[ a ] ())
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

let entries () =
  [
    one "fig4" ~json:fig4_json Experiments.fig4 Report.fig4;
    one "uncontended" ~json:uncontended_json Uncontended.run_all
      Report.uncontended;
    fig5 "fig5a" ~title:"FIG5a" ~hold_us:0.0;
    fig5 "fig5b" ~title:"FIG5b" ~hold_us:25.0;
    one "starvation" ~json:(fun s -> Json.Obj (Spec.summary_fields s))
      Experiments.starvation Report.starvation;
    fig7 "fig7a" ~title:"FIG7a - independent faults, one 16-processor cluster"
      ~by:`P
      ~claim:
        "little difference up to p=4; beyond that spin degrades; at p=16 \
         spin is over 2x the distributed locks"
      (fun k algos ->
        Experiments.fig7a ?procs:k.procs ?iters:k.iters ~algos ());
    fig7 "fig7b" ~title:"FIG7b - shared faults, one 16-processor cluster"
      ~by:`P
      ~claim:
        "smaller gap between distributed and spin locks: contention shifts \
         to the reserve bits"
      (fun k algos ->
        Experiments.fig7b ?procs:k.procs ?rounds:k.rounds ~algos ());
    fig7 "fig7c" ~title:"FIG7c - independent faults, p=16, cluster-size sweep"
      ~by:`Cluster
      ~claim:
        "small clusters best; no degradation for cluster size <= 4 (hybrid \
         matches fine-grain locking)"
      (fun k algos ->
        Experiments.fig7c ?sizes:k.sizes ?iters:k.iters ~algos ());
    fig7 "fig7d" ~title:"FIG7d - shared faults, p=16, cluster-size sweep"
      ~by:`Cluster
      ~claim:
        "moderate cluster sizes win: inter-cluster ownership traffic \
         dominates very small clusters, lock contention the largest"
      (fun k algos ->
        Experiments.fig7d ?sizes:k.sizes ?rounds:k.rounds ~algos ());
    one "constants" ~json:constants_json Calibration.run Report.constants;
    one "retries" Experiments.retries Report.retries;
    one "ablation-granularity" Hash_stress.run_all Report.ablation_granularity;
    one "ablation-combining" Replication_storm.run_both
      Report.ablation_combining;
    one "ablation-cas" Experiments.ablation_cas Report.ablation_cas;
    one "ablation-clh" Experiments.ablation_clh Report.ablation_clh;
    one "ablation-cached-locks" Experiments.ablation_cached_locks
      Report.ablation_cached_locks;
    one "ablation-spin-then-block" Experiments.ablation_spin_then_block
      Report.ablation_spin_then_block;
    one "ablation-lockfree" Counter_stress.run_all Report.ablation_lockfree;
    one "ablation-layout" Messaging_mix.run_both Report.ablation_layout;
    one "ablation-lock-family" Experiments.ablation_lock_family
      Report.ablation_lock_family;
    one "trylock" Trylock_starvation.run Report.trylock;
    one "classes" Four_classes.run Report.classes;
    one "cow" Cow_storm.run_both Report.cow;
    one "fs" File_read.run_grid Report.fs;
    one "fault-matrix" Experiments.fault_matrix Report.fault_matrix;
    one "verify" Verify_probes.run_all Report.verify;
    one "obs" Experiments.obs_profile Report.obs;
  ]
  @ List.map of_spec (Lazy.force Spec.all)

let all = lazy (entries ())

let find n =
  let all = Lazy.force all in
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
  let plotted =
    List.filter
      (fun (Experiment s) -> Option.is_some s.dat)
      (Lazy.force all)
  in
  let plots =
    List.filter_map
      (fun (Outcome (s, r)) -> Option.map (fun emit -> emit dir r) s.dat)
      (run ?knobs plotted)
  in
  List.map (fun p -> p.Dat.path) plots @ [ Dat.gnuplot_script dir plots ]
