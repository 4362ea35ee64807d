(* The experiment registry (interface in registry.mli): one entry per table,
   figure, ablation and extension experiment, in the order [bench] prints
   them; an entry is exported exactly when it comes from a {!Spec}. Every
   consumer — the bench text run, the JSON export, the .dat plots and
   [hurricane_sim figure] — goes through {!run}, so each output comes from
   the same cells and the same combine. *)

open Workloads

type knobs = Spec.knobs = {
  procs : int list option;
  sizes : int list option;
  iters : int option;
  rounds : int option;
}

let full = Spec.full

(* One experiment: its cells, how their results combine (in cell order),
   and the outputs the combined value feeds. *)
type ('c, 'r) spec = {
  name : string;
  cells : (knobs -> 'c) list;
  combine : 'c list -> 'r;
  report : Format.formatter -> 'r -> unit;
  json : ('r -> Json.t) option;
  dat : (string -> 'r -> Dat.plot) option;
  unexpected : 'r -> string list;
}

type t = Experiment : ('c, 'r) spec -> t

let name (Experiment s) = s.name
let exported (Experiment s) = Option.is_some s.json

(* An unexported experiment, run whole as one cell; no knob reaches it. *)
let one name run report =
  Experiment
    {
      name;
      cells = [ (fun _ -> run ()) ];
      combine = List.hd;
      report;
      json = None;
      dat = None;
      unexpected = (fun _ -> []);
    }

(* An exported experiment: one cell per grid config, each paired with its
   config; the outputs come from the spec's shape. *)
let of_spec (Spec.Spec s) =
  Experiment
    {
      name = s.section;
      cells = List.map (fun c k -> (c, s.run k c)) s.grid;
      combine = Fun.id;
      report = Spec.print s;
      json = Some (Spec.json s);
      dat = Spec.dat s;
      unexpected = Spec.unexpected s;
    }

let entries () =
  List.map of_spec (Spec.paper ())
  @ [
      one "retries" Experiments.retries Report.retries;
      one "ablation-granularity" Hash_stress.run_all
        Report.ablation_granularity;
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
  @ List.map of_spec (Spec.extensions ())

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
let json (Outcome (s, r)) =
  Option.map (fun encode -> (s.name, encode r)) s.json

let unexpected (Outcome (s, r)) = s.unexpected r

let write_dat ?knobs dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then Sys.mkdir dir 0o755;
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
