(* The benchmark's workloads: which cells each one runs, and the per-cell
   correctness check that feeds [failed].

   A cell is one simulated system, built and run by a driver. Its check
   has two parts: the workload's invariants, which hold at every seed, and
   at the default seed (0) a digest of the whole simulated result compared
   with the reference stored in [Reference]. A cell that raises (including
   [Engine.Deadlock]) fails; it does not stop the benchmark. *)

open Locks
open Workloads
module Experiments = Hurricane.Experiments

type cell = {
  id : string;
  hooks : bool;  (** the experiment installs Verify/Obs on this cell *)
  run : trace:Span.t option -> hooks:bool -> Drivers.metrics * string * string;
      (** metrics, digest of the simulated result, digest of its part that
          does not depend on the hooks *)
  experiment : unit -> string;
      (** digest of the workload module's own [run] on the same config:
          what the driver must reproduce *)
}

type outcome = {
  cell : cell;
  wall_s : float;  (** host time for the cell, its checks included *)
  hooks_on : bool;
  m : Drivers.metrics option;  (** [None] when the cell raised *)
  digest : string;
  stable : string;
  problems : string list;
}

let digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* Workload seed [s] offsets every cell's experiment seed, so seed 0 runs
   the experiments' own configurations. *)
let default_seed = 0

(* -- Cells ------------------------------------------------------------------- *)

(* Figure 7d's sweep (15 rounds, as the experiment runs it) at three
   cluster sizes: RPC- and replication-heavy at 1, reserve-bit- and
   lock-heavy at 16. *)
let fault_sizes = [ 1; 4; 16 ]
let fault_rounds = 15

let fault_config ~seed ~cluster_size lock_algo =
  {
    Shared_faults.default_config with
    p = 16;
    rounds = fault_rounds;
    cluster_size;
    lock_algo;
    seed = Shared_faults.default_config.Shared_faults.seed + seed;
  }

let fault_cells ~seed () =
  List.concat_map
    (fun algo ->
      List.map
        (fun cluster_size ->
          let config = fault_config ~seed ~cluster_size algo in
          {
            id =
              Printf.sprintf "fault_sweep/%s/cs%d" (Lock.algo_name algo)
                cluster_size;
            hooks = false;
            run =
              (fun ~trace ~hooks ->
                let c = Drivers.fault_cell ?trace ~hooks config in
                (* No hooks feed this result. *)
                let d = digest c.Drivers.result in
                (c.Drivers.m, d, d));
            experiment = (fun () -> digest (Shared_faults.run ~config ()));
          })
        fault_sizes)
    Experiments.fig7_algos

let numa_clusters = [ 1; 4 ]
let numa_holds_us = [ 0.0; 10.0 ]

let numa_config ~seed ~n_clusters ~hold_us =
  {
    Numa_stress.default_config with
    n_clusters;
    hold_us;
    seed = Numa_stress.default_config.Numa_stress.seed + seed;
  }

let numa_cells ~seed () =
  List.concat_map
    (fun algo ->
      List.concat_map
        (fun n_clusters ->
          List.map
            (fun hold_us ->
              let config = numa_config ~seed ~n_clusters ~hold_us in
              {
                id =
                  Printf.sprintf "numa_handoff/%s/c%d/h%g" (Lock.algo_name algo)
                    n_clusters hold_us;
                hooks = true;
                run =
                  (fun ~trace ~hooks ->
                    let c = Drivers.numa_cell ?trace ~hooks config algo in
                    let r = c.Drivers.result in
                    ( c.Drivers.m,
                      digest r,
                      digest
                        ( r.Numa_stress.summary,
                          r.Numa_stress.acquisitions,
                          r.Numa_stress.atomics ) ));
                experiment = (fun () -> digest (Numa_stress.run ~config algo));
              })
            numa_holds_us)
        numa_clusters)
    Experiments.numa_algos

let slo_config ~seed rate_per_ms =
  {
    Slo_stream.default_config with
    rate_per_ms;
    seed = Slo_stream.default_config.Slo_stream.seed + seed;
  }

let slo_cells ~seed () =
  List.map
    (fun rate ->
      let config = slo_config ~seed rate in
      {
        id = Printf.sprintf "slo_stream/%g" rate;
        hooks = true;
        run =
          (fun ~trace ~hooks ->
            let c = Drivers.slo_cell ?trace ~hooks config in
            let r = c.Drivers.result in
            ( c.Drivers.m,
              digest r,
              digest
                {
                  r with
                  Slo_stream.lockdep_violations = 0;
                  obs_rows = [];
                } ));
        experiment = (fun () -> digest (Slo_stream.run ~config ()));
      })
    Experiments.slo_rates

(* Each cell starts from a collected heap, so it does not pay for the
   garbage of the cells before it; the collection is not timed. *)
let run_cell ?trace ?(toggle = false) ~seed cell =
  let hooks_on = cell.hooks <> toggle in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let wall_s () = Unix.gettimeofday () -. t0 in
  match cell.run ~trace ~hooks:hooks_on with
  | exception e ->
    {
      cell;
      wall_s = wall_s ();
      hooks_on;
      m = None;
      digest = "";
      stable = "";
      problems = [ "raised " ^ Printexc.to_string e ];
    }
  | m, digest, stable ->
    let reference =
      if seed <> default_seed || toggle then []
      else
        match List.assoc_opt cell.id Reference.cells with
        | Some d when d = digest -> []
        | Some _ -> [ "simulated result differs from the stored reference" ]
        | None -> [ "no stored reference digest" ]
    in
    {
      cell;
      wall_s = wall_s ();
      hooks_on;
      m = Some m;
      digest;
      stable;
      problems = m.Drivers.problems @ reference;
    }

(* -- The SLO experiment's export ---------------------------------------------- *)

(* [Bench_json.document] over the SLO experiment, whose cells are
   [slo_stream]'s: the traced run prices [core] on it. *)
let export_jobs = max 1 (min 2 (Domain.recommended_domain_count ()))

let export_document ~jobs =
  Hurricane.Bench_json.document ~jobs ~names:[ "slo" ] ()

let workloads =
  [
    ("fault_sweep", fault_cells);
    ("numa_handoff", numa_cells);
    ("slo_stream", slo_cells);
  ]
