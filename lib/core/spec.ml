(* The extension experiments' specs (interface in spec.mli): each states its
   sweep, its row's columns and its command-line knobs once. *)

open Cmdliner
open Locks
open Workloads

module Col = struct
  type ('c, 'r) t = {
    key : string;
    head : string;
    width : int;
    json : 'c -> 'r -> Json.t;
    cell : 'c -> 'r -> string;
  }

  type ('c, 'r, 'v) make =
    string -> string -> int -> ('c -> 'r -> 'v) -> ('c, 'r) t

  let col key head width json cell get =
    let json c r = json (get c r) and cell c r = cell (get c r) in
    { key; head; width; json; cell }

  let int k h w =
    col k h w (fun v -> Json.Int v) (fun v -> Printf.sprintf "%*d" w v)

  let float k h w d =
    col k h w (fun v -> Json.Float v) (fun v -> Printf.sprintf "%*.*f" w d v)

  let pct k h w d =
    col k h w (fun v -> Json.Float v) (fun v ->
        Printf.sprintf "%*.*f%%" (w - 1) d (100.0 *. v))

  let bool ?(no = "NO") k h w =
    col k h w (fun b -> Json.Bool b) (fun b ->
        Printf.sprintf "%*s" w (if b then "yes" else no))

  let text k h w =
    col k h w (fun s -> Json.String s) (fun s -> Printf.sprintf "%-*s" w s)

  let json key json =
    { key; head = ""; width = 0; json; cell = (fun _ _ -> "") }
end

module Knob = struct
  type 'c t = ('c -> 'c) Term.t
  type ('c, 'v) field = 'v -> ('c -> 'v -> 'c) -> 'c t

  let knob ?absent typ names ~docv ~doc default (set : 'c -> 'v -> 'c) : 'c t =
    Term.(
      const (fun v c -> set c v)
      $ Arg.(value & opt typ default & info names ?absent ~docv ~doc))

  let switch names ~doc set =
    Term.(
      const (fun on c -> if on then set c else c)
      $ Arg.(value & flag & info names ~doc))

  let config d knobs =
    List.fold_left
      (fun acc knob -> Term.(const (fun c set -> set c) $ acc $ knob))
      (Term.const d) knobs

  let second knob = Term.(const (fun set (a, c) -> (a, set c)) $ knob)

  let algo_conv =
    let parse s = Result.map_error (fun m -> `Msg m) (Lock.of_string s) in
    let print ppf a = Format.pp_print_string ppf (Lock.algo_name a) in
    Arg.conv (parse, print)

  let lock_doc =
    "Lock algorithm: "
    ^ String.concat ", " (List.map fst Lock.spellings)
    ^ " or spin:<max-backoff-us> (at least 1)."

  let lock_arg default =
    Arg.(
      value & opt algo_conv default
      & info [ "l"; "lock" ] ~docv:"ALGO" ~doc:lock_doc)

  let lock default set = Term.(const (fun v c -> set c v) $ lock_arg default)

  let procs ?(doc = "Number of contending processors.") d =
    knob Arg.int [ "p"; "procs" ] ~docv:"P" ~doc d

  let workers d =
    knob Arg.int [ "p"; "workers" ] ~docv:"P" ~doc:"Worker processors." d

  let cluster_size d =
    knob Arg.int [ "c"; "cluster-size" ] ~docv:"N"
      ~doc:"Processors per cluster." d

  let clusters ?(doc = "Number of clusters (p=16 split).") d =
    knob Arg.int [ "clusters" ] ~docv:"C" ~doc d

  let seed d = knob Arg.int [ "seed" ] ~docv:"SEED" ~doc:"RNG seed." d

  let window d =
    knob Arg.float [ "window" ] ~docv:"US" ~doc:"Measurement window in us." d

  let hold d =
    knob Arg.float [ "hold" ] ~docv:"US" ~doc:"Critical-section length in us." d

  let read_ratio ?(doc = "Fraction of operations that are read-only lookups.")
      d =
    knob Arg.float [ "read-ratio" ] ~docv:"R" ~doc d
end

open Knob

type ('c, 'r) t = {
  section : string;
  command : string;
  doc : string;
  title : string;
  claim : string;
  default : 'c;
  grid : 'c list;
  run : 'c -> 'r;
  columns : ('c, 'r) Col.t list;
  knobs : 'c -> 'c Knob.t list;
}

let row s (c, r) =
  Json.Obj
    (List.filter_map
       (fun (col : _ Col.t) ->
         if col.key = "" then None else Some (col.key, col.json c r))
       s.columns)

let print s ppf rows =
  let cols = List.filter (fun (c : _ Col.t) -> c.head <> "") s.columns in
  Report.table ppf ~title:s.title ~claim:s.claim
    (List.map (fun (c : _ Col.t) -> (c.head, c.width)) cols)
    (List.map (fun (c, r) -> List.map (fun (col : _ Col.t) -> col.cell c r) cols)
       rows)

let summary_fields (s : Measure.summary) =
  [
    ("n", Json.Int s.n);
    ("mean_us", Json.Float s.mean_us);
    ("p50_us", Json.Float s.p50_us);
    ("p90_us", Json.Float s.p90_us);
    ("p99_us", Json.Float s.p99_us);
    ("p999_us", Json.Float s.p999_us);
    ("min_us", Json.Float s.min_us);
    ("max_us", Json.Float s.max_us);
    ("frac_above_2ms", Json.Float s.frac_above_2ms);
  ]

let algo_name (a, _) _ = Lock.algo_name a

(* The grids are products of their sweep axes, outermost first. *)
let ( let* ) xs f = List.concat_map f xs

(* Flat MCS against the three NUMA composites, sweeping how finely 16
   processors are clustered and how long the lock is held. The composites
   must show a lower cross-cluster hand-off fraction whenever there is more
   than one cluster; at hold > 0 the locality should also buy back latency
   (the protected data stops migrating every hand-off). *)
let numa_locks () : (Lock.algo * Numa_stress.config, Numa_stress.result) t =
  let open Numa_stress in
  {
    section = "numa_locks";
    command = "numa";
    doc =
      "Cross-cluster lock stress: hand-off locality (local vs remote) and \
       worst-case waits for one lock algorithm (experiment NUMA-LOCKS). \
       Compare cohort/hmcs/cna against h2.";
    title = "NUMA-LOCKS - cross-cluster contention (cohort/HMCS/CNA vs MCS)";
    claim =
      "16 processors hammer one lock, partitioned into clusters; NUMA-aware \
       locks hand off within a cluster when they can, so the fraction of \
       hand-offs crossing a cluster boundary - and with it the data's \
       migration traffic - drops against flat MCS";
    default = (Lock.Mcs_h2, default_config);
    grid =
      (let* algo = Experiments.numa_algos in
       let* n_clusters = [ 1; 2; 4 ] in
       let* hold_us = [ 0.0; 10.0 ] in
       [ (algo, { default_config with n_clusters; hold_us }) ]);
    run = (fun (algo, config) -> run ~config algo);
    columns =
      Col.
        [
          text "algo" "lock" 15 algo_name;
          int "clusters" "clusters" 8 (fun (_, c) _ -> c.n_clusters);
          float "hold_us" "hold(us)" 9 0 (fun (_, c) _ -> c.hold_us);
          float "mean_us" "mean(us)" 10 2 (fun _ r -> r.summary.mean_us);
          float "p99_us" "p99(us)" 9 1 (fun _ r -> r.summary.p99_us);
          int "acquisitions" "" 0 (fun _ r -> r.acquisitions);
          int "local_handoffs" "local" 9 (fun _ r -> r.local_handoffs);
          int "remote_handoffs" "remote" 9 (fun _ r -> r.remote_handoffs);
          pct "remote_frac" "rem%" 8 1 (fun _ r -> remote_frac r);
          float "max_wait_us" "maxw(us)" 10 1 (fun _ r -> r.max_wait_us);
        ];
    knobs =
      (fun (a, c) ->
        lock a (fun (_, c) a -> (a, c))
        :: List.map second
             [
               clusters c.n_clusters (fun c n_clusters -> { c with n_clusters });
               hold c.hold_us (fun c hold_us -> { c with hold_us });
               window c.window_us (fun c window_us -> { c with window_us });
             ]);
  }

(* The single-lock hybrid against the sharded table at several shard counts,
   with the seqlock read path off and on, sweeping concurrency and read mix:
   throughput scales with the shard count once the single lock saturates,
   and at read-heavy mixes the optimistic path serves lookups for a pair of
   loads instead of a lock round-trip. *)
let hash_scaling () : (Hash_scaling.config, Hash_scaling.result) t =
  let open Hkernel in
  let open Hash_scaling in
  let granularities =
    List.map
      (fun g -> (Khash.granularity_name g, g))
      Khash.[ Hybrid; Coarse; Fine; Sharded ]
  in
  let point p read_ratio granularity shards optimistic =
    { default_config with p; read_ratio; granularity; shards; optimistic }
  in
  {
    section = "hash_scaling";
    command = "hash";
    doc =
      "Read/update mix over one hash table: sharded granularity and the \
       seqlock optimistic read path against the single-lock hybrid \
       (experiment HASH-SCALING).";
    title = "HASH-SCALING - sharded table + seqlock optimistic reads";
    claim =
      "the hybrid table's single coarse lock is the ceiling within a \
       cluster; splitting the bins over per-shard locks homed on distinct \
       PMMs restores scaling, and a per-shard sequence word lets read-only \
       lookups skip the lock entirely (a pair of loads instead of an \
       acquire/release round-trip)";
    default = default_config;
    grid =
      (let* p = [ 4; 8; 16 ] in
       let* rr = [ 0.5; 0.9 ] in
       point p rr Khash.Hybrid 1 false
       :: (let* s = [ 2; 4; 8 ] in
           List.map (point p rr Khash.Sharded s) [ false; true ]));
    run = (fun config -> run ~config ());
    columns =
      Col.
        [
          text "granularity" "mode" 8 (fun c _ ->
              Khash.granularity_name c.granularity);
          int "shards" "shards" 6 (fun _ r -> r.shards);
          bool ~no:"no" "optimistic" "opt" 4 (fun _ r -> r.optimistic);
          int "p" "p" 5 (fun c _ -> c.p);
          pct "read_ratio" "read" 5 0 (fun c _ -> c.read_ratio);
          float "read_mean_us" "read(us)" 10 2 (fun _ r -> r.read_summary.mean_us);
          float "read_p99_us" "p99(us)" 9 1 (fun _ r -> r.read_summary.p99_us);
          float "update_mean_us" "upd(us)" 10 2 (fun _ r ->
              r.update_summary.mean_us);
          float "throughput_ops_ms" "thr/ms" 9 1 (fun _ r -> r.throughput_ops_ms);
          int "optimistic_hits" "hits" 6 (fun _ r -> r.optimistic_hits);
          int "optimistic_fallbacks" "fb" 5 (fun _ r -> r.optimistic_fallbacks);
          int "atomics" "" 0 (fun _ r -> r.atomics);
        ];
    knobs =
      (fun d ->
        [
          lock d.lock_algo (fun c lock_algo -> { c with lock_algo });
          knob (Arg.enum granularities) [ "g"; "granularity" ] ~docv:"G"
            ~doc:("Table granularity: " ^ Arg.doc_alts_enum granularities ^ ".")
            d.granularity (fun c granularity -> { c with granularity });
          procs ~doc:"Contending processors." d.p (fun c p -> { c with p });
          knob Arg.int [ "shards" ] ~docv:"S"
            ~doc:"Shard count (sharded granularity)." d.shards
            (fun (c : config) shards -> { c with shards });
          read_ratio d.read_ratio (fun c read_ratio -> { c with read_ratio });
          switch [ "locked" ]
            ~doc:
              "Force lookups through the locked path (disable the seqlock \
               optimistic reads)."
            (fun (c : config) -> { c with optimistic = false });
          knob Arg.float [ "churn" ] ~docv:"F"
            ~doc:
              "Fraction of non-read operations that delete and re-insert \
               their key (chain mutations)."
            d.churn_fraction (fun c churn_fraction -> { c with churn_fraction });
          seed d.seed (fun c seed -> { c with seed });
        ]);
  }

(* Flat MCS and the three NUMA composites under the same planted
   cross-cluster holder stall. *)
let abort_storm () : (Lock.algo * Abort_storm.config, Abort_storm.result) t =
  let open Abort_storm in
  {
    section = "abort_storm";
    command = "abort";
    doc =
      "Timed acquisition under a planted cross-cluster holder stall: every \
       waiter attempts through the timed face and must return within a \
       bounded overshoot of its deadline (experiment ABORT-STORM). Only \
       abortable algorithms are accepted.";
    title = "ABORT-STORM - timed abandonment under a stalled holder";
    claim =
      "one processor takes the lock and goes dark for ~10x any waiter's \
       deadline; every other processor attempts through the timed face. \
       Each expired waiter must return within a bounded multiple of its \
       deadline (the ratio column) instead of riding out the stall, remote \
       aborts show waiters expiring at every level of the NUMA composite, \
       and the lock must recover promptly - abandoned queue nodes repaired \
       at the next hand-offs - once the holder releases";
    default = (Lock.Mcs_h2, default_config);
    grid = List.map (fun a -> (a, default_config)) Experiments.numa_algos;
    run = (fun (algo, config) -> run ~config algo);
    columns =
      Col.
        [
          text "algo" "lock" 15 algo_name;
          int "attempts" "attempts" 8 (fun _ r -> r.attempts);
          int "acquisitions" "acq" 6 (fun _ r -> r.acquisitions);
          int "aborts" "aborts" 7 (fun _ r -> r.aborts);
          int "fast_fails" "" 0 (fun _ r -> r.fast_fails);
          int "stalls" "stall" 6 (fun _ r -> r.stalls);
          float "overshoot_mean_us" "over(us)" 9 2 (fun _ r -> r.overshoot.mean_us);
          float "overshoot_p99_us" "" 0 0 (fun _ r -> r.overshoot.p99_us);
          float "overshoot_max_us" "maxov(us)" 9 1 (fun _ r -> r.max_overshoot_us);
          float "bound_ratio" "ratio" 6 2 (fun _ r -> r.bound_ratio);
          float "recovery_mean_us" "rec(us)" 9 1 (fun _ r -> r.recovery.mean_us);
          float "recovery_max_us" "" 0 0 (fun _ r -> r.recovery.max_us);
          int "obs_aborts" "" 0 (fun _ r -> r.obs_aborts);
          (* The JSON has repairs before remote aborts, the table after. *)
          int "obs_repairs" "" 0 (fun _ r -> r.obs_repairs);
          int "remote_aborts" "rem-ab" 7 (fun _ r -> r.remote_aborts);
          int "" "repair" 7 (fun _ r -> r.obs_repairs);
          bool "final_free" "free" 5 (fun _ r -> r.final_free);
        ];
    knobs =
      (fun (a, c) ->
        lock a (fun (_, c) a -> (a, c))
        :: List.map second
             [
               clusters c.n_clusters (fun c n_clusters -> { c with n_clusters });
               knob Arg.float [ "timeout" ] ~docv:"US"
                 ~doc:"Per-attempt deadline in us." c.timeout_us
                 (fun c timeout_us -> { c with timeout_us });
               knob Arg.float [ "stall" ] ~docv:"US"
                 ~doc:"How long the planted holder goes dark per stall."
                 c.stall_us (fun c stall_us -> { c with stall_us });
               window c.window_us (fun c window_us -> { c with window_us });
               seed c.seed (fun c seed -> { c with seed });
             ]);
  }

(* Representative flat queue locks (MCS, CLH, and the non-abortable Ticket,
   whose waiters recover in-spin) plus the NUMA composites, each under the
   same planted mid-critical-section kill schedule. *)
let crash_storm () : (Lock.algo * Crash_storm.config, Crash_storm.result) t =
  let open Crash_storm in
  {
    section = "crash_storm";
    command = "crash";
    doc =
      "Fail-stop crashes planted mid-critical-section: victims die holding \
       the lock, survivors acquire through the recoverable face and \
       force-release each orphaned hold (experiment CRASH-STORM). Only \
       recoverable algorithms are accepted.";
    title = "CRASH-STORM - fail-stop kills mid-critical-section";
    claim =
      "victim processors fail-stop while holding the lock (the fiber parks, \
       releasing nothing); every survivor acquires through the recoverable \
       face, whose dead-holder detector force-releases each orphaned hold. \
       Conservation demands a recovery per kill, an installed lockdep \
       checker must see every forced release as a legal transfer (zero \
       violations), and the storm must end with the lock free";
    default = (Lock.Mcs_h2, default_config);
    grid =
      List.map
        (fun a -> (a, default_config))
        (Lock.Mcs_h2 :: Lock.Clh :: Lock.Ticket :: Lock.all_numa_algos);
    run = (fun (algo, config) -> run ~config algo);
    columns =
      Col.
        [
          text "algo" "lock" 15 algo_name;
          int "kills" "kills" 6 (fun _ r -> r.kills);
          int "acquisitions" "acq" 6 (fun _ r -> r.acquisitions);
          int "obs_crashes" "crashes" 7 (fun _ r -> r.obs_crashes);
          int "obs_recoveries" "recov" 6 (fun _ r -> r.obs_recoveries);
          int "lockdep_recoveries" "lkdep" 6 (fun _ r -> r.lockdep_recoveries);
          int "lockdep_violations" "viol" 5 (fun _ r -> r.lockdep_violations);
          float "recovery_mean_us" "rec(us)" 9 1 (fun _ r -> r.recovery.mean_us);
          float "recovery_p99_us" "p99(us)" 9 1 (fun _ r -> r.recovery.p99_us);
          float "recovery_max_us" "max(us)" 9 1 (fun _ r -> r.recovery.max_us);
          int "recovery_n" "" 0 (fun _ r -> r.recovery.n);
          int "clusters_hit" "clus" 5 (fun _ r -> clusters_hit r);
          float "worst_cluster_p99_us" "worstp99" 10 1 (fun _ r ->
              worst_cluster_p99_us r);
          bool "final_free" "free" 5 (fun _ r -> r.final_free);
        ];
    knobs =
      (fun (a, c) ->
        lock a (fun (_, c) a -> (a, c))
        :: List.map second
             [
               clusters c.n_clusters (fun c n_clusters -> { c with n_clusters });
               knob Arg.int [ "kills" ] ~docv:"N"
                 ~doc:
                   "Victim processors, each fail-stopped once \
                    mid-critical-section."
                 c.n_kills (fun c n_kills -> { c with n_kills });
               knob Arg.float [ "check-period" ] ~docv:"US"
                 ~doc:
                   "Recoverable-acquire slice (the dead-holder detector \
                    period)."
                 c.check_period_us (fun c check_period_us ->
                   { c with check_period_us });
               hold c.hold_us (fun c hold_us -> { c with hold_us });
               window c.window_us (fun c window_us -> { c with window_us });
               seed c.seed (fun c seed -> { c with seed });
             ]);
  }

(* The read-path style is one field set by four flags: --style picks the
   shape and --lock its writer (an RW lock keeps the default's policy and
   layout), then --reader-preference and --centralised adjust an RW lock. *)
let rw_style (d : Rw_scaling.config) =
  let open Rw_scaling in
  let shape, writer =
    match d.style with
    | Mutex w -> (`Mutex, w)
    | Rw_lock { writer; _ } -> (`Rw, writer)
    | Seqlock_style { writer } -> (`Seqlock, writer)
    | Replicated { writer } -> (`Replicated, writer)
  in
  let set shape writer (c : config) =
    let style =
      match (shape, c.style) with
      | `Mutex, _ -> Mutex writer
      | `Rw, Rw_lock l -> Rw_lock { l with writer }
      | `Rw, _ ->
        Rw_lock { writer; policy = Rwlock.Writer_blocking; centralised = false }
      | `Seqlock, _ -> Seqlock_style { writer }
      | `Replicated, _ -> Replicated { writer }
    in
    { c with style }
  in
  let shapes =
    [
      ("mutex", `Mutex); ("rw", `Rw); ("seqlock", `Seqlock);
      ("replicated", `Replicated);
    ]
  in
  [
    Term.(
      const set
      $ Arg.(
          value
          & opt (enum shapes) shape
          & info [ "style" ] ~docv:"STYLE"
              ~doc:
                "Read-path style: mutex (exclusive lock), rw (distributed RW \
                 lock over the writer algorithm), seqlock, or replicated.")
      $ lock_arg writer);
    switch [ "reader-preference" ]
      ~doc:
        "Use the reader-preference sweep order (close and drain one cluster \
         gate at a time) instead of writer-blocking."
      (fun (c : config) ->
        match c.style with
        | Rw_lock l ->
          { c with style = Rw_lock { l with policy = Rwlock.Reader_preference } }
        | _ -> c);
    switch [ "centralised" ]
      ~doc:
        "Home every reader indicator on one cluster (the layout baseline) \
         instead of distributing them."
      (fun (c : config) ->
        match c.style with
        | Rw_lock l -> { c with style = Rw_lock { l with centralised = true } }
        | _ -> c);
  ]

(* One candidate per strategy family: the exclusive-lock baseline every
   writer-serialising algorithm is stuck at, the RW lock over the MCS
   cohort (plus its centralised-indicator baseline, the remote-traffic
   comparator), the seqlock optimistic path, and HURRICANE-shaped
   per-cluster replication. *)
let rw_scaling () : (Rw_scaling.config, Rw_scaling.result) t =
  let open Rw_scaling in
  let rw writer centralised =
    Rw_lock { writer; policy = Rwlock.Writer_blocking; centralised }
  in
  {
    section = "rw_scaling";
    command = "rw";
    doc =
      "Read-mostly lookups: distributed reader-writer lock vs seqlock vs \
       per-cluster replication vs one exclusive lock (experiment \
       RW-SCALING): reader-parallelism peaks, remote read-path traffic and \
       lockdep violations.";
    title =
      "RW-SCALING - read-mostly lookups: RW lock vs seqlock vs replication";
    claim =
      "every writer-serialising lock queues readers like writers (peak \
       concurrent readers 1 by construction); per-cluster reader indicators \
       let readers CAS their own cluster's word and run in parallel, the \
       seqlock serves reads for a pair of loads, and replication reads a \
       local copy but pays an update broadcast per write. rd-rem counts \
       read-path indicator ops that crossed a cluster boundary - zero for \
       the distributed layout, the centralised baseline's defining cost";
    default = default_config;
    grid =
      (let* style =
         [
           Mutex Lock.c_mcs_mcs; rw Lock.c_mcs_mcs false; rw Lock.Mcs_h2 true;
           Seqlock_style { writer = Lock.Mcs_h2 };
           Replicated { writer = Lock.Mcs_h2 };
         ]
       in
       let* read_ratio = [ 0.95; 0.99; 0.999 ] in
       let* n_clusters = [ 1; 2; 4 ] in
       [ { default_config with style; read_ratio; n_clusters } ]);
    run = (fun config -> run ~config ());
    columns =
      Col.
        [
          text "style" "style" 22 (fun c _ -> style_name c.style);
          pct "read_ratio" "read" 5 1 (fun c _ -> c.read_ratio);
          int "clusters" "clus" 4 (fun c _ -> c.n_clusters);
          int "p" "p" 3 (fun c _ -> c.p);
          float "read_mean_us" "read(us)" 9 2 (fun _ r -> r.read_summary.mean_us);
          float "read_p99_us" "" 0 0 (fun _ r -> r.read_summary.p99_us);
          float "read_p999_us" "p99.9" 8 1 (fun _ r -> r.read_summary.p999_us);
          float "write_mean_us" "write(us)" 9 2 (fun _ r ->
              r.write_summary.mean_us);
          float "throughput_ops_ms" "" 0 0 (fun _ r -> r.throughput_ops_ms);
          float "read_throughput_ops_ms" "rdthr/ms" 9 1 (fun _ r ->
              r.read_throughput_ops_ms);
          int "reads" "" 0 (fun _ r -> r.reads_done);
          int "writes" "" 0 (fun _ r -> r.writes_done);
          int "peak_readers" "peak-rd" 7 (fun _ r -> r.peak_readers);
          int "read_remote" "rd-rem" 5 (fun _ r -> r.read_remote);
          int "seq_aborts" "sq-ab" 7 (fun _ r -> r.seq_aborts);
          int "lockdep_violations" "viol" 6 (fun _ r -> r.lockdep_violations);
        ];
    knobs =
      (fun d ->
        rw_style d
        @ [
            procs ~doc:"Contending processors." d.p (fun c p -> { c with p });
            clusters ~doc:"Clusters the processors are spread across."
              d.n_clusters (fun c n_clusters -> { c with n_clusters });
            read_ratio d.read_ratio (fun c read_ratio -> { c with read_ratio });
            knob Arg.int [ "ops" ] ~docv:"N" ~doc:"Operations per processor."
              d.ops (fun c ops -> { c with ops });
            seed d.seed (fun c seed -> { c with seed });
          ]);
  }

let slo () : (Slo_stream.config, Slo_stream.result) t =
  let open Slo_stream in
  {
    section = "slo";
    command = "slo";
    doc =
      "Open-loop sustained-request stream over the sharded million-element \
       table: exponential arrivals at a fixed offered rate, FIFO queueing \
       behind a random server, arrival-to-completion p50/p99/p99.9 \
       (experiment SLO).";
    title = "SLO - open-loop request stream over the million-element table";
    claim =
      "requests arrive on their own clock and queue behind a random server, \
       so latency includes queueing delay: as the offered rate approaches \
       the table's capacity the p99/p99.9 tails leave the service time long \
       before the mean moves - the closed-loop workloads cannot show this. \
       every point runs under the lockdep checker (viol must be 0)";
    default = default_config;
    grid =
      List.map
        (fun rate_per_ms -> { default_config with rate_per_ms })
        Experiments.slo_rates;
    run = (fun config -> run ~config ());
    columns =
      Col.
        [
          float "offered_per_ms" "rate/ms" 9 1 (fun c _ -> c.rate_per_ms);
          int "p" "p" 3 (fun c _ -> c.p);
          int "elements" "elements" 9 (fun c _ -> c.elements);
          int "shards" "" 0 (fun c _ -> c.shards);
          int "completed" "done" 7 (fun _ r -> r.completed);
          float "achieved_per_ms" "ach/ms" 9 1 (fun _ r -> r.achieved_per_ms);
          float "" "rd-p50" 8 2 (fun _ r -> r.read_summary.p50_us);
          float "" "rd-p99" 8 2 (fun _ r -> r.read_summary.p99_us);
          float "" "rd-p99.9" 9 2 (fun _ r -> r.read_summary.p999_us);
          json "read" (fun _ r -> Json.Obj (summary_fields r.read_summary));
          float "" "up-p99" 9 2 (fun _ r -> r.update_summary.p99_us);
          json "update" (fun _ r -> Json.Obj (summary_fields r.update_summary));
          int "peak_backlog" "backlog" 8 (fun _ r -> r.peak_backlog);
          int "optimistic_hits" "opt-h" 6 (fun _ r -> r.optimistic_hits);
          int "optimistic_fallbacks" "" 0 (fun _ r -> r.optimistic_fallbacks);
          int "lockdep_violations" "viol" 5 (fun _ r -> r.lockdep_violations);
        ];
    knobs =
      (fun d ->
        [
          lock d.lock_algo (fun c lock_algo -> { c with lock_algo });
          procs ~doc:"Server processors." d.p (fun c p -> { c with p });
          knob Arg.int [ "elements" ] ~docv:"N"
            ~doc:"Keys pre-inserted into the table (requests target these)."
            d.elements (fun c elements -> { c with elements });
          knob Arg.float [ "rate" ] ~docv:"R"
            ~doc:"Offered load: requests per virtual millisecond, total."
            d.rate_per_ms (fun c rate_per_ms -> { c with rate_per_ms });
          knob Arg.int [ "requests" ] ~docv:"N" ~doc:"Arrivals generated."
            d.requests (fun c requests -> { c with requests });
          knob Arg.int [ "shards" ] ~docv:"S" ~doc:"Table shard count." d.shards
            (fun c shards -> { c with shards });
          read_ratio ~doc:"Fraction of requests that are read-only lookups."
            d.read_ratio (fun c read_ratio -> { c with read_ratio });
          knob Arg.float [ "work" ] ~docv:"US"
            ~doc:"Update work under the element, us." d.element_work_us
            (fun c element_work_us -> { c with element_work_us });
          seed d.seed (fun c seed -> { c with seed });
        ]);
  }

(* The cold-phase favourite (test&set), both flat MCS hybrids and all three
   NUMA composites. No row tops both phase columns: test&set collapses at
   the peak, the composites pay for their layers in the trickle. *)
let diurnal () : (Diurnal.config, Diurnal.result) t =
  let open Diurnal in
  {
    section = "diurnal";
    command = "diurnal";
    doc =
      "The diurnal load cycle: load ramps cold -> hot -> cold over one lock, \
       with per-phase throughput (experiment DIURNAL).";
    title = "DIURNAL - static lock shapes raced over the diurnal load cycle";
    claim =
      "load ramps cold -> hot -> cold in three equal plateaus: a same-cluster \
       trickle where a test&set lock is unbeatable, then every processor \
       across every cluster where hand-offs go mostly remote and a NUMA \
       composite wins, then the trickle again. No shape tops both phase \
       columns. Every row runs under the lockdep checker (viol must be 0)";
    default = default_config;
    grid =
      List.map
        (fun algo -> { default_config with algo })
        [
          Lock.Spin { max_backoff_us = 35.0 }; Lock.Mcs_h1; Lock.Mcs_h2;
          Lock.cna; Lock.c_mcs_mcs; Lock.hmcs;
        ];
    run = (fun config -> run ~config ());
    columns =
      Col.
        [
          text "lock" "lock" 16 (fun _ r -> r.algo_name);
          int "cold1_ops" "cold1-ops" 9 (fun _ r -> r.cold1_ops);
          int "hot_ops" "hot-ops" 9 (fun _ r -> r.hot_ops);
          int "cold2_ops" "cold2-ops" 9 (fun _ r -> r.cold2_ops);
          float "cold_throughput_ops_ms" "cold/ms" 9 1 (fun _ r ->
              r.cold_throughput_ops_ms);
          float "hot_throughput_ops_ms" "hot/ms" 9 1 (fun _ r ->
              r.hot_throughput_ops_ms);
          bool "final_free" "free" 5 (fun _ r -> r.final_free);
          int "lockdep_violations" "viol" 5 (fun _ r -> r.lockdep_violations);
        ];
    knobs =
      (fun d ->
        [
          lock d.algo (fun c algo -> { c with algo });
          knob Arg.int [ "p-hot" ] ~docv:"P"
            ~doc:"Processors at the daytime peak." d.p_hot (fun c p_hot ->
              { c with p_hot });
          knob Arg.int [ "p-cold" ] ~docv:"P"
            ~doc:"Processors in the overnight trickle." d.p_cold
            (fun c p_cold -> { c with p_cold });
          clusters ~doc:"Number of clusters." d.n_clusters (fun c n_clusters ->
              { c with n_clusters });
          knob Arg.float [ "phase" ] ~docv:"US"
            ~doc:"Length of each of the three plateaus in us." d.phase_us
            (fun c phase_us -> { c with phase_us });
          hold d.hold_us (fun c hold_us -> { c with hold_us });
          seed d.seed (fun c seed -> { c with seed });
        ]);
  }

type any = Spec : ('c, 'r) t -> any

let all =
  lazy
    [
      Spec (numa_locks ()); Spec (hash_scaling ()); Spec (abort_storm ());
      Spec (crash_storm ()); Spec (rw_scaling ()); Spec (slo ());
      Spec (diurnal ());
    ]
