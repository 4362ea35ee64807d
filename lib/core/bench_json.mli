(** Machine-readable benchmark export: runs the paper experiments and
    renders their in-process results as one schema-stable JSON document
    ([bench/main.exe -- --json] writes it to [BENCH_results.json]), so the
    perf trajectory can be tracked across PRs by tooling instead of by
    reading text tables.

    Schema (version {!schema_version}):
    {v
    { "schema_version": 9,
      "config": "hector",
      "units": { "latency": "us" },
      "experiments": {
        "fig4":        [ {algo, ours:{atomic,mem,reg,br}, paper:{...},
                          matches_paper, predicted_us} ],
        "uncontended": [ {algo, pair_us, predicted_us|null} ],
        "fig5a"/"fig5b": { hold_us,
                           series: [ {algo, points: [ {p, n, mean_us,
                             p50_us, p99_us, p999_us, max_us,
                             frac_above_2ms, acquisitions} ]} ] },
        "starvation":  {n, mean_us, p50_us, p90_us, p99_us, p999_us,
                        min_us, max_us, frac_above_2ms},
        "fig7a".."fig7d": { xlabel,
                            series: [ {algo, points: [ {x, mean_us,
                              p99_us, retries, rpcs} ]} ] },
        "constants":   {soft_fault_us, lockless_fault_us, ...},
        "numa_locks":  [ {algo, clusters, hold_us, mean_us, p99_us,
                          acquisitions, local_handoffs, remote_handoffs,
                          remote_frac, max_wait_us} ],
        "hash_scaling": [ {granularity, shards, optimistic, p, read_ratio,
                           read_mean_us, read_p99_us, update_mean_us,
                           throughput_ops_ms, optimistic_hits,
                           optimistic_fallbacks, atomics} ],
        "abort_storm": [ {algo, attempts, acquisitions, aborts, fast_fails,
                          stalls, overshoot_mean_us, overshoot_p99_us,
                          overshoot_max_us, bound_ratio, recovery_mean_us,
                          recovery_max_us, obs_aborts, obs_repairs,
                          remote_aborts, final_free} ],
        "crash_storm": [ {algo, kills, acquisitions, obs_crashes,
                          obs_recoveries, lockdep_recoveries,
                          lockdep_violations, recovery_mean_us,
                          recovery_p99_us, recovery_max_us, recovery_n,
                          clusters_hit, worst_cluster_p99_us, final_free} ],
        "rw_scaling":  [ {style, read_ratio, clusters, p, read_mean_us,
                          read_p99_us, read_p999_us, write_mean_us,
                          throughput_ops_ms, read_throughput_ops_ms, reads,
                          writes, peak_readers, read_remote, seq_aborts,
                          lockdep_violations} ],
        "slo":         [ {offered_per_ms, p, elements, shards, completed,
                          achieved_per_ms, read:{n, mean_us, p50_us, p90_us,
                          p99_us, p999_us, min_us, max_us, frac_above_2ms},
                          update:{...}, peak_backlog, optimistic_hits,
                          optimistic_fallbacks, lockdep_violations} ],
        "diurnal":     [ {lock, cold1_ops, hot_ops, cold2_ops,
                          cold_throughput_ops_ms, hot_throughput_ops_ms,
                          final_free, lockdep_violations} ]
      } }
    v}
    Every section is its {!Spec}'s cells encoded by the spec's shape: the
    rows sections ("fig4", "uncontended", "numa_locks" .. "diurnal") hold
    one row per grid config, a row's fields being the spec's keyed columns
    in column order (the listing above); a series section ("fig5a" ..
    "fig7d") one series per lock algorithm; a record section
    ("starvation", "constants") one object.
    Version 2 added "numa_locks" (cross-cluster contention: NUMA-aware
    composites vs flat MCS, with hand-off locality and worst-case waits).
    Version 3 added "hash_scaling" (sharded hash table + seqlock
    optimistic reads: throughput and read/update latency per granularity x
    shard count x read ratio x p).
    Version 4 added "abort_storm" (timed abandonment under a planted
    cross-cluster holder stall: overshoot vs deadline, worst
    return/timeout ratio, recovery latency and per-cluster abort counts
    per abortable algorithm).
    Version 5 added "crash_storm" (fail-stop kills planted
    mid-critical-section: conservation, lockdep-legalised recovery
    transfers, kill-to-forced-release latency per algorithm and worst
    cluster).
    Version 6 added "rw_scaling" (read-mostly lookups: distributed RW lock
    vs its centralised-indicator baseline vs seqlock vs per-cluster
    replication, with reader-parallelism peaks and remote read-path
    traffic) and "p999_us" in every latency summary.
    Version 7 added "slo" (open-loop request stream over the sharded
    million-element table: offered vs achieved rate, arrival-to-completion
    p50/p99/p99.9 per offered load, peak backlog, zero lockdep
    violations); all pre-v7 experiment values unchanged.
    Version 8 added "adaptive" (the diurnal load cycle: per-phase
    throughput of the morphing lock against every static shape, with
    observer-counted promotions/demotions and the final shape gauge); all
    pre-v8 experiment values unchanged.
    Version 9 renamed "adaptive" to "diurnal" and dropped the morphing
    lock's row and the three fields that counted its morphs (the lock was
    deleted); the six static rows and every other experiment's values are
    unchanged.
    Every number is the exact value the in-process run returned — the
    claims suite runs the full export once and compares it with the
    committed BENCH_results.json byte for byte. *)

val schema_version : int

(** ["fig4"; "uncontended"; "fig5a"; "fig5b"; "starvation"; "fig7a"-"d";
    "constants"; "numa_locks"; "hash_scaling"; "abort_storm";
    "crash_storm"; "rw_scaling"; "slo"; "diurnal"] — what a bare [--json]
    exports. *)
val default_names : unit -> string list

(** Build the document for the named experiments, all of them for [[]].
    A name that is unknown, a study's or given twice raises
    [Invalid_argument] before any cell runs. [knobs] defaults to
    {!Registry.full}, the paper's full settings; tests pass reduced ones
    through the same code path. [jobs] runs the independent experiment
    cells on that many OCaml domains via {!Par.map}; the document is
    byte-identical to a [jobs = 1] run (each cell owns its Engine, Machine
    and seeded Rng, and fragments are reassembled in the sequential
    order). *)
val document :
  ?knobs:Registry.knobs ->
  ?jobs:int ->
  names:string list ->
  unit ->
  Json.t

(** The document of the outcomes' exported entries, in order. *)
val of_outcomes : Registry.outcome list -> Json.t

(** [write ~path doc] serialises with a trailing newline. *)
val write : path:string -> Json.t -> unit
