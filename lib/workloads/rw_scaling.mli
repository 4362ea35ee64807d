(** Read-mostly page-descriptor lookups (the RW-SCALING experiment):
    seqlock vs distributed RW lock vs per-cluster replication vs a plain
    exclusive lock, at 95/99/99.9% read ratios across 1–4 clusters. A
    Verify checker and Obs observer are always installed — the smoke
    gate's "reader parallelism > 1, zero lockdep violations" facts come
    from instrumentation. *)

open Hector
open Locks

type style =
  | Mutex of Lock.algo  (** every access behind one exclusive lock *)
  | Rw_lock of { writer : Lock.algo; policy : Rwlock.policy; centralised : bool }
  | Seqlock_style of { writer : Lock.algo }
      (** optimistic sample/validate readers, locked fallback; writers
          under [writer] *)
  | Replicated of { writer : Lock.algo }
      (** one replica per cluster: local unlocked reads, writers store
          through every replica under [writer] *)

val style_name : style -> string

type config = {
  p : int;
  n_clusters : int;
  ops : int;  (** per processor *)
  read_ratio : float;
  read_work_us : float;
  write_work_us : float;
  think_us : float;
  style : style;
  seed : int;
}

val default_config : config

(** One run's measurements; the run's coordinates are its config's. *)
type result = {
  read_summary : Measure.summary;  (** latency, section work excluded *)
  write_summary : Measure.summary;
  makespan_us : float;
  throughput_ops_ms : float;
  read_throughput_ops_ms : float;
  reads_done : int;
  writes_done : int;
  peak_readers : int;
      (** host-tracked peak concurrent read sections — 1 by construction
          for [Mutex], > 1 when reads actually parallelise *)
  read_remote : int;
      (** RW styles: read-path indicator ops that crossed a cluster
          boundary (0 for the distributed layout) *)
  seq_aborts : int;
  lockdep_violations : int;
  obs_rows : Obs.row list;
}

(** The profile class the guarded structure reports under ("rw"). *)
val obs_class : string

(** [obs], if given, is installed in place of the run's own untraced
    observer (to keep a trace, say); build it over the run's clustering. *)
val run :
  ?cfg:Config.t -> ?config:config -> ?obs:Obs.t -> unit -> result
