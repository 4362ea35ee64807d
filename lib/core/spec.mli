(** One spec per extension experiment (NUMA-LOCKS, HASH-SCALING,
    ABORT-STORM, CRASH-STORM, RW-SCALING, SLO, DIURNAL): its sweep, its
    columns and its command-line knobs in one value. A row is a config
    paired with its run's result. {!Registry} derives the experiment's
    entry from the spec (one cell per grid config, the JSON section, the
    text table), and [hurricane_sim] derives its subcommand (the knobs over
    [default], printing the run's JSON row). *)

open Locks
open Workloads

(** A row's column: its JSON key and encoder, its text head and width, and
    its cell format. A column reads a config and its run's result. *)
module Col : sig
  type ('c, 'r) t

  (** Each constructor takes the JSON key, the text head and the width. An
      empty key leaves the column out of the JSON row; an empty head leaves
      it out of the text table. Cells are right-aligned at the width, except
      {!text}'s. *)
  type ('c, 'r, 'v) make =
    string -> string -> int -> ('c -> 'r -> 'v) -> ('c, 'r) t

  val int : ('c, 'r, int) make

  (** [float key head width decimals get]. *)
  val float :
    string -> string -> int -> int -> ('c -> 'r -> float) -> ('c, 'r) t

  (** A fraction: the JSON holds it, the cell shows it as a percentage with
      [decimals] and a trailing [%]. *)
  val pct :
    string -> string -> int -> int -> ('c -> 'r -> float) -> ('c, 'r) t

  (** The cell reads [yes], or [no] (default ["NO"]). *)
  val bool : ?no:string -> ('c, 'r, bool) make

  (** A left-aligned name. *)
  val text : ('c, 'r, string) make

  (** A JSON-only column with its own encoder. *)
  val json : string -> ('c -> 'r -> Json.t) -> ('c, 'r) t
end

(** Command-line knobs. A knob is one flag that updates one field of a
    workload's config. Each helper takes the flag's default, which callers
    read from the field of the workload's default config, so a subcommand at
    its defaults runs its default config. *)
module Knob : sig
  type 'c t = ('c -> 'c) Cmdliner.Term.t

  (** A knob over one field: [helper default set] takes the flag's default
      and the field's setter. *)
  type ('c, 'v) field = 'v -> ('c -> 'v -> 'c) -> 'c t

  (** [knob typ names ~docv ~doc]: the flag [names] of type [typ]. *)
  val knob :
    ?absent:string ->
    'v Cmdliner.Arg.conv ->
    string list ->
    docv:string ->
    doc:string ->
    ('c, 'v) field

  (** A flag that applies its update when it is given. *)
  val switch : string list -> doc:string -> ('c -> 'c) -> 'c t

  (** [config d knobs]: [d] with every knob's update applied. *)
  val config : 'c -> 'c t list -> 'c Cmdliner.Term.t

  (** A knob of the config paired with a workload's lock argument. *)
  val second : 'c t -> ('a * 'c) t

  (** [--lock], in {!Locks.Lock.of_string}'s spellings, as a workload's
      argument rather than a field. *)
  val lock_arg : Lock.algo -> Lock.algo Cmdliner.Term.t

  val lock : ('c, Lock.algo) field
  val procs : ?doc:string -> ('c, int) field
  val workers : ('c, int) field
  val cluster_size : ('c, int) field
  val clusters : ?doc:string -> ('c, int) field
  val seed : ('c, int) field
  val window : ('c, float) field
  val hold : ('c, float) field
  val read_ratio : ?doc:string -> ('c, float) field
end

type ('c, 'r) t = {
  section : string;  (** export section and registry name *)
  command : string;  (** [hurricane_sim] subcommand *)
  doc : string;  (** the subcommand's doc *)
  title : string;  (** the text table's section title *)
  claim : string;  (** what the table shows, as its section states it *)
  default : 'c;  (** the subcommand's config; a member of [grid] *)
  grid : 'c list;  (** the exported configs, in row order *)
  run : 'c -> 'r;
  columns : ('c, 'r) Col.t list;
  knobs : 'c -> 'c Knob.t list;  (** the subcommand's flags over a default *)
}

(** A row's JSON object: its keyed columns, in order. *)
val row : ('c, 'r) t -> 'c * 'r -> Json.t

(** The text table: the section, the column heads, one line per row. *)
val print : ('c, 'r) t -> Format.formatter -> ('c * 'r) list -> unit

(** A latency summary's JSON fields. *)
val summary_fields : Measure.summary -> (string * Json.t) list

(** Each spec is built when called, so a program that links this module
    but reads no spec (one that only exports) pays nothing for it. *)

val numa_locks :
  unit -> (Lock.algo * Numa_stress.config, Numa_stress.result) t

val hash_scaling : unit -> (Hash_scaling.config, Hash_scaling.result) t

val abort_storm :
  unit -> (Lock.algo * Abort_storm.config, Abort_storm.result) t

val crash_storm :
  unit -> (Lock.algo * Crash_storm.config, Crash_storm.result) t

val rw_scaling : unit -> (Rw_scaling.config, Rw_scaling.result) t

val slo : unit -> (Slo_stream.config, Slo_stream.result) t

val diurnal : unit -> (Diurnal.config, Diurnal.result) t

type any = Spec : ('c, 'r) t -> any

(** The seven, in export order, built on first use. *)
val all : any list Lazy.t
