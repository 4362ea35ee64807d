(** The experiment registry: one ordered entry per table, figure, ablation
    and extension experiment. An entry holds the experiment's name, its
    cells along the outermost sweep axis, how the cell results combine, its
    text report, and, where it has them, its JSON encoder and its .dat
    emitter. The bench text run, the JSON export ({!Bench_json}), [--dat]
    and [hurricane_sim figure] are all derived from {!all} and {!run}. *)

(** The sweep knobs a cell takes; [None] keeps the paper's full setting. A
    knob an experiment's runner has no parameter for is ignored. *)
type knobs = {
  cfg : Hector.Config.t option;
  procs : int list option;
  sizes : int list option;
  iters : int option;
  rounds : int option;
}

(** Every knob at its full setting. *)
val full : knobs

type t

(** Every experiment, in the order [bench] prints them. *)
val all : t list

val name : t -> string

(** Whether the entry has a JSON encoder (is part of [BENCH_results.json]). *)
val exported : t -> bool

(** [find name]: the entry called [name]; raises [Invalid_argument] with a
    message listing every available name. *)
val find : string -> t

(** An entry's combined result. *)
type outcome

(** [run ?jobs ?knobs entries] runs every cell of the entries on up to
    [jobs] domains ({!Par.map}) and combines each entry's results in cell
    order. The outcomes are in [entries] order and identical whatever
    [jobs] is. *)
val run : ?jobs:int -> ?knobs:knobs -> t list -> outcome list

(** The entry's text report. *)
val print : Format.formatter -> outcome -> unit

(** The entry's JSON value, if it is exported. *)
val json : outcome -> Json.t option

(** [write_dat ?knobs dir] runs every plotted figure and writes its .dat
    file plus [plots.gp] into [dir], creating it if needed. Returns the
    written paths, [plots.gp] last. *)
val write_dat : ?knobs:knobs -> string -> string list
