(** The experiment registry: one ordered entry per table, figure, ablation
    and extension experiment. An exported experiment's entry derives from
    its {!Spec} (one cell per grid config; its JSON section, text report
    and, for a series, .dat file from the spec's shape); every other entry
    runs its experiment whole as one cell and prints its own report. The
    bench text run, the JSON export ({!Bench_json}), [--dat] and
    [hurricane_sim figure] are all derived from {!all} and {!run}. *)

(** {!Spec.knobs}. *)
type knobs = Spec.knobs = {
  procs : int list option;
  sizes : int list option;
  iters : int option;
  rounds : int option;
}

(** Every knob at its full setting. *)
val full : knobs

type t

(** Every experiment, in the order [bench] prints them, built on first
    use. *)
val all : t list Lazy.t

val name : t -> string

(** Whether the entry comes from a {!Spec} (is part of
    [BENCH_results.json]). *)
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

(** The entry's name and JSON value, if it is exported. *)
val json : outcome -> (string * Json.t) option

(** {!Spec.unexpected} on the entry's cells: none for an unexported
    entry. *)
val unexpected : outcome -> string list

(** [write_dat ?knobs dir] creates [dir] if needed (a [Sys_error] if it
    cannot, before any cell runs), runs every series spec and writes its
    .dat file plus [plots.gp] into [dir]. Returns the written paths,
    [plots.gp] last. *)
val write_dat : ?knobs:knobs -> string -> string list
