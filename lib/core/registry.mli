(** The experiment registry: one ordered entry per table, figure, study and
    extension experiment, each a {!Spec}: the paper's ({!Spec.paper}), the
    studies ({!Spec.studies}), then the extension experiments
    ({!Spec.extensions}). An entry's cells are its spec's grid configs; its
    text report, its JSON section and, for a series, its .dat file come
    from the spec's shape. The bench text run, the JSON export
    ({!Bench_json}, which writes the paper's and the extensions' sections),
    [--dat] and [hurricane_sim figure] are all derived from {!all} and
    {!run}. *)

(** {!Spec.knobs}. *)
type knobs = Spec.knobs = {
  procs : int list option;
  sizes : int list option;
  iters : int option;
  rounds : int option;
}

(** Every knob at its full setting. *)
val full : knobs

type t = Spec.any

(** Every experiment, in the order [bench] prints them, built on first
    use. *)
val all : t list Lazy.t

(** The spec's section. *)
val name : t -> string

(** [find name]: the entry called [name]; raises [Invalid_argument] with a
    message listing every available name. *)
val find : string -> t

(** An entry's cells, each a grid config and its result. *)
type outcome

(** [run ?jobs ?knobs entries] runs every cell of the entries on up to
    [jobs] domains ({!Par.map}) and keeps each entry's cells in grid order.
    The outcomes are in [entries] order and identical whatever [jobs]
    is. *)
val run : ?jobs:int -> ?knobs:knobs -> t list -> outcome list

(** The entry the outcome is of. *)
val entry : outcome -> t

(** The entry's text report ({!Spec.print}). *)
val print : Format.formatter -> outcome -> unit

(** The entry's name and JSON value ({!Spec.json}). *)
val json : outcome -> string * Json.t

(** {!Spec.unexpected} on the entry's cells. *)
val unexpected : outcome -> string list

(** [write_dat ?knobs dir] creates [dir] if needed (a [Sys_error] if it
    cannot, before any cell runs), runs every series spec and writes its
    .dat file plus [plots.gp] into [dir]. Returns the written paths,
    [plots.gp] last. *)
val write_dat : ?knobs:knobs -> string -> string list
