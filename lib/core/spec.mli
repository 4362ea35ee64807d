(** One spec per experiment: the paper's ten tables and figures (FIG4, UNC,
    FIG5a/b, STARVATION, FIG7a-d, CONST), the seventeen studies (the
    ablations ABL1-ABL9, RETRY, TRY, CLASSES, COW, FS, FAULTS, and the
    VERIFY and OBS tool demonstrations) and the seven extension experiments
    (NUMA-LOCKS, HASH-SCALING, ABORT-STORM, CRASH-STORM, RW-SCALING, SLO,
    DIURNAL). A spec states its sweep (one cell per grid config), its run,
    its claims and the shape its results take: rows, one series per lock
    algorithm, or lines per cell. {!Registry} runs every spec's cells and
    prints its text report; {!Bench_json} exports the paper's and the
    extensions' specs, which list a spec is in being what makes it
    exported; [hurricane_sim] derives a subcommand from each spec that has
    a command line: it runs one cell, the config its flags build over the
    spec's default, and prints it through the spec. *)

open Locks
open Workloads

(** The sweep knobs a cell takes; [None] keeps the paper's full setting.
    Only the paper's figures read them: [procs] is FIG5's and FIG7a/b's
    processor counts, [sizes] FIG7c/d's cluster sizes, [iters] FIG7a/c's
    faults per processor and [rounds] FIG7b/d's fault rounds. *)
type knobs = {
  procs : int list option;
  sizes : int list option;
  iters : int option;
  rounds : int option;
}

(** Every knob at its full setting. *)
val full : knobs

(** A row's column: its JSON key and encoder, its text head and width, and
    its cell format. A column reads a config and its run's result. *)
module Col : sig
  type ('c, 'r) t

  (** Each constructor takes the JSON key, the text head and the width. An
      empty key leaves the column out of the JSON row; an empty head leaves
      it out of the text table. Cells are right-aligned at the width, except
      {!text}'s. A head is right-aligned too, except in the first column
      and over a {!text} column. *)
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

  (** [custom key head width json cell get]: the value's JSON and its cell,
      padded by [cell] itself. *)
  val custom :
    string ->
    string ->
    int ->
    ('v -> Json.t) ->
    ('v -> string) ->
    ('c -> 'r -> 'v) ->
    ('c, 'r) t
end

(** Command-line knobs. A knob is one flag that updates one field of a
    config; its default is read from the field of the default config, so a
    subcommand at its defaults runs its default config. *)
module Knob : sig
  type 'c t = ('c -> 'c) Cmdliner.Term.t

  (** [config d knobs]: [d] with every knob's update applied. *)
  val config : 'c -> 'c t list -> 'c Cmdliner.Term.t
end

(** A claim's declared verdict: its target holds, or it is a known
    deviation that misses the target, for the reason given. *)
type expect = Holds | Miss of string

(** A claim about a spec's cells: the paper's words and target (or an
    extension's), its declared verdict, and its check, which gives the
    measured value as text and whether the target holds. *)
type 'cells claim = {
  statement : string;
  expect : expect;
  check : 'cells -> string * bool;
}

type ('c, 'r) t = {
  section : string;  (** export section and registry name *)
  title : string;  (** the text report's section title *)
  claim : string;  (** what the report shows, as its section states it *)
  grid : 'c list;  (** one cell per config, in output order *)
  run : knobs -> 'c -> 'r;
  shape : ('c, 'r) shape;
  claims : ('c * 'r) list claim list;
      (** each stated once, beside the columns that export its numbers *)
  cli : ('c, 'r) cli option;  (** the subcommand, if the spec has one *)
}

(** A subcommand: its name and doc, the grid config it runs at its
    defaults, and its flags. *)
and ('c, 'r) cli = {
  command : string;
  doc : string;
  default : 'c;  (** a member of the spec's [grid] *)
  knobs : 'c -> 'c Knob.t list;  (** the flags over a default *)
  sweep : knobs Knob.t list;  (** the flags over the paper's sweep knobs *)
  alt : (bool Cmdliner.Term.t * ('c, 'r) t Lazy.t) option;
      (** a flag that runs a sibling spec's cell instead ([faults --shared]
          runs FIG7b's) *)
  observed : (knobs -> 'c -> 'r) Cmdliner.Term.t option;
      (** the subcommand's own run of the spec's cell, with an observer the
          report does not show ([trace]'s event ring, [storm]'s checker) *)
  finish : ('r -> string option) Cmdliner.Term.t;
      (** after the output: writes what its flags ask for ([trace -o]) and
          reports a failed run, which exits 1 *)
}

(** What a spec's cells make together. *)
and (_, _) shape =
  | Rows : { columns : ('c, 'r) Col.t list } -> ('c, 'r) shape
      (** One row per cell: the JSON section is the list of rows, the text a
          table of the headed columns. *)
  | Series : {
      fields : (string * Json.t) list;  (** the JSON's fields before "series" *)
      points : (int, 'p) Col.t list;
      axis : string;  (** the .dat file's x-axis label *)
    }
      -> (Lock.algo, (int * 'p) list) shape
      (** One series per cell, each a list of [(x, point)]: the JSON is
          [{fields.., series: [{algo, points: [..]}]}], a point's object its
          keyed columns. Exactly two point columns are headed: the first is
          x (its head labels the text table's x row, its key heads the .dat
          file's x column), the second the value the text table (at the
          column's format) and the .dat file (at two decimals) plot. *)
  | Record : {
      columns : ('c, 'r) Col.t list;
      head : string list;
      lines : 'c -> 'r -> string list;
    }
      -> ('c, 'r) shape
      (** The text is [head], then each cell's [lines], which read its
          config and result as a column does; the JSON is the first cell's
          object of keyed columns (an exported record has one cell). *)

(** One cell's JSON as the export holds it: a row, a series or a
    record. *)
val cell_json : ('c, 'r) t -> 'c * 'r -> Json.t

(** The export section of the spec's cells, in grid order. *)
val json : ('c, 'r) t -> ('c * 'r) list -> Json.t

(** [section ppf title claim]: a rule, the title, ["paper: "] and the
    claim, and a rule, each on its own line. *)
val section : Format.formatter -> string -> string -> unit

(** The text report: the section, then the table, the series or the
    record's lines. *)
val print : ('c, 'r) t -> Format.formatter -> ('c * 'r) list -> unit

(** For a series, [Some emit]: [emit dir cells] writes [dir/<section>.dat]. *)
val dat : ('c, 'r) t -> (string -> ('c * 'r) list -> Dat.plot) option

(** [unexpected s cells]: one line for each of [s]'s claims whose verdict
    on [cells] is not the declared one (a target that misses, or a declared
    miss that holds), with its statement and measured value. *)
val unexpected : ('c, 'r) t -> ('c * 'r) list -> string list

(** Each spec is built when called, so a program that links this module
    but reads no spec (one that only exports) pays nothing for it. *)

val hash_scaling : unit -> (Hash_scaling.config, Hash_scaling.result) t

(** OBS: the contention profile of a dosed fault storm, and the storm. *)
val obs : unit -> (Fault_storm.config, Obs.t * Fault_storm.result) t

type any = Spec : ('c, 'r) t -> any

(** The paper's ten, in export order. *)
val paper : unit -> any list

(** The seventeen studies, in [bench]'s order. None is exported. *)
val studies : unit -> any list

(** The seven extension experiments, in export order. *)
val extensions : unit -> any list
