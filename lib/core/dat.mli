(** TSV emitters for the figure series plus a gnuplot script —
    [bench/main.exe --dat DIR] (driven by {!Registry.write_dat}). Each
    emitter returns the written path. *)

val fig5 : string -> name:string -> Experiments.fig5_series list -> string
val fig7 : string -> name:string -> Experiments.fig7_series list -> string

(** A written .dat file, its x-axis label, and its column count: the x
    column plus one per series. *)
type plot = { path : string; xlabel : string; columns : int }

(** [plot ~xlabel path series] describes the file [path] holding [series]. *)
val plot : xlabel:string -> string -> 'a list -> plot

(** [gnuplot_script dir plots] writes [dir/plots.gp], one [plot] command per
    file, each over exactly that file's columns. *)
val gnuplot_script : string -> plot list -> string
