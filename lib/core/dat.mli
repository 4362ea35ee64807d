(** TSV files of the figure series plus a gnuplot script —
    [bench/main.exe --dat DIR] (driven by {!Registry.write_dat}). *)

(** A written .dat file, its x-axis label, and its column count: the x
    column plus one per series. *)
type plot = { path : string; xlabel : string; columns : int }

(** [write dir ~name ~xlabel lines] writes [lines], a tab-separated header
    first, to [dir/name.dat]. *)
val write : string -> name:string -> xlabel:string -> string list -> plot

(** [gnuplot_script dir plots] writes [dir/plots.gp], one [plot] command per
    file, each over exactly that file's columns; returns its path. *)
val gnuplot_script : string -> plot list -> string
