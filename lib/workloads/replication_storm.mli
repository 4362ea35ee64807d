(** Combining-tree ablation (experiment ABL2): every processor read-faults
    the same cold page at once. With combining, the master serves one
    request per cluster; without, one per processor. *)

type config = { p : int; cluster_size : int; storms : int; seed : int }

val default_config : config

type result = {
  summary : Measure.summary;
  master_rpcs_per_storm : float;
  replications_per_storm : float;
}

val run :
  ?cfg:Hector.Config.t -> ?config:config -> combining:bool -> unit -> result
