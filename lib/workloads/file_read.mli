(** File-server read stress (experiment FS, Section 5.1): sequential reads
    of private files vs one hot shared file through the clustered file
    server, with and without read-ahead. *)

type sharing = Private_files | Shared_file

type config = {
  p : int;
  blocks_per_file : int;
  passes : int;
  cluster_size : int;
  read_ahead : int;
  sharing : sharing;
  seed : int;
}

val default_config : config

type result = {
  summary : Measure.summary;
  hit_rate : float;
  fetch_rpcs : int;
}

val run : ?cfg:Hector.Config.t -> ?config:config -> unit -> result
