(* Prints, through the registry, what no other test pins byte for byte: the
   ten paper entries' text tables, then the six .dat files and plots.gp, all
   on reduced knobs, then the text of the studies that run in a fraction of
   a second (no knob reaches them). The output is diffed against
   outputs.expected. *)

open Hurricane

let knobs =
  {
    Registry.procs = Some [ 1; 2 ];
    sizes = Some [ 4 ];
    iters = Some 5;
    rounds = Some 2;
  }

let paper =
  [
    "fig4"; "uncontended"; "fig5a"; "fig5b"; "starvation"; "fig7a"; "fig7b";
    "fig7c"; "fig7d"; "constants";
  ]

(* Left out for their run time: ablation-clh and ablation-lock-family. *)
let studies =
  [
    "retries"; "ablation-granularity"; "ablation-combining"; "ablation-cas";
    "ablation-cached-locks"; "ablation-spin-then-block"; "ablation-lockfree";
    "ablation-layout"; "trylock"; "classes"; "cow"; "fs"; "fault-matrix"; "verify"; "obs";
  ]

let print ?knobs names =
  List.iter
    (Registry.print Format.std_formatter)
    (Registry.run ?knobs (List.map Registry.find names))

let () =
  print ~knobs paper;
  let dir = Filename.temp_dir "hurricane-golden" "" in
  List.iter
    (fun path ->
      Format.printf "== %s@." (Filename.basename path);
      In_channel.with_open_text path In_channel.input_all |> print_string;
      Sys.remove path)
    (Registry.write_dat ~knobs dir);
  Sys.rmdir dir;
  print studies
