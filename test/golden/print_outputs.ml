(* Prints, through the registry, what no other test pins byte for byte: the
   ten paper entries' text tables, then the six .dat files and plots.gp, all
   on reduced knobs, then the text of every study but the two slow ones (no
   knob reaches them), so a new study is pinned by default. The output is
   diffed against outputs.expected. *)

open Hurricane

let knobs =
  {
    Registry.procs = Some [ 1; 2 ];
    sizes = Some [ 4 ];
    iters = Some 5;
    rounds = Some 2;
  }

(* Left out for their run time. *)
let slow = [ "ablation-clh"; "ablation-lock-family" ]

let studies =
  List.filter (fun e -> not (List.mem (Registry.name e) slow)) (Spec.studies ())

let print ?knobs entries =
  List.iter (Registry.print Format.std_formatter) (Registry.run ?knobs entries)

let () =
  print ~knobs (Spec.paper ());
  let dir = Filename.temp_dir "hurricane-golden" "" in
  List.iter
    (fun path ->
      Format.printf "== %s@." (Filename.basename path);
      In_channel.with_open_text path In_channel.input_all |> print_string;
      Sys.remove path)
    (Registry.write_dat ~knobs dir);
  Sys.rmdir dir;
  print studies
