(* TSV files of the figure series, for plotting.

   `bench/main.exe --dat DIR` writes one file per plotted figure of the
   registry plus a gnuplot script that renders them; columns are
   tab-separated with a commented header, so any plotting tool can read
   them. *)

let write_file dir name lines =
  let path = Filename.concat dir name in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
  path

type plot = { path : string; xlabel : string; columns : int }

let write dir ~name ~xlabel = function
  | [] -> invalid_arg "Dat.write: no header"
  | header :: _ as lines ->
    let columns = List.length (String.split_on_char '\t' header) in
    { path = write_file dir (name ^ ".dat") lines; xlabel; columns }

(* One [plot] per .dat file, each over exactly the columns that file has. *)
let gnuplot_script dir plots =
  let figure { path; xlabel; columns } =
    let data = Filename.basename path in
    let fig = Filename.remove_extension data in
    [
      "";
      Printf.sprintf "set xlabel '%s'" xlabel;
      Printf.sprintf "set output '%s.svg'" fig;
      Printf.sprintf "set title '%s'" fig;
      Printf.sprintf
        "plot for [i=2:%d] '%s' using 1:i title columnheader(i)" columns data;
    ]
  in
  write_file dir "plots.gp"
    ([
       "# gnuplot script regenerating the paper's figures from the .dat files";
       "# usage: gnuplot plots.gp   (produces .svg next to the data)";
       "set datafile commentschars '#'";
       "set key top left";
       "set grid";
       "set style data linespoints";
       "set terminal svg size 720,480";
       "set ylabel 'response time (us)'";
     ]
    @ List.concat_map figure plots)
