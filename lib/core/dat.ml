(* TSV emitters for the figure series, for plotting.

   `bench/main.exe --dat DIR` writes one file per plotted figure of the
   registry plus a gnuplot script that renders them; columns are
   tab-separated with a commented header, so any plotting tool can read
   them. *)

open Locks
open Workloads

let write_file dir name lines =
  let path = Filename.concat dir name in
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  path

(* Figure 5 series: p vs mean latency per algorithm. *)
let fig5 dir ~name (series : Experiments.fig5_series list) =
  let header =
    "# p\t"
    ^ String.concat "\t"
        (List.map
           (fun (s : Experiments.fig5_series) ->
             Lock.algo_name s.Experiments.algo)
           series)
  in
  let xs =
    match series with
    | s :: _ -> List.map fst s.Experiments.points
    | [] -> []
  in
  let row p =
    string_of_int p
    ^ "\t"
    ^ String.concat "\t"
        (List.map
           (fun (s : Experiments.fig5_series) ->
             let r =
               (* Each series swept the same processor counts; a missing
                  point means a runner bug, and a bare [Not_found] from
                  deep inside the emitter names neither the figure nor
                  the hole. *)
               try List.assoc p s.Experiments.points
               with Not_found ->
                 failwith
                   (Printf.sprintf
                      "Dat.fig5 (%s): series %s has no point at p=%d" name
                      (Lock.algo_name s.Experiments.algo) p)
             in
             Printf.sprintf "%.2f" r.Lock_stress.summary.Measure.mean_us)
           series)
  in
  write_file dir (name ^ ".dat") (header :: List.map row xs)

(* Figure 7 series: x vs mean latency per lock algorithm. *)
let fig7 dir ~name (series : Experiments.fig7_series list) =
  let header =
    "# x\t"
    ^ String.concat "\t"
        (List.map (fun s -> Lock.algo_name s.Experiments.lock_algo) series)
  in
  let xs =
    match series with
    | s :: _ -> List.map (fun p -> p.Experiments.x) s.Experiments.series
    | [] -> []
  in
  let row x =
    string_of_int x
    ^ "\t"
    ^ String.concat "\t"
        (List.map
           (fun s ->
             let p =
               try
                 List.find (fun p -> p.Experiments.x = x) s.Experiments.series
               with Not_found ->
                 failwith
                   (Printf.sprintf
                      "Dat.fig7 (%s): series %s has no point at x=%d" name
                      (Lock.algo_name s.Experiments.lock_algo) x)
             in
             Printf.sprintf "%.2f" p.Experiments.mean_us)
           series)
  in
  write_file dir (name ^ ".dat") (header :: List.map row xs)

type plot = { path : string; xlabel : string; columns : int }

let plot ~xlabel path series =
  { path; xlabel; columns = 1 + List.length series }

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
