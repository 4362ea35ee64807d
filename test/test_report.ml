(* Shape tests for the text reports and the .dat files, run on reduced-size
   experiments (test/golden pins their bytes), and the registry's names,
   exports and CLI defaults. *)

open Hurricane
open Locks
open Workloads

let buf_print f =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* The sweep knobs [test_registry_dat] and the golden outputs use. *)
let reduced =
  { Registry.procs = Some [ 1; 2 ]; sizes = Some [ 4 ]; iters = Some 5;
    rounds = Some 2 }

(* An entry's text report at reduced knobs, below its four-line section
   header, one list of blank-separated words per line. *)
let report name =
  let text =
    buf_print (fun ppf ->
        List.iter (Registry.print ppf)
          (Registry.run ~knobs:reduced [ Registry.find name ]))
  in
  String.split_on_char '\n' text
  |> List.filteri (fun i l -> i >= 4 && l <> "")
  |> List.map (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))

(* FIG4: a head and one row per algorithm, whose counts match the paper. *)
let test_fig4_printer () =
  match report "fig4" with
  | head :: rows ->
    Alcotest.(check int) "columns" 7 (List.length head);
    Alcotest.(check int) "one row per algorithm"
      (List.length Instr_model.all) (List.length rows);
    List.iter
      (fun row ->
        Alcotest.(check string) (List.hd row ^ " matches the paper") "true"
          (List.nth row 5))
      rows
  | [] -> Alcotest.fail "fig4 printed nothing"

let test_uncontended_printer () =
  match report "uncontended" with
  | head :: rows ->
    Alcotest.(check (list string)) "head"
      [ "algo"; "measured(us)"; "model(us)" ] head;
    Alcotest.(check int) "one row per algorithm"
      (List.length Uncontended.algos) (List.length rows)
  | [] -> Alcotest.fail "uncontended printed nothing"

(* A series table: the x row, then one row per algorithm with one value per
   x. *)
let check_series name x algos =
  match report name with
  | head :: rows ->
    Alcotest.(check (list string)) (name ^ " x row") (x :: [ "1"; "2" ]) head;
    Alcotest.(check (list string)) (name ^ " one row per algorithm")
      (List.map Lock.algo_name algos) (List.map List.hd rows);
    List.iter
      (fun row ->
        Alcotest.(check int) (List.hd row ^ " values") 3 (List.length row))
      rows
  | [] -> Alcotest.failf "%s printed nothing" name

let test_fig5_printer () = check_series "fig5a" "p" Lock.all_paper_algos
let test_fig7_printer () = check_series "fig7a" "p" Experiments.fig7_algos

let test_constants_printer () =
  Alcotest.(check int) "four anchors" 4
    (List.length
       (List.filter (fun l -> List.mem "us" l) (report "constants")))

let test_section_format () =
  let rule = String.make 78 '-' in
  Alcotest.(check string) "rule, title, claim, rule"
    (String.concat "\n" [ rule; "TITLE"; "paper: CLAIM"; rule; "" ])
    (buf_print (fun ppf -> Spec.section ppf "TITLE" "CLAIM"))

(* [name]'s .dat file, written at reduced knobs through its spec. *)
let dat_lines name =
  let dir = Filename.temp_dir "hurricane" "" in
  match
    List.find (fun (Spec.Spec s) -> s.section = name) (Spec.paper ())
  with
  | Spec.Spec s ->
    let emit = Option.get (Spec.dat s) in
    let plot = emit dir (List.map (fun c -> (c, s.run reduced c)) s.grid) in
    let lines = read_lines plot.Dat.path in
    Sys.remove plot.path;
    Sys.rmdir dir;
    (plot, lines)

let test_dat_files () =
  let plot, lines = dat_lines "fig5a" in
  let cols s = String.split_on_char '\t' s in
  match lines with
  | [ header; row1; row2 ] ->
    Alcotest.(check bool) "header is a comment" true (header.[0] = '#');
    Alcotest.(check int) "columns = 1 + algorithms" (1 + 5)
      (List.length (cols row1));
    Alcotest.(check int) "rows consistent" (List.length (cols row1))
      (List.length (cols row2));
    Alcotest.(check int) "the plot's column count" plot.columns
      (List.length (cols header));
    Alcotest.(check (list string)) "x values" [ "1"; "2" ]
      (List.map (fun r -> List.hd (cols r)) [ row1; row2 ])
  | _ -> Alcotest.failf "fig5a.dat has %d lines" (List.length lines)

let test_dat_fig7 () =
  let plot, lines = dat_lines "fig7c" in
  Alcotest.(check string) "header names x and the algorithms"
    "# x\tH1-MCS\tH2-MCS\tSpin(35us)" (List.hd lines);
  Alcotest.(check string) "x-axis label" "cluster size" plot.xlabel

let test_gnuplot_script () =
  let dir = Filename.temp_file "hurricane" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Dat.gnuplot_script dir [] in
  Alcotest.(check bool) "written" true (Sys.file_exists path)

(* -- the experiment registry --------------------------------------------- *)

let registry_names = List.map Registry.name (Lazy.force Registry.all)

let test_registry_names_unique () =
  Alcotest.(check int) "34 experiments" 34 (List.length registry_names);
  Alcotest.(check int) "no name twice" (List.length registry_names)
    (List.length (List.sort_uniq compare registry_names))

(* The committed export's sections, in file order. *)
let committed_experiments () =
  match Json.get (Json.of_string (Test_claims.committed ())) "experiments" with
  | Json.Obj fields -> fields
  | _ -> Alcotest.fail "experiments is not an object"

let committed_keys () = List.map fst (committed_experiments ())

(* The registry is the paper's specs, the studies, then the extensions;
   the export holds the paper's and the extensions'. *)
let test_default_names_are_exported_entries () =
  let names specs = List.map Registry.name specs in
  Alcotest.(check (list string)) "paper, studies, extensions"
    (names (Spec.paper () @ Spec.studies () @ Spec.extensions ()))
    registry_names;
  Alcotest.(check (list string)) "the paper's and the extensions' entries"
    (names (Spec.paper () @ Spec.extensions ()))
    (Bench_json.default_names ());
  Alcotest.(check (list string)) "the committed BENCH_results.json keys"
    (committed_keys ()) (Bench_json.default_names ());
  Alcotest.(check int) "17 exported" 17
    (List.length (Bench_json.default_names ()))

(* A rows section's rows, a series section's series: what one cell of an
   exported spec prints. *)
let cells_of = function
  | Json.List cells -> cells
  | doc -> (
    match Json.member doc "series" with Some (Json.List s) -> s | _ -> [])

let check_exported section cell =
  let committed = cells_of (List.assoc section (committed_experiments ())) in
  if not (List.mem cell committed) then
    Alcotest.failf "%s: the cell is not exported: %s" section
      (Json.to_string ~compact:true cell)

(* Each [hurricane_sim] workload subcommand runs, at its defaults, one cell
   of its spec's grid (given its [alt] flag, of the sibling spec's) and
   prints it: the default must be a grid config, or it has drifted from the
   experiment. An exported spec's cell, in the claims suite's run, must be
   a row or series of the committed export; a study's text, from a fresh
   run of the default (through the command's [observed] run, at its
   default flags, if it has one), must be its cell's text in the claims
   suite's report. *)
let test_defaults_are_export_rows () =
  let exported = Bench_json.default_names () in
  let check ?observed (s : (_, _) Spec.t) default =
    match List.find_index (( = ) default) s.grid with
    | None -> Alcotest.failf "%s: the default is not a grid config" s.section
    | Some i when List.mem s.section exported ->
      check_exported s.section
        (List.nth (cells_of (Test_claims.exported s.section)) i)
    | Some _ ->
      let text cells = buf_print (fun ppf -> Spec.print s ppf cells) in
      let head = text [] in
      let run =
        match observed with
        | None -> s.run
        | Some term -> (
          let open Cmdliner in
          let cmd = Cmd.v (Cmd.info "cli") term in
          match Cmd.eval_value ~argv:[| "cli" |] cmd with
          | Ok (`Ok run) -> run
          | _ -> Alcotest.failf "%s: the observed run's flags" s.section)
      in
      let cli = text [ (default, run Spec.full default) ] in
      let n = String.length head in
      Alcotest.(check bool)
        (s.section ^ ": the default prints its cell's text")
        true
        (String.starts_with ~prefix:head cli
        && Astring.String.is_infix
             ~affix:(String.sub cli n (String.length cli - n))
             (Test_claims.text s.section))
  in
  List.iter
    (fun (Spec.Spec s) ->
      Option.iter
        (fun (cli : _ Spec.cli) ->
          check ?observed:cli.observed s cli.default;
          Option.iter (fun (_, alt) -> check (Lazy.force alt) cli.default)
            cli.alt)
        s.cli)
    (Lazy.force Registry.all)

(* [hash -g hybrid -p 8]: the hybrid table has no seqlock read path, so the
   run reports [optimistic = false] whatever the config asks, and its row is
   the export's hybrid p=8 row at read ratio 0.9. *)
let test_hybrid_hash_row_is_exported () =
  let s = Spec.hash_scaling () in
  let c =
    { (Option.get s.cli).default with granularity = Hkernel.Khash.Hybrid;
      p = 8; read_ratio = 0.9 }
  in
  check_exported s.section (Spec.cell_json s (c, s.run Spec.full c))

let test_every_name_resolves () =
  List.iter
    (fun n ->
      Alcotest.(check string) (n ^ " resolves") n
        (Registry.name (Registry.find n)))
    registry_names;
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " listed") true (List.mem n registry_names))
    [ "ablation-cas"; "fs"; "fault-matrix"; "numa_locks"; "abort_storm" ];
  List.iter
    (fun alias ->
      Alcotest.(check bool) (alias ^ " is gone") false
        (List.mem alias registry_names))
    [ "numa"; "hash"; "abort-storm"; "crash-storm"; "rw" ]

let test_unknown_name_lists_available () =
  match Registry.find "fig9000" with
  | _ -> Alcotest.fail "fig9000 resolved"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the unknown experiment" true
      (Astring.String.is_infix ~affix:"fig9000" msg);
    List.iter
      (fun n ->
        Alcotest.(check bool) (n ^ " listed") true
          (Astring.String.is_infix ~affix:n msg))
      registry_names

(* [--dat] through the registry on reduced sweeps: exactly the six figure
   files plus the script, and every [plot for [i=2:N] 'F'] line ranges over
   exactly the columns of F's header. *)
let test_registry_dat () =
  let dir = Filename.temp_file "hurricane" "" in
  Sys.remove dir;
  let written =
    List.map Filename.basename (Registry.write_dat ~knobs:reduced dir)
  in
  Alcotest.(check (list string)) "files written"
    [
      "fig5a.dat"; "fig5b.dat"; "fig7a.dat"; "fig7b.dat"; "fig7c.dat";
      "fig7d.dat"; "plots.gp";
    ]
    written;
  let plotted =
    List.filter_map
      (fun l ->
        match
          Scanf.sscanf_opt l "plot for [i=2:%d] '%s@'" (fun n f -> (n, f))
        with
        | Some (n, f) ->
          let header = List.hd (read_lines (Filename.concat dir f)) in
          Alcotest.(check int) (f ^ " column range")
            (List.length (String.split_on_char '\t' header))
            n;
          Some f
        | None -> None)
      (read_lines (Filename.concat dir "plots.gp"))
  in
  Alcotest.(check (list string)) "one plot per .dat file"
    (List.filter (fun f -> f <> "plots.gp") written)
    plotted

let test_measure_pp () =
  let stat = Eventsim.Stat.create "x" in
  Eventsim.Stat.add stat 160;
  let s =
    buf_print (fun ppf ->
        Measure.pp ppf (Measure.of_stat Hector.Config.hector ~label:"x" stat))
  in
  Alcotest.(check bool) "mentions the label" true
    (Astring.String.is_infix ~affix:"x" s);
  ignore Lock.Mcs_h2

let suite =
  [
    Alcotest.test_case "fig4 printer" `Quick test_fig4_printer;
    Alcotest.test_case "uncontended printer" `Quick test_uncontended_printer;
    Alcotest.test_case "fig5 printer" `Quick test_fig5_printer;
    Alcotest.test_case "fig7 printer" `Quick test_fig7_printer;
    Alcotest.test_case "constants printer" `Quick test_constants_printer;
    Alcotest.test_case "section format" `Quick test_section_format;
    Alcotest.test_case "fig5 .dat files" `Quick test_dat_files;
    Alcotest.test_case "fig7 .dat files" `Quick test_dat_fig7;
    Alcotest.test_case "gnuplot script" `Quick test_gnuplot_script;
    Alcotest.test_case "registry names unique" `Quick
      test_registry_names_unique;
    Alcotest.test_case "default_names are the exported entries" `Quick
      test_default_names_are_exported_entries;
    Alcotest.test_case "CLI defaults are rows of the committed export" `Slow
      test_defaults_are_export_rows;
    Alcotest.test_case "hash -g hybrid -p 8 is a row of the committed export"
      `Quick test_hybrid_hash_row_is_exported;
    Alcotest.test_case "every registry name resolves" `Quick
      test_every_name_resolves;
    Alcotest.test_case "unknown name lists the available names" `Quick
      test_unknown_name_lists_available;
    Alcotest.test_case "registry --dat writes the six figures" `Quick
      test_registry_dat;
    Alcotest.test_case "Measure.pp" `Quick test_measure_pp;
  ]
