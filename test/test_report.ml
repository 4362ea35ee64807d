(* Smoke tests for the report printers and the TSV emitters: every printer
   renders its experiment's output without raising, and the .dat files are
   well-formed. Run on reduced-size experiments. *)

open Hurricane
open Locks
open Workloads

let buf_print f =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let nonempty name s =
  Alcotest.(check bool) (name ^ " produced output") true (String.length s > 40)

let test_fig4_printer () =
  nonempty "fig4" (buf_print (fun ppf -> Report.fig4 ppf (Experiments.fig4 ())))

let test_uncontended_printer () =
  nonempty "uncontended"
    (buf_print (fun ppf -> Report.uncontended ppf (Uncontended.run_all ())))

let test_fig5_printer () =
  let series = Experiments.fig5 ~procs:[ 1; 2 ] ~window_us:1000.0 () in
  nonempty "fig5"
    (buf_print (fun ppf -> Report.fig5 ppf ~name:"FIG5a" ~hold_us:0.0 series))

let test_fig7_printer () =
  let series = Experiments.fig7a ~procs:[ 1; 2 ] ~iters:10 () in
  nonempty "fig7"
    (buf_print (fun ppf ->
         Report.fig7 ppf ~name:"FIG7a" ~xlabel:"p" ~claim:"c" series))

let test_constants_printer () =
  nonempty "constants"
    (buf_print (fun ppf -> Report.constants ppf (Calibration.run ())))

let test_section_format () =
  let s = buf_print (fun ppf -> Report.section ppf "TITLE" "CLAIM") in
  Alcotest.(check bool) "has title" true
    (Astring.String.is_infix ~affix:"TITLE" s
    || String.length s > 0 && String.sub s 0 1 = "-")

let test_dat_files () =
  let dir = Filename.temp_file "hurricane" "" in
  Sys.remove dir;
  let series = Experiments.fig5 ~procs:[ 1; 2 ] ~window_us:1000.0 () in
  Sys.mkdir dir 0o755;
  let path = Dat.fig5 dir ~name:"t5" series in
  let ic = open_in path in
  let header = input_line ic in
  let row1 = input_line ic in
  let row2 = input_line ic in
  close_in ic;
  Alcotest.(check bool) "header is a comment" true (header.[0] = '#');
  let cols s = List.length (String.split_on_char '\t' s) in
  Alcotest.(check int) "columns = 1 + algorithms" (1 + 5) (cols row1);
  Alcotest.(check int) "rows consistent" (cols row1) (cols row2);
  Alcotest.(check bool) "x values" true
    (String.sub row1 0 1 = "1" && String.sub row2 0 1 = "2")

let test_dat_fig7 () =
  let dir = Filename.temp_file "hurricane" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let series = Experiments.fig7a ~procs:[ 1; 4 ] ~iters:10 () in
  let path = Dat.fig7 dir ~name:"t7" series in
  let ic = open_in path in
  let header = input_line ic in
  close_in ic;
  Alcotest.(check bool) "mentions the algorithms" true
    (Astring.String.is_infix ~affix:"H1-MCS" header
    && Astring.String.is_infix ~affix:"Spin" header)

let test_gnuplot_script () =
  let dir = Filename.temp_file "hurricane" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Dat.gnuplot_script dir [] in
  Alcotest.(check bool) "written" true (Sys.file_exists path)

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

(* -- the experiment registry --------------------------------------------- *)

let registry_names = List.map Registry.name (Lazy.force Registry.all)

let test_registry_names_unique () =
  Alcotest.(check int) "34 experiments" 34 (List.length registry_names);
  Alcotest.(check int) "no name twice" (List.length registry_names)
    (List.length (List.sort_uniq compare registry_names))

(* The committed export's sections, in file order. The file sits at the
   project root: one level up from the test's build directory. *)
let committed_experiments () =
  let path =
    List.find Sys.file_exists [ "../BENCH_results.json"; "BENCH_results.json" ]
  in
  match
    Json.get
      (Json.of_string (String.concat "\n" (read_lines path)))
      "experiments"
  with
  | Json.Obj fields -> fields
  | _ -> Alcotest.fail "experiments is not an object"

let committed_keys () = List.map fst (committed_experiments ())

let test_default_names_are_exported_entries () =
  let exported =
    List.filter_map
      (fun e -> if Registry.exported e then Some (Registry.name e) else None)
      (Lazy.force Registry.all)
  in
  Alcotest.(check (list string)) "exported entries in registry order" exported
    (Bench_json.default_names ());
  Alcotest.(check (list string)) "the committed BENCH_results.json keys"
    (committed_keys ()) (Bench_json.default_names ());
  Alcotest.(check int) "17 exported" 17
    (List.length (Bench_json.default_names ()))

(* [hurricane_sim]'s workload subcommands run their workload once at its
   spec's default (the lock-argument ones on H2-MCS, the CLI's default lock)
   and print the run's row: each default must be one of the spec's grid
   configs, and its row a row of the committed export, or a default has
   drifted from the experiment's sweep. *)
let check_exported section row =
  match List.assoc section (committed_experiments ()) with
  | Json.List rows when List.mem row rows -> ()
  | _ ->
    Alcotest.failf "%s: the row is not exported: %s" section
      (Json.to_string ~compact:true row)

let test_defaults_are_export_rows () =
  List.iter
    (fun (Spec.Spec s) ->
      Alcotest.(check bool) (s.section ^ " default is a grid config") true
        (List.mem s.default s.grid);
      check_exported s.section (Spec.row s (s.default, s.run s.default)))
    (Lazy.force Spec.all)

(* [hash -g hybrid -p 8]: the hybrid table has no seqlock read path, so the
   run reports [optimistic = false] whatever the config asks, and its row is
   the export's hybrid p=8 row at read ratio 0.9. *)
let test_hybrid_hash_row_is_exported () =
  let s = Spec.hash_scaling () in
  let c =
    { s.default with granularity = Hkernel.Khash.Hybrid; p = 8; read_ratio = 0.9 }
  in
  check_exported s.section (Spec.row s (c, s.run c))

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
  let knobs =
    {
      Registry.procs = Some [ 1; 2 ];
      sizes = Some [ 4 ];
      iters = Some 5;
      rounds = Some 2;
    }
  in
  let written = List.map Filename.basename (Registry.write_dat ~knobs dir) in
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
    Alcotest.test_case "CLI defaults are rows of the committed export" `Quick
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
