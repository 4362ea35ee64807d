(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index). The experiments, their
   names and their outputs are the entries of [Registry].

   Usage:
     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe fig5a fig7d ...  # selected experiments
     dune exec bench/main.exe -- --json [names] # write BENCH_results.json
     dune exec bench/main.exe -- --dat DIR     # .dat series + plots.gp

   All experiment output is simulated HECTOR time; the simulator's own
   host cost is measured by perfbench/. *)

open Hurricane

(* Run and print each entry as soon as its cells finish. *)
let print entries =
  List.iter
    (fun e ->
      List.iter (Registry.print Format.std_formatter) (Registry.run [ e ]))
    entries

(* A refused invocation is a one-line message and exit 2. *)
let usage fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "%s@." msg;
      exit 2)
    fmt

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | "--json" :: rest ->
    (* Machine-readable export; non-flag arguments restrict it to some of
       the exported experiments, each named once. [--jobs N] runs the
       independent experiment cells on N domains — the file is
       byte-identical to a sequential run — and [--out PATH] redirects the
       output. See Bench_json for the schema. *)
    let rec parse names jobs path = function
      | [] -> (List.rev names, jobs, path)
      | "--jobs" :: n :: tl -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> parse names j path tl
        | _ -> usage "--jobs expects a positive integer, got %S" n)
      | [ "--jobs" ] -> usage "--jobs expects a positive integer"
      | "--out" :: p :: tl -> parse names jobs p tl
      | [ "--out" ] -> usage "--out expects a path"
      | name :: tl -> parse (name :: names) jobs path tl
    in
    let names, jobs, path = parse [] 1 "BENCH_results.json" rest in
    (* Open (or create) the output before any cell runs, without truncating
       it: a path the system refuses fails now, not after the export. *)
    let existed = Sys.file_exists path in
    (try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 path)
     with Sys_error msg -> usage "%s" msg);
    (match Bench_json.document ~jobs ~names () with
    | doc -> Bench_json.write ~path doc
    | exception Invalid_argument msg ->
      if not existed then Sys.remove path;
      usage "%s" msg);
    Format.printf "wrote %s@." path
  | [ "--dat"; dir ] -> (
    match Registry.write_dat dir with
    | paths -> List.iter (Format.printf "wrote %s@.") paths
    | exception Sys_error msg -> usage "%s" msg)
  | "--dat" :: _ -> usage "--dat expects one directory"
  | [] ->
    Format.printf
      "HURRICANE locking reproduction - all experiments (simulated HECTOR \
       time)@.";
    print (Lazy.force Registry.all)
  | names -> (
    (match List.find_opt (fun a -> a = "--jobs" || a = "--out") names with
    | Some flag -> usage "%s needs --json" flag
    | None -> ());
    match List.map Registry.find names with
    | entries -> print entries
    | exception Invalid_argument msg -> usage "%s" msg)
