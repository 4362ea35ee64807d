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

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | "--json" :: rest ->
    (* Machine-readable export; non-flag arguments restrict to a subset of
       experiments (CI runs a fast one). [--jobs N] runs the independent
       experiment cells on N domains — the file is byte-identical to a
       sequential run — and [--out PATH] redirects the output. See
       Bench_json for the schema. *)
    let rec parse names jobs path = function
      | [] -> (List.rev names, jobs, path)
      | "--jobs" :: n :: tl -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> parse names j path tl
        | _ ->
          Format.eprintf "--jobs expects a positive integer, got %S@." n;
          exit 2)
      | [ "--jobs" ] ->
        Format.eprintf "--jobs expects a positive integer@.";
        exit 2
      | "--out" :: p :: tl -> parse names jobs p tl
      | [ "--out" ] ->
        Format.eprintf "--out expects a path@.";
        exit 2
      | name :: tl -> parse (name :: names) jobs path tl
    in
    let names, jobs, path = parse [] 1 "BENCH_results.json" rest in
    (try Bench_json.write ~path (Bench_json.document ~jobs ~names ())
     with Invalid_argument msg ->
       Format.eprintf "%s@." msg;
       exit 2);
    Format.printf "wrote %s@." path
  | [ "--dat"; dir ] ->
    List.iter (Format.printf "wrote %s@.") (Registry.write_dat dir)
  | [] ->
    Format.printf
      "HURRICANE locking reproduction - all experiments (simulated HECTOR \
       time)@.";
    print (Lazy.force Registry.all)
  | names -> (
    match List.map Registry.find names with
    | entries -> print entries
    | exception Invalid_argument msg ->
      Format.eprintf "%s@." msg;
      exit 2)
