(* hurricane_sim — command-line driver for the HURRICANE locking simulator.

   Every workload subcommand runs one cell of an experiment's spec, with
   its config set by flags, so a user can explore configurations beyond
   the paper's figures. The `figure` subcommand looks its name up in
   [Registry] and regenerates that table/figure exactly as the benchmark
   harness does (`figure constants` gives the absolute cost anchors). *)

open Cmdliner
open Hurricane

let ppf = Format.std_formatter

(* Every subcommand is built here. Its run is a thunk, and a configuration
   the workload's validator refuses (an [Invalid_argument]) or a file the
   system refuses (a [Sys_error]) is a usage error: the message, exit
   124. *)
let cmd name ~doc term =
  let checked run =
    match run () with
    | () -> Ok ()
    | exception (Invalid_argument msg | Sys_error msg) -> Error (`Msg msg)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(term_result ~usage:true (const checked $ term))

(* Each spec with a command line is a subcommand. It runs one cell: the
   config its flags build over the spec's default (the figures' sweep
   flags over the full setting), of the spec (by the command's [observed]
   run, if it has one) or of the sibling its [alt] flag picks. It prints the
   cell through the spec: an exported spec's as one line of compact JSON,
   its row or series in BENCH_results.json; a study's as its text report.
   A run its [finish] reports failed exits 1. *)
let spec_cmd ~json (Spec.Spec s) =
  let make (cli : _ Spec.cli) =
    let run ((s : _ Spec.t), run) knobs c finish () =
      let r = run knobs c in
      if json then
        print_endline (Json.to_string ~compact:true (Spec.cell_json s (c, r)))
      else Spec.print s ppf [ (c, r) ];
      Option.iter
        (fun failure ->
          Format.eprintf "%s: %s@." cli.command failure;
          exit 1)
        (finish r)
    in
    let own =
      match cli.observed with
      | None -> Term.const (s, s.run)
      | Some run -> Term.(const (fun run -> (s, run)) $ run)
    in
    let spec =
      match cli.alt with
      | None -> own
      | Some (flag, alt) ->
        let pick on own =
          if on then
            let a = Lazy.force alt in
            (a, a.run)
          else own
        in
        Term.(const pick $ flag $ own)
    in
    cmd cli.command
      ~doc:
        (cli.doc
        ^
        if json then
          " Prints the run's cell as one line of JSON, as BENCH_results.json \
           holds it."
        else " Prints the cell's report, as bench prints it.")
      Term.(
        const run $ spec
        $ Spec.Knob.config Spec.full cli.sweep
        $ Spec.Knob.config cli.default (cli.knobs cli.default)
        $ cli.finish)
  in
  Option.map make s.cli

(* -- figure subcommand -------------------------------------------------------- *)

let figure_cmd =
  let run name () =
    List.iter (Registry.print ppf) (Registry.run [ Registry.find name ])
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FIGURE"
          ~doc:
            ("Experiment name: "
            ^ String.concat ", "
                (List.map Registry.name (Lazy.force Registry.all))
            ^ "."))
  in
  cmd "figure"
    ~doc:
      "Regenerate one of the paper's tables/figures or one experiment, \
       exactly as the benchmark harness prints it."
    Term.(const run $ name_arg)

let main_cmd =
  let doc = "Simulator for the HURRICANE locking architecture on HECTOR." in
  let exported = Bench_json.default_names () in
  Cmd.group
    (Cmd.info "hurricane_sim" ~version:"1.0.0" ~doc)
    (List.filter_map
       (fun e -> spec_cmd ~json:(List.mem (Registry.name e) exported) e)
       (Lazy.force Registry.all)
    @ [ figure_cmd ])

let () = exit (Cmd.eval main_cmd)
