(* The experiment registry (interface in registry.mli): every spec, in the
   order [bench] prints them. Every consumer — the bench text run, the JSON
   export, the .dat plots and [hurricane_sim figure] — goes through {!run},
   so each output comes from the same cells. *)

type knobs = Spec.knobs = {
  procs : int list option;
  sizes : int list option;
  iters : int option;
  rounds : int option;
}

let full = Spec.full

type t = Spec.any

let name (Spec.Spec s) = s.section
let all = lazy (Spec.paper () @ Spec.studies () @ Spec.extensions ())

let find n =
  let all = Lazy.force all in
  match List.find_opt (fun e -> name e = n) all with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "unknown experiment %S; available: %s" n
         (String.concat ", " (List.map name all)))

(* -- running --------------------------------------------------------------- *)

type outcome = Outcome : ('c, 'r) Spec.t * ('c * 'r) list -> outcome

(* Every cell of every entry goes through one {!Par.map}. A cell returns a
   commit that files its result with its entry; the commits run on the
   calling domain in input order, so each entry's cells are in grid order
   whatever the pool did. *)
let run ?(jobs = 1) ?(knobs = full) entries =
  let staged =
    List.map
      (fun (Spec.Spec s) ->
        let results = ref [] in
        let cells =
          List.map
            (fun c () ->
              let r = s.run knobs c in
              fun () -> results := (c, r) :: !results)
            s.grid
        in
        (cells, fun () -> Outcome (s, List.rev !results)))
      entries
  in
  Par.map ~jobs (fun cell -> cell ()) (List.concat_map fst staged)
  |> List.iter (fun commit -> commit ());
  List.map (fun (_, finish) -> finish ()) staged

let entry (Outcome (s, _)) = Spec.Spec s
let print ppf (Outcome (s, cells)) = Spec.print s ppf cells
let json (Outcome (s, cells)) = (s.section, Spec.json s cells)
let unexpected (Outcome (s, cells)) = Spec.unexpected s cells

let write_dat ?knobs dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then Sys.mkdir dir 0o755;
  let plotted =
    List.filter
      (fun (Spec.Spec s) -> Option.is_some (Spec.dat s))
      (Lazy.force all)
  in
  let plots =
    List.filter_map
      (fun (Outcome (s, cells)) ->
        Option.map (fun emit -> emit dir cells) (Spec.dat s))
      (run ?knobs plotted)
  in
  List.map (fun p -> p.Dat.path) plots @ [ Dat.gnuplot_script dir plots ]
