(* JSON benchmark export (schema in bench_json.mli): the paper's and the
   extensions' entries of {!Registry}, run through the same cells as the
   text reports, so the file and the tables can never disagree.

   Every experiment is decomposed into independent *cells* — one value of
   its outermost sweep axis (an algorithm, a style, a processor count, an
   offered rate) — each of which builds its own Engine/Machine/Rng from a
   fixed seed. [document ~jobs] runs the cells of all requested experiments
   through one {!Par.map}, and each experiment keeps its cells in grid
   order, so the parallel export is byte-identical to the sequential one. *)

(* The version history is in bench_json.mli. *)
let schema_version = 9

(* An entry is exported because it is one of these specs; the studies are
   not. *)
let default_names () =
  List.map Registry.name (Spec.paper () @ Spec.extensions ())

let of_outcomes outcomes =
  let exported = default_names () in
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("config", Json.String "hector");
      ("units", Json.Obj [ ("latency", Json.String "us") ]);
      ( "experiments",
        Json.Obj
          (List.filter_map
             (fun o ->
               if List.mem (Registry.name (Registry.entry o)) exported then
                 Some (Registry.json o)
               else None)
             outcomes) );
    ]

let document ?knobs ?(jobs = 1) ~names () =
  let exported = default_names () in
  let names = if names = [] then exported else names in
  (* Check every name first so a bad one fails before any cell has burned
     simulation time. *)
  let refuse fmt =
    Printf.ksprintf
      (fun msg ->
        invalid_arg
          (Printf.sprintf "Bench_json.document: %s; exported: %s" msg
             (String.concat ", " exported)))
      fmt
  in
  List.iteri
    (fun i n ->
      if List.mem n (List.filteri (fun j _ -> j < i) names) then
        refuse "%S is named twice" n
      else if List.mem n exported then ()
      else if
        List.exists (fun e -> Registry.name e = n) (Lazy.force Registry.all)
      then refuse "%S is a study, not exported" n
      else refuse "unknown experiment %S" n)
    names;
  of_outcomes (Registry.run ~jobs ?knobs (List.map Registry.find names))

let write ~path doc =
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc
