(* JSON benchmark export (schema in bench_json.mli): the exported entries
   of {!Registry}, run through the same cells and combine as the text
   reports, so the file and the tables can never disagree.

   Every experiment is decomposed into independent *cells* — one value of
   its outermost sweep axis (an algorithm, a style, a processor count, an
   offered rate) — each of which builds its own Engine/Machine/Rng from a
   fixed seed. [document ~jobs] runs the cells of all requested experiments
   through one {!Par.map}, and each experiment combines its cell results in
   cell order, so the parallel export is byte-identical to the sequential
   one. *)

(* The version history is in bench_json.mli. *)
let schema_version = 9

let default_names () =
  List.filter_map
    (fun e -> if Registry.exported e then Some (Registry.name e) else None)
    (Lazy.force Registry.all)

let document ?knobs ?(jobs = 1) ~names () =
  let names = if names = [] then default_names () else names in
  (* Resolve every name first so an unknown one fails before any cell has
     burned simulation time. *)
  let entries =
    List.map
      (fun n ->
        match
          List.find_opt
            (fun e -> Registry.name e = n && Registry.exported e)
            (Lazy.force Registry.all)
        with
        | Some e -> e
        | None ->
          invalid_arg
            (Printf.sprintf
               "Bench_json.document: unknown experiment %S; available: %s" n
               (String.concat ", " (default_names ()))))
      names
  in
  let experiments =
    List.map2
      (fun n o -> (n, Option.get (Registry.json o)))
      names
      (Registry.run ~jobs ?knobs entries)
  in
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("config", Json.String "hector");
      ("units", Json.Obj [ ("latency", Json.String "us") ]);
      ("experiments", Json.Obj experiments);
    ]

let write ~path doc =
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc
