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

let of_outcomes outcomes =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("config", Json.String "hector");
      ("units", Json.Obj [ ("latency", Json.String "us") ]);
      ("experiments", Json.Obj (List.filter_map Registry.json outcomes));
    ]

let document ?knobs ?(jobs = 1) ~names () =
  let exported = default_names () in
  let names = if names = [] then exported else names in
  (* Resolve every name first so an unknown one fails before any cell has
     burned simulation time. *)
  List.iter
    (fun n ->
      if not (List.mem n exported) then
        invalid_arg
          (Printf.sprintf
             "Bench_json.document: unknown experiment %S; available: %s" n
             (String.concat ", " exported)))
    names;
  of_outcomes (Registry.run ~jobs ?knobs (List.map Registry.find names))

let write ~path doc =
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc
