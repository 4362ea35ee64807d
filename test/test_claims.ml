(* The exported experiments' claims, checked on one full-knob export.

   Every exported spec runs once, at the paper's full settings, through
   the registry on two domains. On those outcomes each spec's claims must
   give their declared verdicts (a target holds, a known deviation still
   misses), and the document built from them must be the committed
   BENCH_results.json, byte for byte. *)

open Hurricane

let outcomes =
  lazy
    (let entries = List.map Registry.find (Bench_json.default_names ()) in
     Registry.run ~jobs:2 entries)

let specs () = Spec.paper () @ Spec.extensions ()

(* One line per claim of [section] whose verdict is not the declared one. *)
let unexpected section =
  List.find
    (fun o -> Option.map fst (Registry.json o) = Some section)
    (Lazy.force outcomes)
  |> Registry.unexpected

(* The JSON of [section] in the one export. *)
let exported section =
  List.find_map
    (fun o ->
      match Registry.json o with
      | Some (name, json) when name = section -> Some json
      | _ -> None)
    (Lazy.force outcomes)
  |> Option.get

let test_claims section () =
  match unexpected section with
  | [] -> ()
  | lines -> Alcotest.fail (String.concat "\n" lines)

(* The claims of [section] whose statements start with [prefix]: there is
   at least one, and each gives its declared verdict. *)
let test_group section prefix () =
  let statements =
    List.concat_map
      (fun (Spec.Spec s) ->
        if s.section = section then
          List.map (fun (c : _ Spec.claim) -> c.statement) s.claims
        else [])
      (specs ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s states claims on %s" section prefix)
    true
    (List.exists (String.starts_with ~prefix) statements);
  match
    List.filter
      (String.starts_with ~prefix:(section ^ ": " ^ prefix))
      (unexpected section)
  with
  | [] -> ()
  | lines -> Alcotest.fail (String.concat "\n" lines)

(* The file sits at the project root: one level up from the test's build
   directory. *)
let committed () =
  let path =
    List.find Sys.file_exists [ "../BENCH_results.json"; "BENCH_results.json" ]
  in
  In_channel.with_open_bin path In_channel.input_all

let test_export () =
  let doc = Bench_json.of_outcomes (Lazy.force outcomes) in
  Alcotest.(check bool) "document round trips" true
    (Json.of_string (Json.to_string doc) = doc);
  let lines s = String.split_on_char '\n' s in
  let rec first_diff n = function
    | a :: x, b :: y ->
      if a = b then first_diff (n + 1) (x, y) else Some (n, a, b)
    | [], [] -> None
    | a :: _, [] -> Some (n, a, "<end of file>")
    | [], b :: _ -> Some (n, "<end of export>", b)
  in
  let export = Json.to_string doc ^ "\n" in
  match first_diff 1 (lines export, lines (committed ())) with
  | None -> ()
  | Some (n, ours, theirs) ->
    Alcotest.failf
      "the export differs from BENCH_results.json at line %d:\n\
      \  export:    %s\n\
      \  committed: %s" n ours theirs

let suite =
  List.filter_map
    (fun (Spec.Spec s) ->
      match s.claims with
      | [] -> None
      | _ -> Some (Alcotest.test_case s.section `Slow (test_claims s.section)))
    (specs ())
  @ [
      Alcotest.test_case "export equals BENCH_results.json" `Slow
        test_export;
    ]
