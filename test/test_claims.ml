(* Every experiment's claims, checked on one full-knob run.

   Every registry entry states at least one claim and runs once, at the
   paper's full settings, through the registry: the exported specs on two
   domains, as [bench --json --jobs 2] runs them, then the studies on this
   one. On those outcomes each spec's claims must give their declared
   verdicts (a target holds, a known deviation still misses), and the
   document built from them, which holds only the exported entries, must
   be the committed BENCH_results.json, byte for byte. *)

open Hurricane

(* The obs study's result, which its entry in the run keeps for
   test_obs. *)
let obs = ref None

(* The studies stay off the domain pool: two-domain runs now and then
   crash inside the OCaml 5.1 runtime's GC (CHANGES), and putting the
   studies' cells on the pool made that more likely. *)
let outcomes =
  lazy
    (let spec = Spec.obs () in
     let keep =
       Spec.Spec
         {
           spec with
           run =
             (fun k c ->
               let r = spec.run k c in
               obs := Some r;
               r);
         }
     in
     let exported, studies =
       List.partition
         (fun e -> List.mem (Registry.name e) (Bench_json.default_names ()))
         (List.map
            (fun e -> if Registry.name e = spec.section then keep else e)
            (Lazy.force Registry.all))
     in
     Registry.run ~jobs:2 exported @ Registry.run studies)

let obs_profile () =
  ignore (Lazy.force outcomes);
  Option.get !obs

let outcome section =
  List.find
    (fun o -> Registry.name (Registry.entry o) = section)
    (Lazy.force outcomes)

(* One line per claim of [section] whose verdict is not the declared one. *)
let unexpected section = Registry.unexpected (outcome section)

(* The text report of [section] in the run. *)
let text section =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Registry.print ppf (outcome section);
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* The JSON of [section] in the run. *)
let exported section =
  List.find_map
    (fun o ->
      match Registry.json o with
      | name, json when name = section -> Some json
      | _ -> None)
    (Lazy.force outcomes)
  |> Option.get

(* An entry with no claim checks nothing, so it fails too. *)
let test_claims (Spec.Spec s) () =
  if s.claims = [] then Alcotest.failf "%s states no claim" s.section;
  match unexpected s.section with
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
      (Lazy.force Registry.all)
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
  List.map
    (fun e -> Alcotest.test_case (Registry.name e) `Slow (test_claims e))
    (Lazy.force Registry.all)
  @ [
      Alcotest.test_case "export equals BENCH_results.json" `Slow
        test_export;
    ]
