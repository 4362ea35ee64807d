(* The domain pool and the parallel bench matrix's determinism pin.

   The load-bearing invariant of the whole parallel harness is at the
   bottom: [Bench_json.document ~jobs:4] must serialise to exactly the
   same bytes as the sequential document, including multi-cell
   experiments that are split per-algorithm and reassembled. *)

open Hurricane

let test_map_identity () =
  let xs = List.init 100 (fun i -> i) in
  Alcotest.(check (list int))
    "jobs=1 is List.map" (List.map succ xs)
    (Par.map ~jobs:1 succ xs);
  Alcotest.(check (list int))
    "jobs=4 preserves input order" (List.map succ xs)
    (Par.map ~jobs:4 succ xs)

let test_map_empty_and_single () =
  Alcotest.(check (list int)) "empty" [] (Par.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "single" [ 8 ] (Par.map ~jobs:4 succ [ 7 ])

let test_map_more_jobs_than_items () =
  Alcotest.(check (list int))
    "jobs > n" [ 2; 3; 4 ]
    (Par.map ~jobs:16 succ [ 1; 2; 3 ])

exception Boom of int

let test_map_raises_earliest () =
  (* Two failing inputs: the exception re-raised must belong to the
     earliest one in input order, regardless of completion order. *)
  let f x = if x mod 3 = 0 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      match Par.map ~jobs f [ 1; 2; 3; 4; 5; 6 ] with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x ->
        Alcotest.(check int)
          (Printf.sprintf "earliest failure wins (jobs=%d)" jobs)
          3 x)
    [ 1; 4 ]

let test_document_deterministic () =
  (* Byte-identity of the parallel export: includes fig5a (a multi-cell
     experiment split per lock algorithm) next to single-cell
     experiments, so reassembly order is actually exercised. *)
  let names = [ "fig4"; "fig5a"; "constants" ] in
  let doc jobs =
    Bench_json.document
      ~knobs:{ Registry.full with procs = Some [ 2; 4 ] }
      ~jobs ~names ()
  in
  let seq = Json.to_string (doc 1) in
  let par = Json.to_string (doc 4) in
  Alcotest.(check bool) "parallel export is byte-identical" true (seq = par)

let suite =
  [
    Alcotest.test_case "map is List.map in order" `Quick test_map_identity;
    Alcotest.test_case "map: empty and singleton" `Quick
      test_map_empty_and_single;
    Alcotest.test_case "map: more jobs than items" `Quick
      test_map_more_jobs_than_items;
    Alcotest.test_case "map re-raises earliest failure" `Quick
      test_map_raises_earliest;
    Alcotest.test_case "document --jobs 4 is byte-identical" `Slow
      test_document_deterministic;
  ]
