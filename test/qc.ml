(* Every qcheck property in the suite runs through [to_alcotest], on a fixed
   seed, so [dune runtest] is deterministic. Set QCHECK_SEED to an integer
   to try another seed; a failing property prints the seed that reproduces
   it.

   [dune build @soak] (test/dune) is the soak run: it runs the whole suite
   three times, with QCHECK_SEED 1, 2 and 3, under QCHECK_LONG=true and
   QCHECK_LONG_FACTOR=10, which qcheck-alcotest and qcheck-core read to
   multiply every property's count by 10. It is not part of
   [dune runtest]. *)

let default_seed = 20_240_611

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | None -> default_seed
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> invalid_arg ("QCHECK_SEED is not an integer: " ^ s))

let to_alcotest t =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
  in
  let run () =
    try run ()
    with e ->
      Printf.eprintf "property %S failed; reproduce with QCHECK_SEED=%d\n%!"
        name seed;
      raise e
  in
  (name, speed, run)
