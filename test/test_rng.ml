(* Tests for the deterministic splittable PRNG. *)

open Eventsim

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_seed_changes_stream () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_split_independent () =
  let parent = Rng.create 7 in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.next_int64 c1 = Rng.next_int64 c2 then incr same
  done;
  Alcotest.(check bool) "children differ" true (!same < 5)

let test_int_bound_rejects_nonpositive () =
  let r = Rng.create 3 in
  Alcotest.check_raises "zero" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_range () =
  let r = Rng.create 5 in
  for _ = 1 to 200 do
    let v = Rng.range r 10 20 in
    Alcotest.(check bool) "in range" true (v >= 10 && v <= 20)
  done

let test_range_bad () =
  let r = Rng.create 5 in
  Alcotest.check_raises "hi<lo" (Invalid_argument "Rng.range: hi < lo")
    (fun () -> ignore (Rng.range r 5 4))

let test_shuffle_permutes () =
  let r = Rng.create 9 in
  let arr = Array.init 20 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 20 (fun i -> i)) sorted

let test_float_range () =
  let r = Rng.create 11 in
  for _ = 1 to 200 do
    let v = Rng.float r in
    Alcotest.(check bool) "[0,1)" true (v >= 0.0 && v < 1.0)
  done

(* The splitmix64 stream is part of every experiment's output: pin the
   first draws of three seeds, and of a child stream's [int]s, so a change
   to how the state is held cannot move a number. *)
let test_pinned_outputs () =
  List.iter
    (fun (seed, first, ints) ->
      let r = Rng.create seed in
      Alcotest.(check (list int64))
        (Printf.sprintf "seed %d: first draws" seed)
        first
        (List.init 3 (fun _ -> Rng.next_int64 r));
      let child = Rng.split (Rng.create seed) in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: a child's first ints" seed)
        ints
        (List.init 3 (fun _ -> Rng.int child 1_000_000)))
    [
      ( 0,
        [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L ],
        [ 171247; 794846; 586327 ] );
      ( 7,
        [ 7191089600892374487L; 309689372594955804L; -1830642326893942270L ],
        [ 921413; 106366; 949019 ] );
      ( 31,
        [
          -2929144642507117846L; -4840000547396304936L; -9133900205235055403L;
        ],
        [ 884398; 624905; 995610 ] );
    ]

let prop_int_nonnegative_and_bounded =
  QCheck.Test.make ~name:"Rng.int stays within [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 20 do
        let v = Rng.int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_bool_both_values =
  QCheck.Test.make ~name:"Rng.bool produces both values" ~count:50 QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      let t = ref false and f = ref false in
      for _ = 1 to 64 do
        if Rng.bool r then t := true else f := true
      done;
      !t && !f)

let suite =
  [
    Alcotest.test_case "same seed, same stream" `Quick test_determinism;
    Alcotest.test_case "different seeds differ" `Quick test_seed_changes_stream;
    Alcotest.test_case "split gives independent streams" `Quick
      test_split_independent;
    Alcotest.test_case "int rejects non-positive bound" `Quick
      test_int_bound_rejects_nonpositive;
    Alcotest.test_case "range bounds" `Quick test_range;
    Alcotest.test_case "range rejects hi<lo" `Quick test_range_bad;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "float in [0,1)" `Quick test_float_range;
    Alcotest.test_case "first outputs of seeds 0, 7 and 31" `Quick
      test_pinned_outputs;
    Qc.to_alcotest prop_int_nonnegative_and_bounded;
    Qc.to_alcotest prop_bool_both_values;
  ]
