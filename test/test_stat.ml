(* Tests for the statistics accumulator. *)

open Eventsim

let with_samples samples =
  let s = Stat.create "t" in
  List.iter (Stat.add s) samples;
  s

let test_empty () =
  let s = Stat.create "t" in
  Alcotest.(check int) "count" 0 (Stat.count s);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Stat.mean s);
  Alcotest.(check int) "median" 0 (Stat.median s);
  Alcotest.(check (float 0.0)) "tail" 0.0 (Stat.fraction_above s 5)

let test_basic_moments () =
  let s = with_samples [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "count" 5 (Stat.count s);
  Alcotest.(check (float 0.001)) "mean" 3.0 (Stat.mean s);
  Alcotest.(check int) "min" 1 (Stat.min_value s);
  Alcotest.(check int) "max" 5 (Stat.max_value s);
  Alcotest.(check int) "median" 3 (Stat.median s);
  Alcotest.(check (float 0.001)) "stddev" (sqrt 2.5) (Stat.stddev s)

let test_percentiles () =
  let s = with_samples (List.init 100 (fun i -> i + 1)) in
  Alcotest.(check int) "p50" 50 (Stat.percentile s 0.5);
  Alcotest.(check int) "p90" 90 (Stat.percentile s 0.9);
  Alcotest.(check int) "p99" 99 (Stat.percentile s 0.99);
  Alcotest.(check int) "p100" 100 (Stat.percentile s 1.0);
  Alcotest.(check int) "p0 clamps" 1 (Stat.percentile s 0.0);
  Alcotest.(check int) "q>1 clamps" 100 (Stat.percentile s 2.0)

let test_percentile_after_more_adds () =
  (* Percentile sorts internally; adding afterwards must still work. *)
  let s = with_samples [ 5; 1; 3 ] in
  Alcotest.(check int) "median" 3 (Stat.median s);
  Stat.add s 2;
  Stat.add s 4;
  Alcotest.(check int) "median updated" 3 (Stat.median s);
  Alcotest.(check int) "max" 5 (Stat.max_value s)

let test_percentile_empty () =
  let s = Stat.create "t" in
  Alcotest.(check int) "q=0" 0 (Stat.percentile s 0.0);
  Alcotest.(check int) "q=0.5" 0 (Stat.percentile s 0.5);
  Alcotest.(check int) "q=1" 0 (Stat.percentile s 1.0)

let test_single_sample () =
  let s = with_samples [ 42 ] in
  Alcotest.(check int) "q=0" 42 (Stat.percentile s 0.0);
  Alcotest.(check int) "q=0.5" 42 (Stat.percentile s 0.5);
  Alcotest.(check int) "q=1" 42 (Stat.percentile s 1.0);
  Alcotest.(check int) "min" 42 (Stat.min_value s);
  Alcotest.(check int) "max" 42 (Stat.max_value s);
  Alcotest.(check (float 0.0)) "mean" 42.0 (Stat.mean s);
  Alcotest.(check (float 0.0)) "strictly above below it" 1.0
    (Stat.fraction_above s 41);
  Alcotest.(check (float 0.0)) "not above itself" 0.0 (Stat.fraction_above s 42)

(* The p99.9 column added for the SLO axis: nearest-rank means the figure
   degrades to [max] below 1000 samples and only separates from it at
   n >= 1000 — the small-n behaviour a reader of the column must know. *)
let test_p999_small_counts () =
  let s1 = with_samples [ 7 ] in
  Alcotest.(check int) "n=1: the sample" 7 (Stat.percentile s1 0.999);
  let s2 = with_samples [ 1; 9 ] in
  Alcotest.(check int) "n=2: the max" 9 (Stat.percentile s2 0.999);
  let s10 = with_samples (List.init 10 (fun i -> i + 1)) in
  Alcotest.(check int) "n=10: the max" 10 (Stat.percentile s10 0.999);
  let s999 = with_samples (List.init 999 (fun i -> i + 1)) in
  Alcotest.(check int) "n=999: still the max" 999 (Stat.percentile s999 0.999);
  let s1000 = with_samples (List.init 1000 (fun i -> i + 1)) in
  Alcotest.(check int) "n=1000: first below the max" 999
    (Stat.percentile s1000 0.999);
  Alcotest.(check int) "n=1000: p99 further down" 990
    (Stat.percentile s1000 0.99)

let test_fraction_above () =
  let s = with_samples [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  Alcotest.(check (float 0.001)) "above 8" 0.2 (Stat.fraction_above s 8);
  Alcotest.(check (float 0.001)) "above 0" 1.0 (Stat.fraction_above s 0);
  Alcotest.(check (float 0.001)) "above 10" 0.0 (Stat.fraction_above s 10)

let test_clear () =
  let s = with_samples [ 1; 2; 3 ] in
  Stat.clear s;
  Alcotest.(check int) "count" 0 (Stat.count s);
  Stat.add s 7;
  Alcotest.(check (float 0.001)) "fresh mean" 7.0 (Stat.mean s)

let test_to_list () =
  let s = with_samples [ 3; 1; 2 ] in
  Alcotest.(check (list int)) "insertion order kept" [ 3; 1; 2 ]
    (Stat.to_list s)

let prop_percentile_matches_sorted =
  QCheck.Test.make ~name:"nearest-rank percentile matches sorted list"
    ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (int_bound 1000)) (float_bound_inclusive 1.0))
    (fun (samples, q) ->
      let s = with_samples samples in
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      let rank = int_of_float (ceil (q *. float_of_int n)) in
      let idx = max 0 (min (n - 1) (rank - 1)) in
      Stat.percentile s q = List.nth sorted idx)

let prop_mean_bounds =
  QCheck.Test.make ~name:"min <= mean <= max" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (int_bound 1000))
    (fun samples ->
      let s = with_samples samples in
      float_of_int (Stat.min_value s) <= Stat.mean s +. 1e-9
      && Stat.mean s <= float_of_int (Stat.max_value s) +. 1e-9)

(* The in-place sort against a reference: arrays long enough to reach its
   quicksort, with duplicates and negatives, in random, ascending,
   descending or organ-pipe order, sorted once, then again after more
   adds. *)
let prop_sorted_stats_match_reference =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 3_000 and* spread = oneofl [ 3; 100; 1_000_000 ] in
      let* xs = list_repeat n (int_range (-spread) spread) in
      let* shape = int_bound 3 and* more = list_size (int_bound 40) int in
      let xs =
        match shape with
        | 0 -> xs
        | 1 -> List.sort compare xs
        | 2 -> List.rev (List.sort compare xs)
        | _ ->
          let up = List.sort compare xs in
          List.filteri (fun i _ -> i mod 2 = 0) up
          @ List.rev (List.filteri (fun i _ -> i mod 2 = 1) up)
      in
      return (xs, more))
  in
  QCheck.Test.make ~name:"sorted statistics match a List.sort reference"
    ~count:100
    (QCheck.make
       ~print:QCheck.Print.(pair (list int) (list int))
       gen)
    (fun (xs, more) ->
      let s = with_samples xs in
      let agree samples =
        let sorted = Array.of_list (List.sort compare samples) in
        let n = Array.length sorted in
        let at q =
          if n = 0 then 0
          else
            let rank = int_of_float (ceil (q *. float_of_int n)) in
            sorted.(max 0 (min (n - 1) (rank - 1)))
        in
        List.for_all
          (fun q -> Stat.percentile s q = at q)
          [ 0.0; 0.01; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ]
        && Stat.median s = at 0.5
        && Stat.min_value s = (if n = 0 then 0 else sorted.(0))
        && Stat.max_value s = if n = 0 then 0 else sorted.(n - 1)
      in
      agree xs
      &&
      (List.iter (Stat.add s) more;
       agree (xs @ more)))

let suite =
  [
    Alcotest.test_case "empty stat" `Quick test_empty;
    Alcotest.test_case "basic moments" `Quick test_basic_moments;
    Alcotest.test_case "percentiles" `Quick test_percentiles;
    Alcotest.test_case "percentile after later adds" `Quick
      test_percentile_after_more_adds;
    Alcotest.test_case "percentile of empty stat" `Quick test_percentile_empty;
    Alcotest.test_case "single sample edges" `Quick test_single_sample;
    Alcotest.test_case "p99.9 at small sample counts" `Quick
      test_p999_small_counts;
    Alcotest.test_case "fraction above threshold" `Quick test_fraction_above;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "to_list keeps order" `Quick test_to_list;
    Qc.to_alcotest prop_percentile_matches_sorted;
    Qc.to_alcotest prop_mean_bounds;
    Qc.to_alcotest prop_sorted_stats_match_reference;
  ]
