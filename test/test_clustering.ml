(* Tests for the hierarchical-clustering layout. *)

open Hkernel

let test_even_partition () =
  let c = Clustering.create ~n_procs:16 ~cluster_size:4 in
  Alcotest.(check int) "clusters" 4 (Clustering.n_clusters c);
  Alcotest.(check (list int)) "cluster 0" [ 0; 1; 2; 3 ]
    (Clustering.procs_of_cluster c 0);
  Alcotest.(check (list int)) "cluster 3" [ 12; 13; 14; 15 ]
    (Clustering.procs_of_cluster c 3);
  Alcotest.(check int) "proc 6 -> cluster 1" 1 (Clustering.cluster_of_proc c 6);
  Alcotest.(check int) "index in cluster" 2 (Clustering.index_in_cluster c 6)

let test_single_cluster () =
  let c = Clustering.create ~n_procs:16 ~cluster_size:16 in
  Alcotest.(check int) "one cluster" 1 (Clustering.n_clusters c);
  Alcotest.(check int) "all 16" 16 (Clustering.size_of_cluster c 0)

let test_singleton_clusters () =
  let c = Clustering.create ~n_procs:16 ~cluster_size:1 in
  Alcotest.(check int) "16 clusters" 16 (Clustering.n_clusters c);
  Alcotest.(check (list int)) "cluster 7" [ 7 ] (Clustering.procs_of_cluster c 7)

let test_uneven_partition () =
  let c = Clustering.create ~n_procs:16 ~cluster_size:5 in
  Alcotest.(check int) "ceil(16/5)" 4 (Clustering.n_clusters c);
  Alcotest.(check int) "last cluster has the remainder" 1
    (Clustering.size_of_cluster c 3)

let test_every_proc_covered_once () =
  List.iter
    (fun size ->
      let c = Clustering.create ~n_procs:16 ~cluster_size:size in
      let all =
        List.concat_map
          (fun cl -> Clustering.procs_of_cluster c cl)
          (List.init (Clustering.n_clusters c) (fun i -> i))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "partition for size %d" size)
        (List.init 16 (fun i -> i))
        (List.sort compare all))
    [ 1; 2; 3; 4; 5; 8; 16 ]

let test_rpc_target_ith_to_ith () =
  let c = Clustering.create ~n_procs:16 ~cluster_size:4 in
  (* Processor 6 is index 2 of cluster 1; its RPCs to cluster 3 must go to
     index 2 of cluster 3 = processor 14. *)
  Alcotest.(check int) "i-th to i-th" 14
    (Clustering.rpc_target c ~from:6 ~target_cluster:3);
  Alcotest.(check int) "index 0" 12
    (Clustering.rpc_target c ~from:4 ~target_cluster:3)

let test_rpc_target_wraps_on_smaller_cluster () =
  let c = Clustering.create ~n_procs:16 ~cluster_size:5 in
  (* Cluster 3 has one processor (15); any index maps onto it. *)
  Alcotest.(check int) "wraps" 15
    (Clustering.rpc_target c ~from:4 ~target_cluster:3)

let test_home_in_cluster () =
  let c = Clustering.create ~n_procs:16 ~cluster_size:4 in
  Alcotest.(check int) "salt 0" 4 (Clustering.home_in_cluster c ~cluster:1 ~salt:0);
  Alcotest.(check int) "salt 5 wraps" 5
    (Clustering.home_in_cluster c ~cluster:1 ~salt:5)

let test_rpc_target_uneven_tail () =
  (* 16 procs in clusters of 3: five full clusters plus a singleton tail. *)
  let c = Clustering.create ~n_procs:16 ~cluster_size:3 in
  (* Processor 5 is index 2 of cluster 1; the tail {15} absorbs any index. *)
  Alcotest.(check int) "wraps into the singleton tail" 15
    (Clustering.rpc_target c ~from:5 ~target_cluster:5);
  (* Index 1 fits in the full cluster 4 = {12; 13; 14}. *)
  Alcotest.(check int) "index preserved when it fits" 13
    (Clustering.rpc_target c ~from:4 ~target_cluster:4);
  (* From the tail itself: index 0 everywhere. *)
  Alcotest.(check int) "tail maps to index 0" 0
    (Clustering.rpc_target c ~from:15 ~target_cluster:0)

let test_home_in_cluster_negative_salt () =
  let c = Clustering.create ~n_procs:16 ~cluster_size:4 in
  (* Euclidean wrap: a negative salt can never index outside the cluster. *)
  Alcotest.(check int) "salt -1" 7
    (Clustering.home_in_cluster c ~cluster:1 ~salt:(-1));
  Alcotest.(check int) "salt -4" 4
    (Clustering.home_in_cluster c ~cluster:1 ~salt:(-4));
  (* [abs min_int] is negative, so the old [abs salt mod len] produced a
     negative index here; min_int is a multiple of 4, so index 0. *)
  Alcotest.(check int) "salt min_int" 4
    (Clustering.home_in_cluster c ~cluster:1 ~salt:min_int)

let test_home_in_cluster_uneven_tail () =
  let c = Clustering.create ~n_procs:16 ~cluster_size:5 in
  List.iter
    (fun salt ->
      Alcotest.(check int) "singleton tail homes everything" 15
        (Clustering.home_in_cluster c ~cluster:3 ~salt))
    [ 0; 1; -1; 7; min_int; max_int ]

let test_bad_arguments () =
  Alcotest.(check bool) "size 0" true
    (match Clustering.create ~n_procs:16 ~cluster_size:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "size > procs" true
    (match Clustering.create ~n_procs:16 ~cluster_size:17 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let c = Clustering.create ~n_procs:16 ~cluster_size:4 in
  Alcotest.(check bool) "bad proc" true
    (match Clustering.cluster_of_proc c 16 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let prop_cluster_of_proc_consistent =
  QCheck.Test.make ~name:"proc belongs to the cluster that lists it" ~count:100
    QCheck.(pair (int_range 1 16) (int_range 0 15))
    (fun (size, p) ->
      let c = Clustering.create ~n_procs:16 ~cluster_size:size in
      let cl = Clustering.cluster_of_proc c p in
      List.mem p (Clustering.procs_of_cluster c cl))

let prop_home_in_cluster_total =
  QCheck.Test.make ~name:"home_in_cluster lands in its cluster for any salt"
    ~count:200
    QCheck.(triple (int_range 1 16) (int_range 0 15) int)
    (fun (size, cl, salt) ->
      let c = Clustering.create ~n_procs:16 ~cluster_size:size in
      let cl = cl mod Clustering.n_clusters c in
      List.mem
        (Clustering.home_in_cluster c ~cluster:cl ~salt)
        (Clustering.procs_of_cluster c cl))

let suite =
  [
    Alcotest.test_case "even partition" `Quick test_even_partition;
    Alcotest.test_case "single cluster" `Quick test_single_cluster;
    Alcotest.test_case "singleton clusters" `Quick test_singleton_clusters;
    Alcotest.test_case "uneven partition" `Quick test_uneven_partition;
    Alcotest.test_case "partition covers all processors" `Quick
      test_every_proc_covered_once;
    Alcotest.test_case "RPC targets i-th to i-th" `Quick
      test_rpc_target_ith_to_ith;
    Alcotest.test_case "RPC target wraps on small clusters" `Quick
      test_rpc_target_wraps_on_smaller_cluster;
    Alcotest.test_case "home_in_cluster" `Quick test_home_in_cluster;
    Alcotest.test_case "RPC target with uneven tail cluster" `Quick
      test_rpc_target_uneven_tail;
    Alcotest.test_case "home_in_cluster negative and min_int salt" `Quick
      test_home_in_cluster_negative_salt;
    Alcotest.test_case "home_in_cluster uneven tail" `Quick
      test_home_in_cluster_uneven_tail;
    Alcotest.test_case "bad arguments rejected" `Quick test_bad_arguments;
    Qc.to_alcotest prop_cluster_of_proc_consistent;
    Qc.to_alcotest prop_home_in_cluster_total;
  ]
