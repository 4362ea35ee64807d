(* Cluster-size tuning: the paper's central systems question.

   Hierarchical clustering instantiates kernel structures per cluster.
   Small clusters bound lock contention (good for independent work) but
   force remote operations through RPC (bad for sharing). This example
   reads both workload extremes off the paper's cluster-size sweeps, the
   H2-MCS series of Figures 7c (independent faults) and 7d (shared faults)
   run through the experiment registry, and prints the trade-off the paper
   summarises as "a cluster size somewhere in the range of 4 to 16
   processors would be optimal for our system".

   Run with: dune exec examples/cluster_tuning.exe *)

open Hurricane

(* The H2-MCS points of a Figure 7 series section, as the export holds
   them. *)
let h2_points (_, json) =
  let list = function Json.List l -> l | _ -> [] in
  let series =
    List.find
      (fun s -> Json.get s "algo" = Json.String "H2-MCS")
      (list (Json.get json "series"))
  in
  list (Json.get series "points")

let int point key = match Json.get point key with Json.Int i -> i | _ -> 0

let mean point =
  match Json.get point "mean_us" with Json.Float f -> f | _ -> Float.nan

let () =
  let independent, shared =
    match
      List.map
        (fun o -> h2_points (Registry.json o))
        (Registry.run (List.map Registry.find [ "fig7c"; "fig7d" ]))
    with
    | [ i; s ] -> (i, s)
    | _ -> assert false
  in
  Format.printf
    "Soft page-fault response time at p = 16, H2-MCS coarse locks:@.@.";
  Format.printf "%-14s %18s %25s@." "cluster size" "independent (us)"
    "shared (us / RPCs)";
  let score =
    List.map2
      (fun ind sh ->
        let size = int ind "x" in
        Format.printf "%-14d %18.1f %18.1f / %-6d@." size (mean ind) (mean sh)
          (int sh "rpcs");
        (size, mean ind +. mean sh))
      independent shared
  in
  let best =
    List.fold_left (fun acc x -> if snd x < snd acc then x else acc)
      (List.hd score) score
  in
  Format.printf
    "@.Independent faults want small clusters (contention is bounded by the \
     cluster);@.shared faults want large ones (sharing stays inside a \
     cluster). For an even mix@.of both, the sweet spot here is a cluster \
     size of %d — the paper concluded@.\"somewhere in the range of 4 to 16\" \
     for the same reason.@."
    (fst best)
