(* Paper-claim regression tests.

   Each test re-runs an experiment (at reduced scale where that does not
   change the claim) and asserts the qualitative result the paper reports —
   who wins, roughly by how much, where crossovers fall. If a model change
   breaks one of the reproduced results, these tests catch it. *)

open Locks
open Workloads

let mean (r : Lock_stress.result) = r.Lock_stress.summary.Measure.mean_us

let stress ?(hold_us = 0.0) ?(window_us = 8000.0) ~p algo =
  Lock_stress.run
    ~config:{ Lock_stress.default_config with p; hold_us; window_us }
    algo

(* Section 4.1.1: MCS 5.40 -> H2 3.69 (32% improvement); spin 3.65. *)
let test_uncontended_claims () =
  let find algo =
    (List.find
       (fun (r : Uncontended.result) -> r.Uncontended.algo = algo)
       (Uncontended.run_all ()))
      .Uncontended.pair_us
  in
  let mcs = find Lock.Mcs_original in
  let h2 = find Lock.Mcs_h2 in
  let spin = find (Lock.Spin { max_backoff_us = 35.0 }) in
  Alcotest.(check bool) "H2 within 5% of spin (paper: 3.69 vs 3.65)" true
    (h2 /. spin < 1.05);
  let improvement = (mcs -. h2) /. mcs in
  Alcotest.(check bool)
    (Printf.sprintf "MCS->H2 improvement %.0f%% (paper: 32%%)"
       (100.0 *. improvement))
    true
    (improvement > 0.20 && improvement < 0.45)

(* Figure 5a at p=16, hold 0: H1 tracks MCS; H2 pays its repair cost; the
   35us spin lock collapses. *)
let test_fig5a_claims () =
  let p = 16 in
  let mcs = mean (stress ~p Lock.Mcs_original) in
  let h1 = mean (stress ~p Lock.Mcs_h1) in
  let h2 = mean (stress ~p Lock.Mcs_h2) in
  let spin35 = mean (stress ~p (Lock.Spin { max_backoff_us = 35.0 })) in
  Alcotest.(check bool)
    (Printf.sprintf "H1 (%.0f) within 15%% of MCS (%.0f)" h1 mcs)
    true
    (h1 /. mcs < 1.15 && mcs /. h1 < 1.15);
  Alcotest.(check bool)
    (Printf.sprintf "H2 (%.0f) pays a visible repair cost over H1 (%.0f)" h2 h1)
    true (h2 > h1 *. 1.5);
  Alcotest.(check bool)
    (Printf.sprintf "spin35 (%.0f) degrades well past MCS (%.0f)" spin35 mcs)
    true
    (spin35 > mcs *. 2.0)

(* Figure 5b (hold 25us): H2's extra cost is "much less significant", and
   the 2ms spin lock is competitive in the mean. *)
let test_fig5b_claims () =
  let p = 16 and hold_us = 25.0 in
  let h1 = mean (stress ~p ~hold_us Lock.Mcs_h1) in
  let h2 = mean (stress ~p ~hold_us Lock.Mcs_h2) in
  let spin2ms = mean (stress ~p ~hold_us (Lock.Spin { max_backoff_us = 2000.0 })) in
  Alcotest.(check bool)
    (Printf.sprintf "H2/H1 at hold 25us is %.2f (much smaller than at 0)" (h2 /. h1))
    true
    (h2 /. h1 < 1.45);
  Alcotest.(check bool)
    (Printf.sprintf "spin 2ms (%.0f) competitive with H1 (%.0f)" spin2ms h1)
    true
    (spin2ms < h1 *. 1.5)

(* Section 4.1.2: the 2ms backoff lock starves under saturation. *)
let test_starvation_tail () =
  let r =
    stress ~p:16 ~hold_us:25.0 ~window_us:20_000.0
      (Lock.Spin { max_backoff_us = 2000.0 })
  in
  Alcotest.(check bool) "a real >2ms tail exists" true
    (r.Lock_stress.summary.Measure.frac_above_2ms > 0.005);
  Alcotest.(check bool) "max wait is huge" true
    (r.Lock_stress.summary.Measure.max_us > 2000.0)

(* Figure 7a: flat to p=4; spin at p=16 well above the distributed locks. *)
let test_fig7a_claims () =
  let run p lock_algo =
    (Independent_faults.run
       ~config:{ Independent_faults.default_config with p; iters = 60; lock_algo }
       ())
      .Independent_faults.summary
      .Measure.mean_us
  in
  let h1_1 = run 1 Lock.Mcs_h1 in
  let h1_4 = run 4 Lock.Mcs_h1 in
  let h1_16 = run 16 Lock.Mcs_h1 in
  let spin_4 = run 4 (Lock.Spin { max_backoff_us = 35.0 }) in
  let spin_16 = run 16 (Lock.Spin { max_backoff_us = 35.0 }) in
  Alcotest.(check bool)
    (Printf.sprintf "flat to p=4 (%.0f -> %.0f)" h1_1 h1_4)
    true
    (h1_4 < h1_1 *. 1.15);
  Alcotest.(check bool)
    (Printf.sprintf "little difference at p=4 (spin %.0f vs h1 %.0f)" spin_4 h1_4)
    true
    (spin_4 < h1_4 *. 1.15);
  Alcotest.(check bool)
    (Printf.sprintf "spin at p=16 (%.0f) well above distributed (%.0f)" spin_16
       h1_16)
    true
    (spin_16 > h1_16 *. 1.5)

(* Figure 7c: small clusters flat; the 16-cluster is the worst. *)
let test_fig7c_claims () =
  let run cluster_size =
    (Independent_faults.run
       ~config:
         {
           Independent_faults.default_config with
           p = 16;
           iters = 60;
           cluster_size;
           lock_algo = Lock.Mcs_h2;
         }
       ())
      .Independent_faults.summary
      .Measure.mean_us
  in
  let c1 = run 1 and c4 = run 4 and c16 = run 16 in
  Alcotest.(check bool)
    (Printf.sprintf "cluster 4 (%.0f) within 25%% of cluster 1 (%.0f)" c4 c1)
    true
    (c4 < c1 *. 1.25);
  Alcotest.(check bool)
    (Printf.sprintf "cluster 16 (%.0f) clearly worse than 4 (%.0f)" c16 c4)
    true
    (c16 > c4 *. 1.5)

(* Figure 7d: very small clusters dominated by inter-cluster operations;
   moderate sizes win under H2-MCS and Spin(35us). *)
let fig7d_mean lock_algo cluster_size =
  (Shared_faults.run
     ~config:
       {
         Shared_faults.default_config with
         p = 16;
         rounds = 10;
         cluster_size;
         lock_algo;
       }
     ())
    .Shared_faults.summary
    .Measure.mean_us

let test_fig7d_claims lock_algo () =
  let run = fig7d_mean lock_algo in
  let c1 = run 1 and c4 = run 4 and c16 = run 16 in
  Alcotest.(check bool)
    (Printf.sprintf "cluster 1 (%.0f) dominated by RPC traffic (vs %.0f)" c1 c4)
    true
    (c1 > c4 *. 2.0);
  Alcotest.(check bool)
    (Printf.sprintf "moderate (%.0f) at least as good as 16 (%.0f)" c4 c16)
    true
    (c4 < c16 *. 1.2)

(* A declared miss (EXPERIMENTS.md, FIG7d): under H1-MCS the mean keeps
   falling all the way to cluster size 16, so "moderate sizes are best"
   does not hold for it. If this fails, the deviation is gone and the doc
   must change. *)
let test_fig7d_h1_miss () =
  let run = fig7d_mean Lock.Mcs_h1 in
  let c4 = run 4 and c8 = run 8 and c16 = run 16 in
  Alcotest.(check bool)
    (Printf.sprintf "H1-MCS falls past moderate: %.0f > %.0f > %.0f" c4 c8 c16)
    true
    (c4 > c8 && c8 > c16)

(* Section 2.5 / RETRY: the pessimistic strategy revalidates on every
   remote step; the optimistic one only pays on conflict. *)
let test_retry_strategies () =
  let run strategy =
    Destruction.run
      ~config:
        { Destruction.default_config with n_programs = 6; strategy }
      ()
  in
  let opt = run Hkernel.Procs.Optimistic in
  let pes = run Hkernel.Procs.Pessimistic in
  Alcotest.(check int) "optimistic never revalidates" 0
    opt.Destruction.revalidations;
  Alcotest.(check bool) "pessimistic revalidates per step" true
    (pes.Destruction.revalidations > 20);
  Alcotest.(check bool) "retries common under both (paper 2.5)" true
    (opt.Destruction.retries > 0 && pes.Destruction.retries > 0)

(* Section 5.2 / ABL3: CAS releases shrink the contended differential. *)
let test_cas_ablation () =
  let rows = Hurricane.Experiments.ablation_cas () in
  let contended r = r.Hurricane.Experiments.contended_p16_us in
  match rows with
  | [ swap_h2; cas_h2; cas_release ] ->
    Alcotest.(check bool) "CAS-release beats F&S repair under contention" true
      (contended cas_release < contended cas_h2
      && contended cas_release < contended swap_h2)
  | _ -> Alcotest.fail "unexpected row count"

(* Section 3.2 / TRY: distributed-lock TryLock starves; deferred work wins. *)
let test_trylock_claims () =
  let r =
    Trylock_starvation.run
      ~config:{ Trylock_starvation.default_config with window_us = 8000.0 }
      ()
  in
  Alcotest.(check bool) "trylock success under saturation is marginal" true
    (r.Trylock_starvation.try_success_rate < 0.15);
  Alcotest.(check int) "every deferred request completes"
    r.Trylock_starvation.deferred_posted
    r.Trylock_starvation.deferred_completed

(* Section 2.4 / ABL1: hybrid close to fine-grained for independent
   requests, coarse clearly worse, at a fraction of the lock words. *)
let test_granularity_ablation () =
  let rs = Hash_stress.run_all () in
  let find g =
    List.find (fun (r : Hash_stress.result) -> r.Hash_stress.granularity = g) rs
  in
  let hybrid = find Hkernel.Khash.Hybrid in
  let coarse = find Hkernel.Khash.Coarse in
  let fine = find Hkernel.Khash.Fine in
  let m (r : Hash_stress.result) = r.Hash_stress.summary.Measure.mean_us in
  Alcotest.(check bool)
    (Printf.sprintf "hybrid (%.0f) within 2x of fine (%.0f)" (m hybrid) (m fine))
    true
    (m hybrid < m fine *. 2.0);
  Alcotest.(check bool)
    (Printf.sprintf "coarse (%.0f) worse than hybrid (%.0f)" (m coarse) (m hybrid))
    true
    (m coarse > m hybrid *. 1.3)

(* HASH-SCALING: sharding the table beats the single-lock hybrid once the
   machine is busy (p >= 8) for every shard count, and the seqlock
   optimistic read path undercuts locked lookups at a 90% read ratio. *)
let test_hash_scaling_claims () =
  let s = Hurricane.Spec.hash_scaling () in
  let rows =
    List.filter_map
      (fun (c : Hash_scaling.config) ->
        if List.mem c.p [ 8; 16 ] then Some (c, s.run c) else None)
      s.grid
  in
  let mean_read (r : Hash_scaling.result) =
    r.Hash_scaling.read_summary.Measure.mean_us
  in
  let hybrid p rr =
    List.find
      (fun ((c : Hash_scaling.config), _) ->
        c.granularity = Hkernel.Khash.Hybrid && c.p = p && c.read_ratio = rr)
      rows
    |> snd
  in
  List.iter
    (fun ((c : Hash_scaling.config), (r : Hash_scaling.result)) ->
      if c.granularity = Hkernel.Khash.Sharded then begin
        let base = hybrid c.p c.read_ratio in
        Alcotest.(check bool)
          (Printf.sprintf
             "sharded (s=%d opt=%b p=%d rr=%.1f) %.1f ops/ms beats hybrid %.1f"
             r.shards r.optimistic c.p c.read_ratio r.throughput_ops_ms
             base.throughput_ops_ms)
          true
          (r.throughput_ops_ms > base.throughput_ops_ms)
      end)
    rows;
  List.iter
    (fun ((c : Hash_scaling.config), (r : Hash_scaling.result)) ->
      if
        c.granularity = Hkernel.Khash.Sharded && r.optimistic
        && c.read_ratio = 0.9
      then begin
        let locked =
          List.find
            (fun ((lc : Hash_scaling.config), (l : Hash_scaling.result)) ->
              lc.granularity = Hkernel.Khash.Sharded
              && (not l.optimistic)
              && l.shards = r.shards && lc.p = c.p
              && lc.read_ratio = c.read_ratio)
            rows
          |> snd
        in
        Alcotest.(check bool)
          (Printf.sprintf "optimistic reads (s=%d p=%d) %.1fus beat locked %.1fus"
             r.shards c.p (mean_read r) (mean_read locked))
          true
          (mean_read r < mean_read locked);
        Alcotest.(check bool)
          (Printf.sprintf "optimistic path actually taken (s=%d p=%d)" r.shards
             c.p)
          true (r.optimistic_hits > 0)
      end)
    rows

(* DIURNAL: the full race at the default settings, the same numbers
   [bench diurnal] prints and Bench_json exports. The two regimes have
   different winners, and every row runs clean through all three
   plateaus. *)
let test_diurnal_race () =
  let s = Hurricane.Spec.diurnal () in
  let rows = List.map s.run s.grid in
  List.iter
    (fun (r : Diurnal.result) ->
      let n = r.algo_name in
      Alcotest.(check int) (n ^ " violations") 0 r.lockdep_violations;
      Alcotest.(check bool) (n ^ " free") true r.final_free;
      Alcotest.(check bool) (n ^ " completed work in every phase") true
        (r.cold1_ops > 0 && r.hot_ops > 0 && r.cold2_ops > 0))
    rows;
  let best f =
    List.fold_left (fun a r -> if f r > f a then r else a) (List.hd rows) rows
  in
  let cold = best (fun (r : Diurnal.result) -> r.cold_throughput_ops_ms) in
  let hot = best (fun (r : Diurnal.result) -> r.hot_throughput_ops_ms) in
  Alcotest.(check bool)
    (Printf.sprintf "no shape wins both phases (cold: %s, hot: %s)"
       cold.algo_name hot.algo_name)
    true
    (cold.algo_name <> hot.algo_name)

let suite =
  [
    Alcotest.test_case "UNC: uncontended latency claims" `Slow
      test_uncontended_claims;
    Alcotest.test_case "FIG5a: contention claims" `Slow test_fig5a_claims;
    Alcotest.test_case "FIG5b: hold-25us claims" `Slow test_fig5b_claims;
    Alcotest.test_case "STARVATION: 2ms-backoff tail" `Slow test_starvation_tail;
    Alcotest.test_case "FIG7a: independent-fault claims" `Slow test_fig7a_claims;
    Alcotest.test_case "FIG7c: cluster-size claims" `Slow test_fig7c_claims;
    Alcotest.test_case "FIG7d: shared-fault cluster claims" `Slow
      (test_fig7d_claims Lock.Mcs_h2);
    Alcotest.test_case "FIG7d: shared-fault claims, Spin(35us)" `Slow
      (test_fig7d_claims (Lock.Spin { max_backoff_us = 35.0 }));
    Alcotest.test_case "FIG7d: H1-MCS declared miss" `Slow test_fig7d_h1_miss;
    Alcotest.test_case "RETRY: strategy comparison" `Slow test_retry_strategies;
    Alcotest.test_case "ABL3: CAS release" `Slow test_cas_ablation;
    Alcotest.test_case "TRY: TryLock fairness" `Slow test_trylock_claims;
    Alcotest.test_case "ABL1: granularity" `Slow test_granularity_ablation;
    Alcotest.test_case "HASH-SCALING: sharding + seqlock claims" `Slow
      test_hash_scaling_claims;
    Alcotest.test_case "DIURNAL: no shape wins both phases" `Slow
      test_diurnal_race;
  ]
