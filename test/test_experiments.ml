(* Claim tests for entries outside the export: each runs its experiment
   and asserts the qualitative result the paper reports. The exported
   entries' claims are fields of their specs, checked on the full export by
   the claims suite; Figure 7d's three groups of claims are also checked
   here one group at a time, on that same export. *)

open Locks
open Workloads

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

let suite =
  [
    Alcotest.test_case "RETRY: strategy comparison" `Slow test_retry_strategies;
    Alcotest.test_case "ABL3: CAS release" `Slow test_cas_ablation;
    Alcotest.test_case "TRY: TryLock fairness" `Slow test_trylock_claims;
    Alcotest.test_case "ABL1: granularity" `Slow test_granularity_ablation;
    Alcotest.test_case "FIG7d: shared-fault cluster claims" `Slow
      (Test_claims.test_group "fig7d" (Lock.algo_name Lock.Mcs_h2));
    Alcotest.test_case "FIG7d: shared-fault claims, Spin(35us)" `Slow
      (Test_claims.test_group "fig7d"
         (Lock.algo_name (Lock.Spin { max_backoff_us = 35.0 })));
    Alcotest.test_case "FIG7d: H1-MCS declared miss" `Slow
      (Test_claims.test_group "fig7d" (Lock.algo_name Lock.Mcs_h1));
  ]
