(* Figure 7d's three groups of claims, checked one group at a time on the
   claims suite's one run. Every experiment's claims are fields of its
   spec, checked on that run by the claims suite. *)

open Locks

let suite =
  [
    Alcotest.test_case "FIG7d: shared-fault cluster claims" `Slow
      (Test_claims.test_group "fig7d" (Lock.algo_name Lock.Mcs_h2));
    Alcotest.test_case "FIG7d: shared-fault claims, Spin(35us)" `Slow
      (Test_claims.test_group "fig7d"
         (Lock.algo_name (Lock.Spin { max_backoff_us = 35.0 })));
    Alcotest.test_case "FIG7d: H1-MCS declared miss" `Slow
      (Test_claims.test_group "fig7d" (Lock.algo_name Lock.Mcs_h1));
  ]
