(* Digests of the simulated results at the default seed, from the workload
   modules' own runs: perfbench/test/test.exe --print-reference. *)

let cells =
  [
    ("fault_sweep/H1-MCS/cs1", "158dabbeb4237f9004787189b5af857c");
    ("fault_sweep/H1-MCS/cs4", "155bf36cdf0909e8a1b73de4ef2eb786");
    ("fault_sweep/H1-MCS/cs16", "5e105c1770930b0c33815d5e647749a6");
    ("fault_sweep/H2-MCS/cs1", "ed197bb23f5cd12d409232c93bf37316");
    ("fault_sweep/H2-MCS/cs4", "d4b78b4465c18c3526dc8ef0cb162f2f");
    ("fault_sweep/H2-MCS/cs16", "3315781533a78de8da530c48a6d91a73");
    ("fault_sweep/Spin(35us)/cs1", "4612f28729251ed6d680d507d574a582");
    ("fault_sweep/Spin(35us)/cs4", "b564e2f428d25c871a778abb29221c0d");
    ("fault_sweep/Spin(35us)/cs16", "08eaf974cbd63f5f0cf85fdd78bcc66f");
    ("numa_handoff/H2-MCS/c1/h0", "c2caf35b7b0460273239af066e9af250");
    ("numa_handoff/H2-MCS/c1/h10", "de8e76548c6e6eb96796367c49b9b4ae");
    ("numa_handoff/H2-MCS/c4/h0", "878123df6887f4487a3a69f274b12547");
    ("numa_handoff/H2-MCS/c4/h10", "666e1e2cd303cea348101565106e5770");
    ("numa_handoff/C-H1-MCS-H1-MCS/c1/h0", "69ceafeb97bc504ad2b1a1d83de59681");
    ("numa_handoff/C-H1-MCS-H1-MCS/c1/h10", "8597553e73d5996d04b267263ed6cd65");
    ("numa_handoff/C-H1-MCS-H1-MCS/c4/h0", "187d297a6ddb4387c747e7c1cfe95a38");
    ("numa_handoff/C-H1-MCS-H1-MCS/c4/h10", "e185fa3f1d95c688862fce0348d77c9d");
    ("numa_handoff/HMCS/c1/h0", "61d6849623000250a0439c1cbcfcba40");
    ("numa_handoff/HMCS/c1/h10", "739d1933aee8634c778e21803a94192c");
    ("numa_handoff/HMCS/c4/h0", "ce26897319d0d56ce2753ccbd1ff3f25");
    ("numa_handoff/HMCS/c4/h10", "6fe522a717f37828ef08cc80926d7cfd");
    ("numa_handoff/CNA/c1/h0", "4b87c349b85f2c461b99d5d217d4bda3");
    ("numa_handoff/CNA/c1/h10", "53eff75777ec35ac50b79e391c4cdce0");
    ("numa_handoff/CNA/c4/h0", "37e45e05fe49fd7f68adf191c987b8dd");
    ("numa_handoff/CNA/c4/h10", "cea64e461e47ec323507acb440371a35");
    ("slo_stream/150", "056d0d1a07b57d2583eef358fdbadb42");
    ("slo_stream/250", "b831344bb0e228ae2b8473a9dbd2dd14");
    ("slo_stream/350", "a00f06d2f4a76aff8fee051ea8e4deeb");
  ]
