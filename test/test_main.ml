let () =
  Alcotest.run "lifeguard"
    [
      ("prng", Test_prng.suite);
      ("stats", Test_stats.suite);
      ("net", Test_net.suite);
      ("sim", Test_sim.suite);
      ("topology", Test_topology.suite);
      ("bgp", Test_bgp.suite);
      ("bgp-more", Test_bgp_more.suite);
      ("interner", Test_interner.suite);
      ("slot-rib", Test_slot_rib.suite);
      ("dataplane", Test_dataplane.suite);
      ("measurement", Test_measurement.suite);
      ("lifeguard", Test_lifeguard.suite);
      ("workloads", Test_workloads.suite);
      ("fleet", Test_fleet.suite);
      ("plan", Test_plan.suite);
      ("recover", Test_recover.suite);
      ("par", Test_par.suite);
      ("shard", Test_shard.suite);
      ("experiments", Test_experiments.suite);
      ("behaviors", Test_behaviors.suite);
      ("invariants", Test_invariants.suite);
      ("lint", Test_lint.suite);
      ("obs", Test_obs.suite);
    ]
