//! The fleet's determinism contract, pinned as properties.
//!
//! 1. The merged [`FleetReport`] is a pure function of the config minus
//!    `workers`: running the same fleet on 1, 2, or 8 host threads yields
//!    byte-identical reports (`PartialEq` over every merged stats surface,
//!    every scorecard, and the fused detection verdict).
//! 2. Member seeds never collide within a fleet and are stable under fleet
//!    growth: a 2048-member fleet's first N seeds are exactly the N-member
//!    fleet's seeds.
//! 3. Observability is inert: a fleet run with a recording trace sink and
//!    a live profiler produces a byte-identical [`FleetReport`] to the
//!    bare run — observers read the simulation, they never steer it. What
//!    it records keeps the trace grammar ([`rssd_obs::check()`]).

use proptest::prelude::*;
use rssd_fleet::{member_seed, Fleet, FleetConfig, ObsOptions};
use std::collections::HashSet;

proptest! {
    // Each case runs the same fleet three times; keep the case count low
    // enough for CI while still exploring seeds, sizes, and attack mix.
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn report_is_worker_count_independent(
        seed in 0u64..1_000_000,
        members in 2usize..10,
        ops in 30usize..70,
        compromised_pct in 0u32..60,
        fault_pct in 0u32..30,
        diurnal in any::<bool>(),
    ) {
        let base = FleetConfig {
            members,
            seed,
            ops_per_member: ops,
            compromised_fraction: f64::from(compromised_pct) / 100.0,
            fault_fraction: f64::from(fault_pct) / 100.0,
            diurnal,
            ..FleetConfig::default()
        };
        let one = Fleet::new(FleetConfig { workers: 1, ..base.clone() })
            .run()
            .unwrap();
        let two = Fleet::new(FleetConfig { workers: 2, ..base.clone() })
            .run()
            .unwrap();
        let eight = Fleet::new(FleetConfig { workers: 8, ..base })
            .run()
            .unwrap();
        prop_assert_eq!(&one, &two);
        prop_assert_eq!(&one, &eight);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn observability_never_perturbs_the_report(
        seed in 0u64..1_000_000,
        members in 2usize..8,
        ops in 30usize..60,
        compromised_pct in 0u32..60,
        fault_pct in 0u32..30,
        workers in 1usize..4,
    ) {
        let config = FleetConfig {
            members,
            seed,
            workers,
            ops_per_member: ops,
            compromised_fraction: f64::from(compromised_pct) / 100.0,
            fault_fraction: f64::from(fault_pct) / 100.0,
            ..FleetConfig::default()
        };
        let bare = Fleet::new(config.clone()).run().unwrap();
        let (observed, obs) = Fleet::new(config)
            .run_instrumented(ObsOptions::all())
            .unwrap();
        prop_assert_eq!(&bare, &observed, "recording sink/profiler changed the report");
        let trace = rssd_obs::check(&obs.events)
            .map_err(|v| TestCaseError::fail(v.to_string()))?;
        prop_assert!(trace.transfers_closed > 0, "no transfer closed: {trace:?}");
        prop_assert_eq!(trace.in_flight_at_end, 0, "a settled member left a transfer in flight");
        let phase_sum: u64 = obs.profile.phases.values().sum();
        prop_assert_eq!(phase_sum, obs.profile.total_ns, "profile must partition its span");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn member_seeds_never_collide_and_survive_fleet_growth(
        seed in any::<u64>(),
        size in 1usize..2048,
    ) {
        let seeds: Vec<u64> = (0..size).map(|m| member_seed(seed, m)).collect();
        let distinct: HashSet<u64> = seeds.iter().copied().collect();
        prop_assert_eq!(distinct.len(), seeds.len(), "seed collision");
        let grown: Vec<u64> = (0..size + 16).map(|m| member_seed(seed, m)).collect();
        prop_assert_eq!(&grown[..size], &seeds[..], "growth perturbed existing members");
    }
}
