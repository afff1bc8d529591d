//! Shared fixtures for the cross-crate integration tests (see `tests/`).

#![warn(missing_docs)]

use dtn_workloads::prelude::*;

/// A fast scenario in the paper's economic regime: 24 nodes, 0.25 km²
/// (the Table 5.1 density), 30 simulated minutes, scarce tokens.
#[must_use]
pub fn fast_scenario() -> Scenario {
    let mut s = reduced_scenario();
    s.nodes = 24;
    s.area_km2 = 0.24;
    s.duration_secs = 1800.0;
    s.message_interval_secs = 20.0;
    s.message_ttl_secs = 1200.0;
    s.protocol.incentive.initial_tokens = 20.0;
    s.named("integration-fast")
}

/// One plain (uninstrumented) run of `(scenario, arm, seed)` to completion.
#[must_use]
pub fn run_arm(scenario: &Scenario, arm: Arm, seed: u64) -> ArmRun {
    run(&Cell::arm(scenario.clone(), arm, seed), RunOpts::default()).run
}
