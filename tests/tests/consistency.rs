//! Cross-implementation consistency checks.
//!
//! The workspace contains two independent implementations of ChitChat
//! routing: the standalone [`dtn_routing::chitchat::ChitChatRouter`] and
//! the baseline arm of [`dtn_core::protocol::DcimRouter`] (the mechanism
//! with everything toggled off). On the same workload their outcomes must
//! agree closely — a strong regression tripwire for both.

use dtn_integration_tests::run_arm;
use dtn_routing::chitchat::ChitChatRouter;
use dtn_sim::stats::RunSummary;
use dtn_sim::time::SimTime;
use dtn_sim::world::NodeId;
use dtn_workloads::prelude::*;

fn scenario() -> Scenario {
    let mut s = reduced_scenario();
    s.nodes = 30;
    s.area_km2 = 0.3;
    s.duration_secs = 2400.0;
    s.message_interval_secs = 30.0;
    s.message_ttl_secs = 1800.0;
    s.named("consistency")
}

fn run_standalone_chitchat(s: &Scenario, seed: u64) -> RunSummary {
    let mut sim = dtn_workloads::runner::build_with_protocol(s, seed, |pop, _| {
        let mut router = ChitChatRouter::new(pop.interests.len(), s.protocol.chitchat);
        for i in 0..pop.interests.len() {
            let node = NodeId(i as u32);
            router.subscribe(node, pop.sorted_interests(node));
        }
        router
    });
    sim.run_until(SimTime::from_secs(s.duration_secs))
}

#[test]
fn standalone_chitchat_matches_the_baseline_arm() {
    let s = scenario();
    let seed = 11;
    let standalone = run_standalone_chitchat(&s, seed);
    let arm = run_arm(&s, Arm::ChitChat, seed).summary;

    // Identical workloads by construction.
    assert_eq!(standalone.created, arm.created);
    assert_eq!(standalone.expected_pairs, arm.expected_pairs);

    // The two implementations share the algorithms but differ in offer
    // ordering (the arm sorts ids the same way with the mechanism off, but
    // evaluates through a different code path), so allow small slack.
    let mdr_gap = (standalone.delivery_ratio - arm.delivery_ratio).abs();
    assert!(
        mdr_gap < 0.05,
        "MDR agreement: standalone {} vs arm {}",
        standalone.delivery_ratio,
        arm.delivery_ratio
    );
    let traffic_ratio = standalone.relays_completed as f64 / arm.relays_completed.max(1) as f64;
    assert!(
        (0.8..1.25).contains(&traffic_ratio),
        "traffic agreement: standalone {} vs arm {}",
        standalone.relays_completed,
        arm.relays_completed
    );
}

#[test]
fn baseline_arm_with_no_adversaries_equals_plain_population() {
    // With zero selfish/malicious fractions the behavior models are all
    // honest — the ChitChat arm must be unaffected by behavior machinery.
    let s = scenario();
    let a = run_arm(&s, Arm::ChitChat, 5).summary;
    let mut s2 = scenario();
    s2.selfish_fraction = 0.0;
    s2.malicious_fraction = 0.0;
    let b = run_arm(&s2, Arm::ChitChat, 5).summary;
    assert_eq!(a, b);
}
