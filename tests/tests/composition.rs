//! Composition tests across extension modules: the watchdog feeding the
//! DRM, result serialization, and summary aggregation edge cases.

use dtn_integration_tests::run_arm;
use dtn_reputation::prelude::*;
use dtn_sim::message::MessageId;
use dtn_sim::stats::RunSummary;
use dtn_sim::world::NodeId;
use dtn_workloads::prelude::*;

/// The watchdog's behavioral evidence composes with the content-based DRM
/// through the case-2 merge: a silent dropper that the content ratings
/// cannot see (it never delivers anything to be rated) still ends up below
/// the avoidance threshold once watchdog projections are merged in.
#[test]
fn watchdog_evidence_flows_into_the_drm() {
    let params = RatingParams::paper_default();
    let mut table = ReputationTable::new(NodeId(0), params);
    let mut dog = Watchdog::new();

    // Twenty hand-offs to node 7, nothing ever confirmed.
    for m in 0..20u64 {
        dog.record_handoff(NodeId(7), MessageId(m));
    }
    assert!(dog.is_suspicious(NodeId(7), 0.3, 10));
    assert_eq!(
        table.rating_of(NodeId(7)),
        params.neutral_rating,
        "content DRM alone is blind to silent dropping"
    );

    // Merge the watchdog's projection periodically (as a protocol would).
    for _ in 0..6 {
        let projected = dog.as_rating(NodeId(7), params.max_rating);
        table.merge_reported_rating(NodeId(7), projected);
    }
    assert!(
        table.rating_of(NodeId(7)) < 1.0,
        "dropper sinks below the avoidance threshold: {}",
        table.rating_of(NodeId(7))
    );
}

/// Run summaries serialize losslessly — the contract the CLI's `--json`
/// output and any downstream analysis pipeline rely on.
#[test]
fn run_summary_json_round_trip() {
    let mut s = reduced_scenario();
    s.nodes = 12;
    s.area_km2 = 0.12;
    s.duration_secs = 600.0;
    s.message_ttl_secs = 500.0;
    let run = run_arm(&s.named("serde"), Arm::Incentive, 3);
    let json = serde_json::to_string(&run.summary).expect("serialize");
    let back: RunSummary = serde_json::from_str(&json).expect("deserialize");
    // Integer fields round-trip exactly; float fields to within 1 ULP of
    // the JSON decimal representation.
    assert_eq!(run.summary.created, back.created);
    assert_eq!(run.summary.delivered_pairs, back.delivered_pairs);
    assert_eq!(run.summary.relays_completed, back.relays_completed);
    assert_eq!(run.summary.relay_bytes, back.relay_bytes);
    assert!((run.summary.delivery_ratio - back.delivery_ratio).abs() < 1e-12);
    assert!((run.summary.mean_latency_secs - back.mean_latency_secs).abs() < 1e-9);
    assert_eq!(
        run.summary.delivery_ratio_by_priority.len(),
        back.delivery_ratio_by_priority.len()
    );
    assert_eq!(run.summary.series.len(), back.series.len());
}

/// `RunSummary::mean_of` with misaligned series resamples onto the
/// common time range by linear interpolation rather than corrupting the
/// average (or silently dropping all but the first run).
#[test]
fn mean_of_with_misaligned_series_resamples() {
    use dtn_sim::message::Priority;
    use dtn_sim::stats::StatsCollector;
    use dtn_sim::time::SimTime;

    let mut a = StatsCollector::new();
    a.record_created(MessageId(1), Priority::High, [NodeId(1)]);
    a.push_sample("s", SimTime::from_secs(10.0), 1.0);
    a.push_sample("s", SimTime::from_secs(20.0), 2.0);
    let mut b = StatsCollector::new();
    b.record_created(MessageId(1), Priority::High, [NodeId(1)]);
    b.push_sample("s", SimTime::from_secs(15.0), 9.0); // different cadence
    let mean = RunSummary::mean_of(&[a.summarize(), b.summarize()]);
    // Common range is the single instant t=15, where a interpolates to
    // 1.5 and b sits at 9.0; the mean is their average.
    let s = &mean.series["s"];
    assert_eq!(s.len(), 1);
    assert_eq!(s[0].0, 15.0);
    assert!((s[0].1 - 5.25).abs() < 1e-12, "got {}", s[0].1);
}

/// A one-node world is degenerate but legal: no contacts, no deliveries,
/// no panics.
#[test]
fn single_node_world_is_inert() {
    let mut s = reduced_scenario();
    s.nodes = 1;
    s.area_km2 = 0.01;
    s.duration_secs = 300.0;
    s.message_ttl_secs = 200.0;
    let run = run_arm(&s.named("lonely"), Arm::Incentive, 1);
    assert_eq!(run.summary.relays_completed, 0);
    assert_eq!(run.summary.delivered_pairs, 0);
    assert!(run.summary.created > 0, "the hermit still takes photos");
}

/// Scenario templates produced by the CLI run under both arms unchanged —
/// the full user journey `template → run` holds together.
#[test]
fn cli_template_is_runnable() {
    let json = dtn_cli::template_json();
    let mut scenario: Scenario = serde_json::from_str(&json).expect("template parses");
    // Shrink the template so the test is quick; the *structure* is what
    // came from the CLI.
    scenario.nodes = 15;
    scenario.area_km2 = 0.15;
    scenario.duration_secs = 600.0;
    scenario.message_ttl_secs = 500.0;
    for arm in Arm::BOTH {
        let run = run_arm(&scenario, arm, 2);
        assert!(run.summary.created > 0, "{arm:?}");
    }
}
