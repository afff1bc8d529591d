//! Adversarial scenarios against the distributed reputation model: smear
//! campaigns, false praise, collusion and whitewashing. These pin down
//! what the mechanism defends against (and document what it does not —
//! the thesis cites whitewashing as handled only by related work [10]).

use dtn_core::strategy::{StrategyKind, StrategyMix};
use dtn_reputation::prelude::*;
use dtn_sim::prelude::*;
use dtn_workloads::prelude::*;

/// α > 0.5 means first-hand experience survives a sustained smear: after
/// `k` hostile reports the rating retains `α^k` of its distance to the
/// smear value, and a single fresh first-hand rating restores the mean of
/// first-hand evidence.
#[test]
fn smear_campaign_cannot_erase_first_hand_trust() {
    let params = RatingParams::paper_default();
    let mut table = ReputationTable::new(NodeId(0), params);
    for _ in 0..5 {
        table.record_message_rating(NodeId(1), 5.0);
    }
    assert_eq!(table.rating_of(NodeId(1)), 5.0);
    // Three colluders each push a 0-rating once per contact, 3 contacts.
    for _ in 0..9 {
        table.merge_reported_rating(NodeId(1), 0.0);
    }
    let after_smear = table.rating_of(NodeId(1));
    assert!(
        after_smear > 0.0,
        "smear converges geometrically, never hard zero: {after_smear}"
    );
    // One more good first-hand interaction recomputes the first-hand mean.
    let restored = table.record_message_rating(NodeId(1), 5.0);
    assert_eq!(
        restored, 5.0,
        "first-hand history fully restores the rating"
    );
}

/// False praise (documented weakness + recovery): the case-2 merge rule
/// `r ← (1−α)·reported + α·r` moves `(1−α)` = 40% of the gap per report,
/// so a *single* max-praise vouch lifts a floor-rated liar from 0.2 to
/// 2.12 — back above the avoidance threshold. The paper's rule is that
/// permissive; what contains the damage is first-hand re-detection: the
/// unblocked liar gets caught again on the next rated reception, and the
/// durable first-hand mean snaps the rating back to the floor.
#[test]
fn false_praise_unblocks_but_first_hand_evidence_reconvicts() {
    let params = RatingParams::paper_default();
    let mut table = ReputationTable::new(NodeId(0), params);
    for _ in 0..5 {
        table.record_message_rating(NodeId(1), 0.2);
    }
    assert!(table.rating_of(NodeId(1)) < 1.0, "caught and blocked");
    // One colluder vouch per the paper's formula: 0.4·5 + 0.6·0.2 = 2.12.
    let after_one_vouch = table.merge_reported_rating(NodeId(1), 5.0);
    assert!(
        (after_one_vouch - 2.12).abs() < 1e-9,
        "a single vouch re-opens the door: {after_one_vouch}"
    );
    // ...but the next first-hand catch restores the first-hand mean, which
    // five bad messages have pinned near the floor.
    let reconvicted = table.record_message_rating(NodeId(1), 0.2);
    assert!(
        reconvicted < 1.0,
        "one more rated reception re-blocks the liar: {reconvicted}"
    );
}

/// A self-praising digest entry is discarded outright.
#[test]
fn self_praise_in_gossip_is_ignored() {
    let params = RatingParams::paper_default();
    let mut honest = ReputationTable::new(NodeId(0), params);
    let digest = GossipDigest {
        ratings: vec![(NodeId(7), 5.0)],
        sequence: 0,
    };
    honest.absorb_digest(NodeId(7), &digest);
    assert!(!honest.knows(NodeId(7)));
    assert_eq!(honest.rating_of(NodeId(7)), params.neutral_rating);
}

/// End-to-end: honest nodes keep paying each other normally while the
/// malicious subpopulation is progressively cut off — the avoidance rule
/// shrinks the liars' relaying income to (near) nothing.
#[test]
fn colluding_taggers_get_economically_isolated() {
    let mut s = reduced_scenario();
    s.nodes = 30;
    s.area_km2 = 0.3;
    s.duration_secs = 2700.0;
    s.malicious_fraction = 0.2;
    s.protocol.rating_prob = 0.5;
    let s = s.named("collusion");
    let mut sim = build_simulation_opts(&s, Arm::Incentive, 17, None, None, false);
    let _ = sim.run_until(SimTime::from_secs(s.duration_secs));
    let (router, _) = sim.finish();

    let mean_balance = |nodes: &[NodeId]| {
        nodes
            .iter()
            .map(|&n| router.ledger().balance(n).amount())
            .sum::<f64>()
            / nodes.len().max(1) as f64
    };
    let malicious = router.malicious_nodes();
    let honest = router.honest_nodes();
    assert!(!malicious.is_empty() && !honest.is_empty());
    assert!(
        mean_balance(&honest) > mean_balance(&malicious),
        "honest nodes out-earn the liars: {} vs {}",
        mean_balance(&honest),
        mean_balance(&malicious)
    );
    assert!(
        router.stats().refused_distrusted_sender > 0,
        "the avoidance rule actually fired"
    );
    assert!(
        router.malicious_average_rating() < s.protocol.rating.neutral_rating,
        "liars sit below neutral"
    );
}

/// Whitewashing (documented limitation): the DRM keys reputation to the
/// node identity, so a "fresh" identity starts back at the neutral prior.
/// The paper does not defend against re-registration (its related work
/// [10] does); this test pins the behavior so the limitation is explicit.
#[test]
fn whitewashing_limitation_fresh_identity_starts_neutral() {
    let params = RatingParams::paper_default();
    let mut observer = ReputationTable::new(NodeId(0), params);
    // Node 1 is caught and rated to the floor.
    for _ in 0..5 {
        observer.record_message_rating(NodeId(1), 0.0);
    }
    assert_eq!(observer.rating_of(NodeId(1)), 0.0);
    // The same adversary "re-registers" as node 2: a clean slate.
    assert_eq!(observer.rating_of(NodeId(2)), params.neutral_rating);
    assert!(!observer.knows(NodeId(2)));
}

/// A 30-node, 45-minute scenario dense enough for the strategic-node
/// machinery to engage, with the given population mix.
fn strategy_scenario(name: &str, mix: StrategyMix) -> Scenario {
    let mut s = reduced_scenario();
    s.nodes = 30;
    s.area_km2 = 0.3;
    s.duration_secs = 2700.0;
    s.protocol.rating_prob = 0.5;
    s.strategies = Some(mix);
    s.named(name)
}

/// Economically rational free-riders accept custody and silently drop.
/// The watchdog is the only component that can see the drop: with the
/// defense armed, senders accumulate unconfirmed hand-offs and start
/// refusing the droppers custody.
#[test]
fn free_riders_are_caught_by_the_watchdog_and_refused_custody() {
    let mix = StrategyMix {
        free_rider_fraction: 0.3,
        defense: true,
        ..StrategyMix::default()
    };
    let s = strategy_scenario("free-riders", mix);
    let mut sim = build_simulation_opts(&s, Arm::Incentive, 17, None, None, false);
    let _ = sim.run_until(SimTime::from_secs(s.duration_secs));
    let (router, _) = sim.finish();
    let stats = router.stats();
    assert!(
        stats.strategy_drops > 0,
        "free riders actually drop custody"
    );
    assert!(
        stats.refused_suspected_dropper > 0,
        "the watchdog custody gate fired"
    );
    let riders: Vec<NodeId> = (0..s.nodes as u32)
        .map(NodeId)
        .filter(|&n| router.strategy(n) == Some(StrategyKind::FreeRider))
        .collect();
    assert_eq!(riders.len(), 9, "0.3 × 30 nodes free-ride");
    let pinned = (0..s.nodes as u32).map(NodeId).any(|observer| {
        router
            .watchdog(observer)
            .is_some_and(|w| riders.iter().any(|&r| w.is_suspicious(r, 0.3, 5)))
    });
    assert!(pinned, "at least one watchdog pinned a dropper");
}

/// Minority-game players open their radio only while the expected token
/// yield beats the energy cost: with an unaffordable cost the players go
/// dark after the probe phase and the network moves fewer messages.
#[test]
fn minority_game_players_shut_their_radio_when_yield_trails_cost() {
    let mix = StrategyMix {
        minority_fraction: 0.4,
        minority_energy_cost: 1000.0,
        ..StrategyMix::default()
    };
    let s = strategy_scenario("minority", mix);
    let mut honest = s.clone();
    honest.strategies = None;
    let run = |scenario: &Scenario| {
        let mut sim = build_simulation_opts(scenario, Arm::Incentive, 17, None, None, false);
        let _ = sim.run_until(SimTime::from_secs(scenario.duration_secs));
        sim.finish()
    };
    let (router, strategic) = run(&s);
    let (_, baseline) = run(&honest);
    let players = (0..s.nodes as u32)
        .map(NodeId)
        .filter(|&n| matches!(router.strategy(n), Some(StrategyKind::MinorityGame { .. })))
        .count();
    assert_eq!(players, 12, "0.4 × 30 nodes play the minority game");
    assert!(
        strategic.relays_completed < baseline.relays_completed,
        "dark radios move fewer messages: {} vs {}",
        strategic.relays_completed,
        baseline.relays_completed
    );
}

/// Colluding tag farmers rate ring mates to the ceiling and outsiders to
/// the floor, so the ring's mutual opinion decouples from the honest
/// population's first-hand experience of the farmers' junk tags.
#[test]
fn tag_farmers_inflate_ring_mates_above_the_honest_view() {
    let mix = StrategyMix {
        farmer_fraction: 0.2,
        ..StrategyMix::default()
    };
    let s = strategy_scenario("farmers", mix);
    let mut sim = build_simulation_opts(&s, Arm::Incentive, 17, None, None, false);
    let _ = sim.run_until(SimTime::from_secs(s.duration_secs));
    let (router, _) = sim.finish();
    let farmers: Vec<NodeId> = (0..s.nodes as u32)
        .map(NodeId)
        .filter(|&n| matches!(router.strategy(n), Some(StrategyKind::TagFarmer { .. })))
        .collect();
    assert_eq!(farmers.len(), 6, "0.2 × 30 nodes farm tags");
    let mean = |observers: &[NodeId], subjects: &[NodeId]| {
        let mut sum = 0.0;
        let mut n = 0u32;
        for &o in observers {
            for &subj in subjects {
                if o != subj {
                    sum += router.reputation(o).rating_of(subj);
                    n += 1;
                }
            }
        }
        sum / f64::from(n.max(1))
    };
    let honest: Vec<NodeId> = (0..s.nodes as u32)
        .map(NodeId)
        .filter(|n| !farmers.contains(n))
        .collect();
    let ring_view = mean(&farmers, &farmers);
    let honest_view = mean(&honest, &farmers);
    assert!(
        ring_view > honest_view,
        "the ring vouches for itself: ring {ring_view:.2} vs honest {honest_view:.2}"
    );
}

/// Whitewashers shed a below-neutral identity by churning: every table
/// and watchdog forgets them and they restart from the neutral prior.
#[test]
fn whitewashers_churn_their_bad_identity() {
    let mix = StrategyMix {
        whitewash_fraction: 0.2,
        churn_interval_secs: 600.0,
        ..StrategyMix::default()
    };
    let s = strategy_scenario("whitewash", mix);
    let mut sim = build_simulation_opts(&s, Arm::Incentive, 17, None, None, false);
    let _ = sim.run_until(SimTime::from_secs(s.duration_secs));
    let (router, _) = sim.finish();
    assert!(
        router.stats().whitewash_churns > 0,
        "at least one identity churn fired"
    );
}

/// Sequenced digests are replay-protected per issuer; legacy unsequenced
/// digests (sequence 0) keep the paper's always-merge behavior.
#[test]
fn sequenced_digests_reject_replays_but_legacy_digests_pass() {
    let params = RatingParams::paper_default();
    let mut issuer = ReputationTable::new(NodeId(1), params);
    issuer.record_message_rating(NodeId(2), 4.0);
    let mut observer = ReputationTable::new(NodeId(0), params);
    let digest = issuer.issue_digest();
    assert!(observer.absorb_digest_weighted(NodeId(1), &digest, 1.0));
    assert!(
        !observer.absorb_digest_weighted(NodeId(1), &digest, 1.0),
        "an identical re-send is a replay"
    );
    let fresh = issuer.issue_digest();
    assert!(
        observer.absorb_digest_weighted(NodeId(1), &fresh, 1.0),
        "the next sequence is accepted"
    );
    let legacy = GossipDigest {
        ratings: vec![(NodeId(2), 4.0)],
        sequence: 0,
    };
    assert!(observer.absorb_digest_weighted(NodeId(1), &legacy, 1.0));
    assert!(
        observer.absorb_digest_weighted(NodeId(1), &legacy, 1.0),
        "unsequenced digests always merge (paper behavior)"
    );
}

/// Strategy runs replay exactly: identical (scenario, seed) pairs produce
/// identical economics, drop counts and delivery.
#[test]
fn strategy_runs_are_deterministic() {
    let mix = StrategyMix {
        free_rider_fraction: 0.2,
        farmer_fraction: 0.1,
        whitewash_fraction: 0.1,
        churn_interval_secs: 600.0,
        defense: true,
        ..StrategyMix::default()
    };
    let s = strategy_scenario("determinism", mix);
    let run = |seed| {
        let mut sim = build_simulation_opts(&s, Arm::Incentive, seed, None, None, false);
        let _ = sim.run_until(SimTime::from_secs(s.duration_secs));
        let (router, summary) = sim.finish();
        (
            router.stats(),
            router.attacker_tokens(),
            summary.delivery_ratio,
        )
    };
    let (stats_a, tokens_a, mdr_a) = run(23);
    let (stats_b, tokens_b, mdr_b) = run(23);
    assert_eq!(stats_a.strategy_drops, stats_b.strategy_drops);
    assert_eq!(stats_a.whitewash_churns, stats_b.whitewash_churns);
    assert_eq!(
        stats_a.refused_suspected_dropper,
        stats_b.refused_suspected_dropper
    );
    assert_eq!(stats_a.settlements, stats_b.settlements);
    assert_eq!(tokens_a, tokens_b);
    assert_eq!(mdr_a, mdr_b);
    assert!(stats_a.strategy_drops > 0, "the mix actually engaged");
}

/// Selfish free-riding is punished even without the DRM: with the DRM off
/// entirely, the token economy alone still starves pure consumers.
#[test]
fn token_economy_alone_punishes_free_riders() {
    let mut s = reduced_scenario();
    s.nodes = 24;
    s.area_km2 = 0.24;
    s.duration_secs = 1800.0;
    s.message_interval_secs = 20.0;
    s.protocol.incentive.initial_tokens = 15.0;
    s.protocol.drm_enabled = false;
    s.protocol.enrichment_enabled = false;
    s.selfish_fraction = 0.3;
    let s = s.named("no-drm-free-riders");
    let mut sim = build_simulation_opts(&s, Arm::Incentive, 4, None, None, false);
    let _ = sim.run_until(SimTime::from_secs(s.duration_secs));
    let (router, _) = sim.finish();
    assert!(
        router.stats().refused_broke_destination > 0,
        "free riders hit the token wall without any reputation machinery"
    );
    assert_eq!(
        router.stats().refused_distrusted_sender,
        0,
        "DRM really off"
    );
}
