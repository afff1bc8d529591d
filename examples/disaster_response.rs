//! Disaster-response scenario — reputation under adversarial tagging.
//!
//! After an earthquake, field teams share photos of damage and survivors.
//! A handful of nodes are malicious: they tag passing photos with
//! fabricated keywords ("survivors here") to farm incentive tokens from
//! teams who pay for exactly that information. The distributed reputation
//! model identifies them from rated receptions and gossip, and the award
//! scaling starves them of the profit.
//!
//! ```text
//! cargo run --release -p dtn-examples --bin disaster_response
//! ```

use dtn_core::prelude::*;
use dtn_sim::prelude::*;
use dtn_workloads::prelude::*;

fn main() {
    // A reduced Table 5.1 world with 20% malicious taggers.
    let mut scenario = reduced_scenario();
    scenario.nodes = 60;
    scenario.area_km2 = 0.6;
    scenario.duration_secs = 5400.0;
    scenario.malicious_fraction = 0.2;
    scenario.protocol.rating_prob = 0.4;
    let scenario = scenario.named("disaster-response");

    let mut sim = build_simulation_opts(&scenario, Arm::Incentive, 2024, None, None, false);
    let summary = sim.run_until(SimTime::from_secs(scenario.duration_secs));
    let (router, _) = sim.finish();

    println!(
        "disaster response: {} responders ({} malicious), {:.0} simulated minutes",
        scenario.nodes,
        router.malicious_nodes().len(),
        scenario.duration_secs / 60.0
    );
    println!("  delivery ratio            {:.3}", summary.delivery_ratio);
    println!(
        "  fabricated tags injected  {}",
        router.stats().irrelevant_tags_added
    );
    println!(
        "  honest enrichment tags    {}",
        router.stats().relevant_tags_added
    );

    // How the network sees the liars vs honest responders.
    let malicious = router.malicious_nodes();
    let honest = router.honest_nodes();
    println!(
        "  avg rating of malicious   {:.2}/5.0 (started at neutral 2.50)",
        router.malicious_average_rating()
    );
    let honest_avg = {
        let observers = &honest;
        let mut sum = 0.0;
        let mut n = 0u32;
        for &obs in observers {
            for &subj in observers {
                if obs != subj && router.reputation(obs).knows(subj) {
                    sum += router.reputation(obs).rating_of(subj);
                    n += 1;
                }
            }
        }
        if n == 0 {
            f64::NAN
        } else {
            sum / f64::from(n)
        }
    };
    println!("  avg rating of honest      {honest_avg:.2}/5.0");

    // The economics of lying: fabricators should hold fewer tokens than
    // honest responders on average, because their awards are scaled down.
    let mean_balance = |set: &[NodeId]| {
        set.iter()
            .map(|&n| router.ledger().balance(n).amount())
            .sum::<f64>()
            / set.len().max(1) as f64
    };
    println!(
        "  mean tokens: malicious {:.1} vs honest {:.1} (endowment {})",
        mean_balance(&malicious),
        mean_balance(&honest),
        scenario.protocol.incentive.initial_tokens
    );
    println!(
        "  reputation series sampled {} times over the run",
        summary
            .series
            .get(MALICIOUS_RATING_SERIES)
            .map_or(0, Vec::len)
    );
}
