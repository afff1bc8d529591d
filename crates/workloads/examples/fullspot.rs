//! Half-of-Table-5.1 spot check: 250 nodes / 2.5 km² / 12 h / 200 tokens —
//! the paper's density and token economics at half its extent, bridging
//! the reduced scale and the full `--full` configuration.
fn main() {
    use dtn_workloads::prelude::*;
    let t0 = std::time::Instant::now();
    for pct in [0u32, 40] {
        let mut s = table51_scenario();
        s.nodes = 250;
        s.area_km2 = 2.5;
        s.duration_secs = 12.0 * 3600.0;
        s.selfish_fraction = f64::from(pct) / 100.0;
        let s = s.named(format!("half-table51-selfish-{pct}"));
        let arm_run = |arm| run(&Cell::arm(s.clone(), arm, 101), RunOpts::default()).run;
        let inc = arm_run(Arm::Incentive);
        let cc = arm_run(Arm::ChitChat);
        let red = 100.0
            * (cc.summary.relays_completed as f64 - inc.summary.relays_completed as f64)
            / cc.summary.relays_completed.max(1) as f64;
        println!(
            "HALF selfish {pct}%: MDR inc {:.3} cc {:.3} | relays inc {} cc {} | reduction {:+.1}% | broke {} | elapsed {:?}",
            inc.summary.delivery_ratio,
            cc.summary.delivery_ratio,
            inc.summary.relays_completed,
            cc.summary.relays_completed,
            red,
            inc.broke_nodes,
            t0.elapsed()
        );
    }
}
