//! End-to-end simulation benchmarks: a small but complete scenario per
//! protocol arm, measuring whole-run wall-clock (the quantity that budgets
//! the figure sweeps).

use criterion::{criterion_group, criterion_main, Criterion};

use dtn_workloads::paper::reduced_scenario;
use dtn_workloads::runner::{run, RunOpts};
use dtn_workloads::scenario::{Arm, Scenario};
use dtn_workloads::sweep::Cell;

fn small() -> Scenario {
    let mut s = reduced_scenario();
    s.nodes = 30;
    s.area_km2 = 0.3;
    s.duration_secs = 900.0;
    s.message_interval_secs = 30.0;
    s.message_ttl_secs = 600.0;
    s.selfish_fraction = 0.2;
    s.malicious_fraction = 0.1;
    s.named("bench-small")
}

fn bench_small_runs(c: &mut Criterion) {
    let scenario = small();
    let mut group = c.benchmark_group("end_to_end_30_nodes_15min");
    group.sample_size(10);
    for (name, arm) in [
        ("incentive_arm", Arm::Incentive),
        ("chitchat_arm", Arm::ChitChat),
    ] {
        let cell = Cell::arm(scenario.clone(), arm, 7);
        group.bench_function(name, |b| {
            b.iter(|| run(&cell, RunOpts::default()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_small_runs);
criterion_main!(benches);
