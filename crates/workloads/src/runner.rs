//! Building and running scenarios, one or many seeds at a time.

use dtn_core::behavior::NodeBehavior;
use dtn_core::params::ProtocolParams;
use dtn_core::protocol::{DcimRouter, ProtocolStats};
use dtn_routing::backend::{BackendKind, Overlay, RouterBackend};
use dtn_sim::geometry::Area;
use dtn_sim::kernel::{Simulation, SimulationBuilder};
use dtn_sim::metrics::{MetricsRegistry, PhaseTiming};
use dtn_sim::rng::SimRng;
use dtn_sim::stats::RunSummary;
use dtn_sim::time::SimTime;
use dtn_sim::world::NodeId;
use serde::{Deserialize, Serialize};

use crate::population::Population;
use crate::scenario::{Arm, Scenario};
use crate::traffic::generate_schedule;

/// The protocol configuration for one arm of a scenario.
///
/// The scenario's keyword pool is the single source of truth: whatever the
/// protocol struct carried, the effective configuration draws malicious
/// tags from the same pool the workload assigns interests from.
#[must_use]
pub fn protocol_for(scenario: &Scenario, arm: Arm) -> ProtocolParams {
    let base = ProtocolParams {
        keyword_pool_size: scenario.keyword_pool,
        ..scenario.protocol
    };
    match arm {
        Arm::Incentive => base,
        Arm::ChitChat => ProtocolParams {
            incentive_enabled: false,
            drm_enabled: false,
            enrichment_enabled: false,
            ..base
        },
    }
}

/// Builds a ready-to-run simulation for `scenario` under `arm` and `seed`.
///
/// Both arms of the same `(scenario, seed)` see the *identical* workload:
/// same mobility, same population (interests, behaviors, classes, roles)
/// and same message schedule — only the mechanism differs. That is what
/// makes the paper's pairwise comparisons (Figs. 5.1–5.6) meaningful.
///
/// # Panics
///
/// Panics if the scenario fails validation.
#[must_use]
pub fn build_simulation(scenario: &Scenario, arm: Arm, seed: u64) -> Simulation<DcimRouter> {
    build_simulation_traced(scenario, arm, seed, None)
}

/// [`build_simulation`] with an optional kernel event trace attached (see
/// [`dtn_sim::trace::TraceLog`]); used by the CLI's `--trace` flag and by
/// sequence-asserting tests.
///
/// # Panics
///
/// Panics if the scenario fails validation.
#[must_use]
pub fn build_simulation_traced(
    scenario: &Scenario,
    arm: Arm,
    seed: u64,
    trace: Option<dtn_sim::trace::TraceLog>,
) -> Simulation<DcimRouter> {
    build_simulation_checked(scenario, arm, seed, trace, None)
}

/// [`build_simulation_traced`] with an optional invariant-audit cadence:
/// when `check_every` is set, the kernel audits its own conservation
/// invariants and the router's (token conservation, rating bounds, offer
/// hygiene) every that-many steps, aborting with a replayable report on a
/// breach. The scenario's `chaos` plan, if any, is always wired in.
///
/// # Panics
///
/// Panics if the scenario fails validation.
#[must_use]
pub fn build_simulation_checked(
    scenario: &Scenario,
    arm: Arm,
    seed: u64,
    trace: Option<dtn_sim::trace::TraceLog>,
    check_every: Option<u64>,
) -> Simulation<DcimRouter> {
    build_simulation_opts(scenario, arm, seed, trace, check_every, false)
}

/// [`build_simulation_checked`] plus the wall-clock phase profiler
/// (`profile = true` enables per-phase timing and peak-buffer tracking;
/// results are unaffected either way).
///
/// # Panics
///
/// Panics if the scenario fails validation.
#[must_use]
pub fn build_simulation_opts(
    scenario: &Scenario,
    arm: Arm,
    seed: u64,
    trace: Option<dtn_sim::trace::TraceLog>,
    check_every: Option<u64>,
    profile: bool,
) -> Simulation<DcimRouter> {
    scenario.validate().expect("scenario must validate");
    let check_every = check_every.or(scenario.audit_every);
    let workload_rng = SimRng::new(seed);
    let population = Population::synthesize(scenario, &workload_rng);
    let schedule = generate_schedule(scenario, &population, &workload_rng);

    let mut router = DcimRouter::new(scenario.nodes, protocol_for(scenario, arm), seed);
    for i in 0..population.interests.len() {
        let node = NodeId(i as u32);
        router.subscribe(node, population.sorted_interests(node));
    }
    for (i, &behavior) in population.behaviors.iter().enumerate() {
        if behavior != NodeBehavior::Honest {
            router.set_behavior(NodeId(i as u32), behavior);
        }
    }
    for (i, &role) in population.roles.iter().enumerate() {
        router.set_role(NodeId(i as u32), role);
    }
    apply_strategies(&mut router, scenario, &population);

    // The mechanism evicts lowest-priority copies first under buffer
    // pressure; without it (plain ChitChat, or an ablation with the credit
    // system off) ONE's drop-oldest default applies. Derived from the
    // effective params rather than the arm label so ablations behave
    // consistently.
    let drop_policy = if protocol_for(scenario, arm).incentive_enabled {
        dtn_sim::buffer::DropPolicy::DropLowestPriority
    } else {
        dtn_sim::buffer::DropPolicy::DropOldest
    };
    let mut builder = SimulationBuilder::new(Area::square_km(scenario.area_km2), seed)
        .radio(scenario.radio)
        .buffer_capacity(scenario.buffer_bytes)
        .drop_policy(drop_policy)
        .kernel_mode(scenario.effective_kernel_mode())
        .nodes(scenario.nodes, || scenario.mobility.instantiate());
    if let Some(j) = scenario.battery_joules {
        builder = builder.battery_joules(j);
    }
    if let Some(t) = trace {
        builder = builder.trace(t);
    }
    if let Some(plan) = scenario.chaos {
        builder = builder.faults(plan);
    }
    if let Some(policy) = scenario.recovery {
        builder = builder.recovery(policy);
    }
    if let Some(every) = check_every {
        builder = builder.check_invariants_every(every);
    }
    builder.profile(profile).messages(schedule).build(router)
}

/// Wires the population's strategy assignment (and the mix's defense flag)
/// into a router. A scenario without strategies touches nothing, so the
/// router stays on the byte-identical paper-default path.
fn apply_strategies<B: RouterBackend>(
    router: &mut DcimRouter<B>,
    scenario: &Scenario,
    population: &Population,
) {
    let Some(mix) = &scenario.strategies else {
        return;
    };
    for (i, &strategy) in population.strategies.iter().enumerate() {
        if strategy.is_some() {
            router.set_strategy(NodeId(i as u32), strategy);
        }
    }
    if mix.defense {
        router.set_strategy_defense(true);
    }
}

/// Builds the same world and workload as [`build_simulation`] but wires in
/// an arbitrary protocol constructed from the synthesized population —
/// used to compare third-party routers (Epidemic, PRoPHET, CEDO, …)
/// against the mechanism on identical workloads.
///
/// # Panics
///
/// Panics if the scenario fails validation.
#[must_use]
pub fn build_with_protocol<P, F>(scenario: &Scenario, seed: u64, make: F) -> Simulation<P>
where
    P: dtn_sim::protocol::Protocol,
    F: FnOnce(&Population, &[dtn_sim::kernel::ScheduledMessage]) -> P,
{
    scenario.validate().expect("scenario must validate");
    let workload_rng = SimRng::new(seed);
    let population = Population::synthesize(scenario, &workload_rng);
    let schedule = generate_schedule(scenario, &population, &workload_rng);
    let protocol = make(&population, &schedule);
    let mut builder = SimulationBuilder::new(Area::square_km(scenario.area_km2), seed)
        .radio(scenario.radio)
        .buffer_capacity(scenario.buffer_bytes)
        // Third-party routers are priority-blind, so they get ONE's
        // drop-oldest default *explicitly*: comparisons against the
        // mechanism must not silently inherit whatever default the kernel
        // builder happens to carry.
        .drop_policy(dtn_sim::buffer::DropPolicy::DropOldest)
        .kernel_mode(scenario.effective_kernel_mode())
        .nodes(scenario.nodes, || scenario.mobility.instantiate());
    if let Some(j) = scenario.battery_joules {
        builder = builder.battery_joules(j);
    }
    if let Some(plan) = scenario.chaos {
        builder = builder.faults(plan);
    }
    if let Some(policy) = scenario.recovery {
        builder = builder.recovery(policy);
    }
    builder.messages(schedule).build(protocol)
}

/// The incentive overlay over a dynamically chosen routing backend.
pub type BackendRouter = DcimRouter<Box<dyn RouterBackend>>;

/// The [`Arm`] a given overlay state corresponds to: the overlay axis *is*
/// the paper's arm split, generalized beyond ChitChat.
#[must_use]
pub fn arm_for(overlay: Overlay) -> Arm {
    match overlay {
        Overlay::On => Arm::Incentive,
        Overlay::Off => Arm::ChitChat,
    }
}

/// Builds the incentive overlay over an arbitrary routing backend on the
/// *identical* world and workload as [`build_simulation_checked`]: same
/// mobility, population (interests, behaviors, classes, roles), message
/// schedule, chaos plan, recovery policy and drop-policy rule. With
/// `BackendKind::ChitChat` this reproduces the corresponding `Arm` build
/// byte-for-byte — that equivalence is pinned by the conformance suite.
///
/// # Panics
///
/// Panics if the scenario fails validation.
#[must_use]
pub fn build_backend_simulation(
    scenario: &Scenario,
    kind: BackendKind,
    overlay: Overlay,
    seed: u64,
    check_every: Option<u64>,
) -> Simulation<BackendRouter> {
    scenario.validate().expect("scenario must validate");
    let check_every = check_every.or(scenario.audit_every);
    let workload_rng = SimRng::new(seed);
    let population = Population::synthesize(scenario, &workload_rng);
    let schedule = generate_schedule(scenario, &population, &workload_rng);

    let params = protocol_for(scenario, arm_for(overlay));
    let backend = kind.instantiate(scenario.nodes, &params.chitchat);
    let mut router = DcimRouter::with_backend(backend, params, seed);
    for i in 0..population.interests.len() {
        let node = NodeId(i as u32);
        router.subscribe(node, population.sorted_interests(node));
    }
    for (i, &behavior) in population.behaviors.iter().enumerate() {
        if behavior != NodeBehavior::Honest {
            router.set_behavior(NodeId(i as u32), behavior);
        }
    }
    for (i, &role) in population.roles.iter().enumerate() {
        router.set_role(NodeId(i as u32), role);
    }
    apply_strategies(&mut router, scenario, &population);

    let drop_policy = if params.incentive_enabled {
        dtn_sim::buffer::DropPolicy::DropLowestPriority
    } else {
        dtn_sim::buffer::DropPolicy::DropOldest
    };
    let mut builder = SimulationBuilder::new(Area::square_km(scenario.area_km2), seed)
        .radio(scenario.radio)
        .buffer_capacity(scenario.buffer_bytes)
        .drop_policy(drop_policy)
        .kernel_mode(scenario.effective_kernel_mode())
        .nodes(scenario.nodes, || scenario.mobility.instantiate());
    if let Some(j) = scenario.battery_joules {
        builder = builder.battery_joules(j);
    }
    if let Some(plan) = scenario.chaos {
        builder = builder.faults(plan);
    }
    if let Some(policy) = scenario.recovery {
        builder = builder.recovery(policy);
    }
    if let Some(every) = check_every {
        builder = builder.check_invariants_every(every);
    }
    builder.messages(schedule).build(router)
}

/// Runs one `(scenario, backend, overlay, seed)` cell to completion.
#[must_use]
pub fn run_backend(scenario: &Scenario, kind: BackendKind, overlay: Overlay, seed: u64) -> ArmRun {
    run_backend_checked(scenario, kind, overlay, seed, None)
}

/// [`run_backend`] with an optional invariant-audit cadence: the same
/// token-conservation, rating-bound and no-double-pay audits the paper
/// arms run under apply to every backend × overlay combination.
#[must_use]
pub fn run_backend_checked(
    scenario: &Scenario,
    kind: BackendKind,
    overlay: Overlay,
    seed: u64,
    check_every: Option<u64>,
) -> ArmRun {
    let mut sim = build_backend_simulation(scenario, kind, overlay, seed, check_every);
    let _ = sim.run_until(SimTime::from_secs(scenario.duration_secs));
    let (router, summary) = sim.finish();
    ArmRun {
        summary,
        broke_nodes: router.ledger().broke_nodes().len(),
        attacker_tokens: router.attacker_tokens(),
        protocol: router.stats(),
    }
}

/// The result of one arm under one seed.
#[derive(Debug, Clone)]
pub struct ArmRun {
    /// Kernel-level statistics.
    pub summary: RunSummary,
    /// Mechanism-level counters.
    pub protocol: ProtocolStats,
    /// Nodes that ended the run with zero tokens.
    pub broke_nodes: usize,
    /// Tokens held by strategy-playing nodes at the end of the run
    /// (`0.0` in every strategy-free scenario).
    pub attacker_tokens: f64,
}

/// Runs one `(scenario, arm, seed)` to completion.
#[must_use]
pub fn run_once(scenario: &Scenario, arm: Arm, seed: u64) -> ArmRun {
    run_once_traced(scenario, arm, seed, None).0
}

/// [`run_once`] with an optional kernel event trace: when `trace_capacity`
/// is set, the run records up to that many events and returns their
/// rendered text alongside the results (the CLI's `--trace` flag).
#[must_use]
pub fn run_once_traced(
    scenario: &Scenario,
    arm: Arm,
    seed: u64,
    trace_capacity: Option<usize>,
) -> (ArmRun, Option<String>) {
    run_once_checked(scenario, arm, seed, trace_capacity, None)
}

/// [`run_once_traced`] with an optional invariant-audit cadence (see
/// [`build_simulation_checked`]). A breach panics with the seed, the chaos
/// spec and a trace excerpt — everything needed for a one-command replay.
#[must_use]
pub fn run_once_checked(
    scenario: &Scenario,
    arm: Arm,
    seed: u64,
    trace_capacity: Option<usize>,
    check_every: Option<u64>,
) -> (ArmRun, Option<String>) {
    let (run, rendered, _) =
        run_once_observed(scenario, arm, seed, trace_capacity, check_every, false);
    (run, rendered)
}

/// The fully instrumented single run: optional trace, optional invariant
/// audit, optional wall-clock profiling (see [`PerfReport`]) — the CLI's
/// `run` command with all flags. Profiling changes no simulation outcome.
#[must_use]
pub fn run_once_observed(
    scenario: &Scenario,
    arm: Arm,
    seed: u64,
    trace_capacity: Option<usize>,
    check_every: Option<u64>,
    profile: bool,
) -> (ArmRun, Option<String>, Option<PerfReport>) {
    let trace = trace_capacity.map(dtn_sim::trace::TraceLog::bounded);
    let mut sim = build_simulation_opts(scenario, arm, seed, trace, check_every, profile);
    let t0 = std::time::Instant::now();
    let _ = sim.run_until(SimTime::from_secs(scenario.duration_secs));
    let perf = profile.then(|| PerfReport::capture(&sim, t0.elapsed().as_secs_f64()));
    let rendered = trace_capacity.map(|_| sim.api().trace().render());
    let (router, summary) = sim.finish();
    (
        ArmRun {
            summary,
            broke_nodes: router.ledger().broke_nodes().len(),
            attacker_tokens: router.attacker_tokens(),
            protocol: router.stats(),
        },
        rendered,
        perf,
    )
}

/// Wall-clock performance report for one or more runs: the observability
/// record every later perf PR diffs against. Produced by the perf-enabled
/// run variants ([`run_once_perf`], [`run_seeds_perf`],
/// [`compare_arms_perf`]) and serialized by the CLI's `--metrics-out` and
/// `dtn-bench`'s `perf` binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Number of `(arm, seed)` runs folded into this report.
    pub runs: u64,
    /// Total wall-clock seconds spent simulating.
    pub wall_secs: f64,
    /// Total simulated seconds.
    pub sim_secs: f64,
    /// Speedup over real time: simulated seconds per wall-clock second.
    pub sim_secs_per_sec: f64,
    /// Kernel steps executed.
    pub steps: u64,
    /// Kernel events processed (contacts, creations, transfers, expiries).
    pub events: u64,
    /// Kernel events per wall-clock second — the headline throughput.
    pub events_per_sec: f64,
    /// Peak total buffered bytes across all nodes (max over runs).
    pub peak_buffer_bytes: u64,
    /// Per-phase wall-clock totals in kernel execution order.
    pub phases: Vec<PhaseTiming>,
    /// The full metrics registry (counters, gauges, step-time histogram).
    pub metrics: MetricsRegistry,
}

impl PerfReport {
    /// Captures a finished simulation's counters and phase timings,
    /// attributing `wall_secs` of measured wall-clock to it.
    #[must_use]
    pub fn capture<P: dtn_sim::protocol::Protocol>(
        sim: &Simulation<P>,
        wall_secs: f64,
    ) -> PerfReport {
        let counters = *sim.api().counters();
        let sim_secs = sim.api().now().as_secs();
        let wall = wall_secs.max(1e-12);
        PerfReport {
            runs: 1,
            wall_secs,
            sim_secs,
            sim_secs_per_sec: sim_secs / wall,
            steps: counters.steps,
            events: counters.events(),
            events_per_sec: counters.events() as f64 / wall,
            peak_buffer_bytes: counters.peak_buffer_bytes,
            phases: sim.profiler().timings(),
            metrics: sim.export_metrics(),
        }
    }

    /// Folds another report into this one: wall-clock, steps and events
    /// sum; rates are re-derived; the buffer peak keeps the maximum;
    /// phases merge by label.
    pub fn merge(&mut self, other: &PerfReport) {
        self.runs += other.runs;
        self.wall_secs += other.wall_secs;
        self.sim_secs += other.sim_secs;
        self.steps += other.steps;
        self.events += other.events;
        self.peak_buffer_bytes = self.peak_buffer_bytes.max(other.peak_buffer_bytes);
        let wall = self.wall_secs.max(1e-12);
        self.sim_secs_per_sec = self.sim_secs / wall;
        self.events_per_sec = self.events as f64 / wall;
        for theirs in &other.phases {
            if let Some(mine) = self.phases.iter_mut().find(|p| p.phase == theirs.phase) {
                mine.secs += theirs.secs;
                mine.calls += theirs.calls;
            } else {
                self.phases.push(theirs.clone());
            }
        }
        self.metrics.merge(&other.metrics);
    }

    /// A human-readable performance summary with the per-phase wall-clock
    /// table (the CLI's `--verbose` output).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf: {} run(s), {:.2} s wall · {:.0}× real time · {:.0} events/s · peak buffers {:.1} MB",
            self.runs,
            self.wall_secs,
            self.sim_secs_per_sec,
            self.events_per_sec,
            self.peak_buffer_bytes as f64 / 1e6
        );
        let c = |name: &str| self.metrics.counter(name);
        let _ = writeln!(
            out,
            "  transfers: {} completed · {} aborted (contact {} / source {} / cancelled {} / injected {})",
            c("kernel.transfers_completed"),
            c("kernel.transfers_aborted"),
            c("kernel.transfers_aborted_contact"),
            c("kernel.transfers_aborted_source"),
            c("kernel.transfers_aborted_cancelled"),
            c("kernel.transfers_aborted_injected"),
        );
        let _ = writeln!(
            out,
            "  recovery: {} retried · {} resumed · {} abandoned",
            c("kernel.transfers_retried"),
            c("kernel.transfers_resumed"),
            c("kernel.transfers_abandoned"),
        );
        let total: f64 = self.phases.iter().map(|p| p.secs).sum();
        let total = total.max(1e-12);
        let _ = writeln!(out, "  phase              wall (s)    share");
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  {:<18} {:>8.3}   {:>5.1}%",
                p.phase,
                p.secs,
                100.0 * p.secs / total
            );
        }
        out
    }
}

/// [`run_once`] with the phase profiler enabled, returning the run's
/// [`PerfReport`] alongside the results. The simulation outcome is
/// identical to an unprofiled run of the same `(scenario, arm, seed)`.
#[must_use]
pub fn run_once_perf(scenario: &Scenario, arm: Arm, seed: u64) -> (ArmRun, PerfReport) {
    let (run, _, perf) = run_once_observed(scenario, arm, seed, None, None, true);
    (run, perf.expect("profiling was enabled"))
}

/// The worker-thread cap for multi-seed runs: the machine's available
/// parallelism (at least 1). Unbounded one-thread-per-seed spawning
/// oversubscribes small machines at `--full` paper scale and skews every
/// wall-clock metric this module reports.
#[must_use]
pub fn seed_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs one arm over several seeds — through the [`crate::sweep`]
/// executor's shared worker-pool queue — and averages the summaries.
/// Results are order-stable and identical to a sequential run of the same
/// seeds (each seed's simulation is deterministic and shares no state).
///
/// # Panics
///
/// Panics if `seeds` is empty or a worker thread panics.
#[must_use]
pub fn run_seeds(scenario: &Scenario, arm: Arm, seeds: &[u64]) -> RunSummary {
    RunSummary::mean_of(&run_each_seed(scenario, arm, seeds))
}

/// Runs every seed and returns the per-seed summaries in `seeds` order.
///
/// Seeds execute on the sweep executor's worker pool: one shared queue,
/// no chunk barriers (the old `chunks(seed_parallelism())` path made every
/// chunk wait on its slowest seed), and memoized — a seed another figure
/// already simulated is answered from the run cache.
///
/// # Panics
///
/// Panics if `seeds` is empty or a worker thread panics.
#[must_use]
pub fn run_each_seed(scenario: &Scenario, arm: Arm, seeds: &[u64]) -> Vec<RunSummary> {
    crate::sweep::run_arm_seeds(scenario, arm, seeds)
}

/// [`run_seeds`] with profiling: seeds run *sequentially* so the merged
/// [`PerfReport`]'s wall-clock and throughput numbers measure the kernel,
/// not thread-scheduler contention.
///
/// # Panics
///
/// Panics if `seeds` is empty.
#[must_use]
pub fn run_seeds_perf(scenario: &Scenario, arm: Arm, seeds: &[u64]) -> (RunSummary, PerfReport) {
    assert!(!seeds.is_empty(), "need at least one seed");
    let mut report: Option<PerfReport> = None;
    let mut runs = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let (run, perf) = run_once_perf(scenario, arm, seed);
        runs.push(run.summary);
        match &mut report {
            Some(r) => r.merge(&perf),
            None => report = Some(perf),
        }
    }
    (
        RunSummary::mean_of(&runs),
        report.expect("at least one seed"),
    )
}

/// A paired comparison of the two arms on the same scenario and seeds —
/// the row format of every figure in the paper.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The condition name.
    pub name: String,
    /// The Incentive arm's mean summary.
    pub incentive: RunSummary,
    /// The ChitChat arm's mean summary.
    pub chitchat: RunSummary,
}

impl Comparison {
    /// Percentage of relayed traffic saved by the mechanism relative to
    /// ChitChat (Fig. 5.2's y-axis).
    #[must_use]
    pub fn traffic_reduction_pct(&self) -> f64 {
        if self.chitchat.relays_completed == 0 {
            return 0.0;
        }
        100.0 * (self.chitchat.relays_completed as f64 - self.incentive.relays_completed as f64)
            / self.chitchat.relays_completed as f64
    }

    /// MDR difference (ChitChat − Incentive); positive means the mechanism
    /// trades some delivery for the traffic savings, as the paper reports.
    #[must_use]
    pub fn mdr_gap(&self) -> f64 {
        self.chitchat.delivery_ratio - self.incentive.delivery_ratio
    }
}

/// Runs both arms over `seeds` as one sweep plan (every `(arm, seed)`
/// cell on the shared worker pool) and pairs the averaged results.
///
/// # Panics
///
/// Panics if `seeds` is empty or a worker thread panics.
#[must_use]
pub fn compare_arms(scenario: &Scenario, seeds: &[u64]) -> Comparison {
    use crate::sweep::{run_cells, Cell};
    assert!(!seeds.is_empty(), "need at least one seed");
    let cells: Vec<Cell> = Arm::BOTH
        .iter()
        .flat_map(|&arm| {
            seeds
                .iter()
                .map(move |&seed| Cell::arm(scenario.clone(), arm, seed))
        })
        .collect();
    let results = run_cells(&cells);
    let (inc, cc) = results.split_at(seeds.len());
    let mean = |half: &[crate::sweep::CellResult]| {
        RunSummary::mean_of(&half.iter().map(|r| r.summary.clone()).collect::<Vec<_>>())
    };
    Comparison {
        name: scenario.name.clone(),
        incentive: mean(inc),
        chitchat: mean(cc),
    }
}

/// [`compare_arms`] with profiling: both arms run sequentially (seeds
/// too), and the returned [`PerfReport`] folds the whole comparison's
/// wall-clock, throughput and phase breakdown together.
#[must_use]
pub fn compare_arms_perf(scenario: &Scenario, seeds: &[u64]) -> (Comparison, PerfReport) {
    let (incentive, mut perf) = run_seeds_perf(scenario, Arm::Incentive, seeds);
    let (chitchat, cc_perf) = run_seeds_perf(scenario, Arm::ChitChat, seeds);
    perf.merge(&cc_perf);
    (
        Comparison {
            name: scenario.name.clone(),
            incentive,
            chitchat,
        },
        perf,
    )
}

/// Runs overlay-on and overlay-off over `seeds` for one backend as a
/// single sweep plan and pairs the averaged results: the generalized form
/// of [`compare_arms`] ("Incentive vs ChitChat" is exactly
/// `compare_overlays(_, BackendKind::ChitChat, _)` — and its cells share
/// the arm cells' cache entries).
///
/// # Panics
///
/// Panics if `seeds` is empty or a worker thread panics.
#[must_use]
pub fn compare_overlays(scenario: &Scenario, kind: BackendKind, seeds: &[u64]) -> Comparison {
    use crate::sweep::{run_cells, Cell};
    assert!(!seeds.is_empty(), "need at least one seed");
    let cells: Vec<Cell> = Overlay::BOTH
        .iter()
        .flat_map(|&overlay| {
            seeds
                .iter()
                .map(move |&seed| Cell::backend(scenario.clone(), kind, overlay, seed))
        })
        .collect();
    let results = run_cells(&cells);
    let (on, off) = results.split_at(seeds.len());
    let mean = |half: &[crate::sweep::CellResult]| {
        RunSummary::mean_of(&half.iter().map(|r| r.summary.clone()).collect::<Vec<_>>())
    };
    Comparison {
        name: scenario.name.clone(),
        incentive: mean(on),
        chitchat: mean(off),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    /// A tiny scenario that runs in well under a second.
    fn tiny() -> Scenario {
        let mut s = paper::reduced_scenario();
        s.nodes = 20;
        s.area_km2 = 0.2;
        s.duration_secs = 1200.0;
        s.message_interval_secs = 30.0;
        s.message_ttl_secs = 900.0;
        s.named("tiny")
    }

    #[test]
    fn arms_differ_only_in_mechanism() {
        let s = tiny();
        let inc = protocol_for(&s, Arm::Incentive);
        let cc = protocol_for(&s, Arm::ChitChat);
        assert!(inc.incentive_enabled && !cc.incentive_enabled);
        assert!(!cc.drm_enabled && !cc.enrichment_enabled);
        assert_eq!(inc.chitchat, cc.chitchat, "identical routing constants");
    }

    #[test]
    fn run_once_produces_traffic_and_deliveries() {
        let run = run_once(&tiny(), Arm::ChitChat, 7);
        assert!(run.summary.created > 0);
        assert!(run.summary.relays_completed > 0, "some forwarding happened");
        assert!(run.summary.delivery_ratio > 0.0, "something was delivered");
        assert!(run.summary.delivery_ratio <= 1.0);
    }

    #[test]
    fn incentive_arm_settles_payments() {
        let run = run_once(&tiny(), Arm::Incentive, 7);
        assert!(run.protocol.settlements > 0, "deliveries were paid for");
        assert!(run.protocol.tokens_awarded > 0.0);
    }

    #[test]
    fn identical_seed_identical_result() {
        let s = tiny();
        let a = run_once(&s, Arm::Incentive, 3);
        let b = run_once(&s, Arm::Incentive, 3);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.protocol, b.protocol);
    }

    #[test]
    fn token_exhaustion_gates_receptions() {
        // Fig. 5.2's traffic reduction comes from token exhaustion; the
        // statistically robust form of that claim at tiny scale is that
        // starved destinations exist and are refused receptions, pulling
        // the incentive arm's delivery count below ChitChat's. (The
        // network-level traffic totals at full load are checked by the
        // figure harness, where the effect dominates ordering noise.)
        let mut s = tiny();
        s.selfish_fraction = 0.4;
        s.protocol.incentive.initial_tokens = 5.0;
        s.protocol.enrichment_enabled = false;
        let inc = run_once(&s, Arm::Incentive, 1);
        let cc = run_once(&s, Arm::ChitChat, 1);
        assert!(inc.broke_nodes > 0, "some nodes ran out of tokens");
        assert!(
            inc.protocol.refused_broke_destination > 0,
            "broke destinations were refused receptions"
        );
        assert!(
            inc.summary.delivered_pairs < cc.summary.delivered_pairs,
            "starvation lowers deliveries: {} vs {}",
            inc.summary.delivered_pairs,
            cc.summary.delivered_pairs
        );
    }

    #[test]
    fn chaotic_scenario_replays_identically_under_audit() {
        let mut s = tiny();
        s.chaos = Some(
            "crash=4,crashdown=90,cut=10,cutdown=20,loss=0.05"
                .parse()
                .unwrap(),
        );
        let a = run_once_checked(&s, Arm::Incentive, 5, None, Some(30)).0;
        let b = run_once_checked(&s, Arm::Incentive, 5, None, Some(30)).0;
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.protocol, b.protocol);
    }

    #[test]
    fn chaos_plan_actually_perturbs_the_run() {
        let s = tiny();
        let mut chaotic = tiny();
        chaotic.chaos = Some("crash=8,crashdown=120,wipe,loss=0.2".parse().unwrap());
        let clean = run_once(&s, Arm::Incentive, 7);
        let faulty = run_once_checked(&chaotic, Arm::Incentive, 7, None, Some(60)).0;
        assert_ne!(
            clean.summary, faulty.summary,
            "a hot plan must change the outcome"
        );
        assert!(
            faulty.summary.delivery_ratio <= clean.summary.delivery_ratio,
            "chaos does not help delivery: {} vs {}",
            faulty.summary.delivery_ratio,
            clean.summary.delivery_ratio
        );
    }

    #[test]
    fn recovery_policy_is_wired_through_and_reported() {
        let mut s = tiny();
        s.chaos = Some("loss=0.3".parse().unwrap());
        s.recovery = Some(dtn_sim::transfer::RecoveryPolicy {
            backoff_base_secs: 5.0,
            ..dtn_sim::transfer::RecoveryPolicy::default()
        });
        let sim = build_simulation(&s, Arm::Incentive, 7);
        assert_eq!(sim.recovery_policy(), s.recovery.as_ref());
        let (run, _, perf) = run_once_observed(&s, Arm::Incentive, 7, None, Some(60), true);
        assert!(
            run.summary.transfers_retried > 0,
            "loss chaos forces retries"
        );
        let perf = perf.expect("profiled");
        let rendered = perf.render();
        assert!(rendered.contains("injected"), "abort breakdown rendered");
        assert!(rendered.contains("retried"), "recovery counters rendered");
        assert_eq!(
            perf.metrics.counter("kernel.transfers_retried"),
            run.summary.transfers_retried
        );
        // An inert policy builds to no recovery at all.
        let mut off = tiny();
        off.recovery = Some(dtn_sim::transfer::RecoveryPolicy::disabled());
        assert_eq!(
            build_simulation(&off, Arm::Incentive, 7).recovery_policy(),
            None
        );
    }

    #[test]
    fn third_party_builds_pin_drop_oldest_and_match_chitchat_world() {
        use dtn_sim::buffer::DropPolicy;
        use dtn_sim::protocol::NullProtocol;
        let s = tiny();
        let sim = build_with_protocol(&s, 3, |_, _| NullProtocol);
        assert_eq!(
            sim.api().buffer(NodeId(0)).policy(),
            DropPolicy::DropOldest,
            "explicit ONE default, independent of the kernel builder's"
        );
        // Same world as the DcimRouter build: node count, buffer capacity
        // and schedule-driven message creation all line up.
        let reference = build_simulation(&s, Arm::ChitChat, 3);
        assert_eq!(sim.api().node_count(), reference.api().node_count());
        assert_eq!(
            sim.api().buffer(NodeId(0)).capacity_bytes(),
            reference.api().buffer(NodeId(0)).capacity_bytes()
        );
        assert_eq!(
            reference.api().buffer(NodeId(0)).policy(),
            DropPolicy::DropOldest,
            "chitchat arm keeps drop-oldest too"
        );
    }

    #[test]
    fn mean_across_seeds_uses_all_runs() {
        let s = tiny();
        let one = run_seeds(&s, Arm::ChitChat, &[1]);
        let two = run_seeds(&s, Arm::ChitChat, &[1, 2]);
        // Averaging with a second seed must move some field unless the two
        // seeds coincidentally agree everywhere (they do not).
        assert!(one != two);
    }

    #[test]
    fn executor_run_seeds_matches_sequential_merge() {
        // More seeds than most CI machines have cores, so the executor's
        // queue actually backs up; the merged result must equal the old
        // strictly sequential merge, in order. (Seven seeds: the figure
        // binaries' largest seed family plus headroom, per the chunk-path
        // removal note.)
        let s = tiny();
        let seeds: Vec<u64> = (1..=7).collect();
        crate::sweep::clear_memo();
        let pooled = run_each_seed(&s, Arm::ChitChat, &seeds);
        let sequential: Vec<_> = seeds
            .iter()
            .map(|&seed| run_once(&s, Arm::ChitChat, seed).summary)
            .collect();
        assert_eq!(pooled, sequential);
        assert_eq!(
            run_seeds(&s, Arm::ChitChat, &seeds),
            RunSummary::mean_of(&sequential)
        );
        assert!(seed_parallelism() >= 1);
    }

    #[test]
    fn compare_arms_routes_both_arms_through_one_plan() {
        let s = tiny();
        crate::sweep::clear_memo();
        let cmp = compare_arms(&s, &[1, 2]);
        assert_eq!(cmp.name, s.name);
        assert_eq!(
            cmp.incentive,
            RunSummary::mean_of(&[
                run_once(&s, Arm::Incentive, 1).summary,
                run_once(&s, Arm::Incentive, 2).summary,
            ])
        );
        assert_eq!(
            cmp.chitchat,
            RunSummary::mean_of(&[
                run_once(&s, Arm::ChitChat, 1).summary,
                run_once(&s, Arm::ChitChat, 2).summary,
            ])
        );
    }

    #[test]
    fn perf_run_reproduces_unprofiled_results() {
        let s = tiny();
        let plain = run_once(&s, Arm::Incentive, 7);
        let (profiled, perf) = run_once_perf(&s, Arm::Incentive, 7);
        assert_eq!(
            plain.summary, profiled.summary,
            "metrics collection must not perturb the simulation"
        );
        assert_eq!(plain.protocol, profiled.protocol);
        assert_eq!(perf.runs, 1);
        assert!(perf.wall_secs > 0.0);
        assert_eq!(perf.sim_secs, s.duration_secs);
        assert!(perf.sim_secs_per_sec > 0.0);
        assert_eq!(perf.steps, s.duration_secs as u64);
        assert!(perf.events > 0);
        assert!(perf.events_per_sec > 0.0);
        assert!(perf.peak_buffer_bytes > 0);
        assert!(!perf.phases.is_empty());
        assert!(
            perf.phases.iter().map(|p| p.secs).sum::<f64>() <= perf.wall_secs,
            "phase totals cannot exceed the measured wall-clock"
        );
        assert_eq!(perf.metrics.counter("kernel.steps"), perf.steps);
    }

    #[test]
    fn perf_reports_merge_additively() {
        let s = tiny();
        let (_, a) = run_once_perf(&s, Arm::ChitChat, 1);
        let (_, b) = run_once_perf(&s, Arm::ChitChat, 2);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.runs, 2);
        assert_eq!(merged.steps, a.steps + b.steps);
        assert_eq!(merged.events, a.events + b.events);
        assert!((merged.wall_secs - (a.wall_secs + b.wall_secs)).abs() < 1e-9);
        assert_eq!(
            merged.peak_buffer_bytes,
            a.peak_buffer_bytes.max(b.peak_buffer_bytes)
        );
        let phase_sum: f64 = merged.phases.iter().map(|p| p.secs).sum();
        let parts: f64 = a.phases.iter().chain(&b.phases).map(|p| p.secs).sum();
        assert!((phase_sum - parts).abs() < 1e-9);
        // And the comparison helper folds both arms into one report.
        let (cmp, perf) = compare_arms_perf(&s, &[1]);
        assert_eq!(perf.runs, 2, "one run per arm");
        assert!(cmp.incentive != cmp.chitchat);
    }
}
