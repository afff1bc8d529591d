//! Building and running scenarios, one or many seeds at a time.
//!
//! One world builder serves every mechanism, and one entry point runs
//! every cell: [`run`] takes the run's identity (a [`Cell`]: scenario,
//! mechanism, seed) and its instrumentation ([`RunOpts`]) separately.

use dtn_core::behavior::NodeBehavior;
use dtn_core::params::ProtocolParams;
use dtn_core::protocol::{DcimRouter, ProtocolStats};
use dtn_routing::backend::{BackendKind, Overlay, RouterBackend};
use dtn_routing::cedo::CedoRouter;
use dtn_sim::buffer::DropPolicy;
use dtn_sim::geometry::Area;
use dtn_sim::kernel::{ScheduledMessage, Simulation, SimulationBuilder};
use dtn_sim::metrics::{MetricsRegistry, PhaseTiming};
use dtn_sim::protocol::Protocol;
use dtn_sim::rng::SimRng;
use dtn_sim::stats::RunSummary;
use dtn_sim::time::SimTime;
use dtn_sim::trace::TraceLog;
use dtn_sim::world::NodeId;
use serde::{Deserialize, Serialize};

use crate::population::Population;
use crate::scenario::{Arm, Scenario};
use crate::sweep::{Cell, CellKind};
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

/// Instrumentation for one run: what to observe, never what to simulate.
///
/// None of these knobs is part of a run's identity (the [`Cell`] is): they
/// are never hashed into a cache key and never change an outcome — a
/// traced, audited or profiled run returns the same [`ArmRun`] as a plain
/// one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOpts {
    /// Record up to this many kernel events and return their rendered
    /// text (the CLI's `--trace` flag).
    pub trace_capacity: Option<usize>,
    /// Audit the kernel's conservation invariants and the router's (token
    /// conservation, rating bounds, offer hygiene) every that-many steps;
    /// a breach panics with a replayable report. Falls back to the
    /// scenario's `audit_every`.
    pub check_every: Option<u64>,
    /// Time every kernel phase and return a [`PerfReport`].
    pub profile: bool,
}

/// What [`run`] returns: the results plus whatever [`RunOpts`] asked to
/// observe.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The run's results.
    pub run: ArmRun,
    /// The rendered event trace, when `trace_capacity` was set.
    pub trace: Option<String>,
    /// The wall-clock report, when `profile` was set.
    pub perf: Option<PerfReport>,
}

/// Runs one cell — a scenario under one mechanism and one seed — to
/// completion.
///
/// Every [`CellKind`] runs on the *identical* world for a given
/// `(scenario, seed)`: same mobility, population (interests, behaviors,
/// classes, roles), message schedule, chaos plan and recovery policy; only
/// the mechanism differs. That is what makes the paper's pairwise
/// comparisons (Figs. 5.1–5.6) meaningful, and what extends them to every
/// routing backend. A CEDO cell has no economy, so it reports
/// `ProtocolStats::default()`, no broke nodes and no attacker tokens.
///
/// # Panics
///
/// Panics if the scenario fails validation or an invariant audit fails.
#[must_use]
pub fn run(cell: &Cell, opts: RunOpts) -> RunOutput {
    let (s, seed) = (&cell.scenario, cell.seed);
    let trace = opts.trace_capacity.map(TraceLog::bounded);
    let (audit, profile) = (opts.check_every, opts.profile);
    match cell.kind {
        CellKind::Arm(arm) => {
            let sim = build_simulation_opts(s, arm, seed, trace, audit, profile);
            observe(sim, s, opts, tally)
        }
        CellKind::Backend { backend, overlay } => {
            let sim = build_backend_simulation(s, backend, overlay, seed, trace, audit, profile);
            observe(sim, s, opts, tally)
        }
        CellKind::Cedo => {
            let sim = world(s, seed, DropPolicy::DropOldest, trace, audit, profile, cedo);
            observe(sim, s, opts, |_, summary| ArmRun {
                summary,
                protocol: ProtocolStats::default(),
                broke_nodes: 0,
                attacker_tokens: 0.0,
            })
        }
    }
}

/// Steps a built simulation to the scenario's horizon and collects what
/// `opts` asked to observe.
fn observe<P: Protocol>(
    mut sim: Simulation<P>,
    scenario: &Scenario,
    opts: RunOpts,
    results: impl FnOnce(P, RunSummary) -> ArmRun,
) -> RunOutput {
    let t0 = std::time::Instant::now();
    let _ = sim.run_until(SimTime::from_secs(scenario.duration_secs));
    let perf = opts
        .profile
        .then(|| PerfReport::capture(&sim, t0.elapsed().as_secs_f64()));
    let trace = opts.trace_capacity.map(|_| sim.api().trace().render());
    let (protocol, summary) = sim.finish();
    RunOutput {
        run: results(protocol, summary),
        trace,
        perf,
    }
}

/// The mechanism's end-of-run results.
fn tally<B: RouterBackend>(router: DcimRouter<B>, summary: RunSummary) -> ArmRun {
    ArmRun {
        summary,
        broke_nodes: router.ledger().broke_nodes().len(),
        attacker_tokens: router.attacker_tokens(),
        protocol: router.stats(),
    }
}

/// The one world builder: validates the scenario, synthesizes the
/// population and message schedule from `SimRng::new(seed)`, hands both to
/// `make` for the protocol, and configures the kernel (radio, buffers,
/// mobility, battery, trace, chaos, recovery, audit cadence, profiler).
/// Every build path goes through here, so every mechanism sees the same
/// world for a given `(scenario, seed)`.
fn world<P: Protocol>(
    scenario: &Scenario,
    seed: u64,
    drop_policy: DropPolicy,
    trace: Option<TraceLog>,
    check_every: Option<u64>,
    profile: bool,
    make: impl FnOnce(&Population, &[ScheduledMessage]) -> P,
) -> Simulation<P> {
    scenario.validate().expect("scenario must validate");
    let workload_rng = SimRng::new(seed);
    let population = Population::synthesize(scenario, &workload_rng);
    let schedule = generate_schedule(scenario, &population, &workload_rng);
    let protocol = make(&population, &schedule);
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
    if let Some(every) = check_every.or(scenario.audit_every) {
        builder = builder.check_invariants_every(every);
    }
    builder.profile(profile).messages(schedule).build(protocol)
}

/// Wires the population into the mechanism: subscriptions, behaviors,
/// roles, and the strategy assignment with the mix's defense flag. A
/// scenario without strategies touches no strategy state, so the router
/// stays on the byte-identical paper-default path.
fn mechanism<B: RouterBackend>(
    mut router: DcimRouter<B>,
    scenario: &Scenario,
    population: &Population,
) -> DcimRouter<B> {
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
    if let Some(mix) = &scenario.strategies {
        for (i, &strategy) in population.strategies.iter().enumerate() {
            if strategy.is_some() {
                router.set_strategy(NodeId(i as u32), strategy);
            }
        }
        if mix.defense {
            router.set_strategy_defense(true);
        }
    }
    router
}

/// The mechanism evicts lowest-priority copies first under buffer
/// pressure; without it (plain ChitChat, or an ablation with the credit
/// system off) ONE's drop-oldest default applies. Derived from the
/// effective params rather than the arm label so ablations behave
/// consistently.
fn drop_policy_for(params: &ProtocolParams) -> DropPolicy {
    if params.incentive_enabled {
        DropPolicy::DropLowestPriority
    } else {
        DropPolicy::DropOldest
    }
}

/// Builds a ready-to-run simulation for `scenario` under `arm` and `seed`,
/// with an optional kernel event trace, invariant-audit cadence and phase
/// profiler (see [`RunOpts`]; none of them changes the outcome). Used
/// directly where a caller steps, snapshots or inspects the simulation
/// itself; [`run`] covers run-to-completion.
///
/// # Panics
///
/// Panics if the scenario fails validation.
#[must_use]
pub fn build_simulation_opts(
    scenario: &Scenario,
    arm: Arm,
    seed: u64,
    trace: Option<TraceLog>,
    check_every: Option<u64>,
    profile: bool,
) -> Simulation<DcimRouter> {
    let params = protocol_for(scenario, arm);
    let drop_policy = drop_policy_for(&params);
    world(
        scenario,
        seed,
        drop_policy,
        trace,
        check_every,
        profile,
        |pop, _| mechanism(DcimRouter::new(scenario.nodes, params, seed), scenario, pop),
    )
}

/// The incentive overlay over an arbitrary routing backend, on the same
/// world as [`build_simulation_opts`]. With `BackendKind::ChitChat` this
/// reproduces the corresponding `Arm` build byte-for-byte — that
/// equivalence is pinned by the conformance suite.
fn build_backend_simulation(
    scenario: &Scenario,
    kind: BackendKind,
    overlay: Overlay,
    seed: u64,
    trace: Option<TraceLog>,
    check_every: Option<u64>,
    profile: bool,
) -> Simulation<DcimRouter<Box<dyn RouterBackend>>> {
    let params = protocol_for(scenario, arm_for(overlay));
    let drop_policy = drop_policy_for(&params);
    world(
        scenario,
        seed,
        drop_policy,
        trace,
        check_every,
        profile,
        |pop, _| {
            let backend = kind.instantiate(scenario.nodes, &params.chitchat);
            mechanism(
                DcimRouter::with_backend(backend, params, seed),
                scenario,
                pop,
            )
        },
    )
}

/// Builds the same world as [`build_simulation_opts`] but wires in an
/// arbitrary protocol constructed from the synthesized population — for
/// comparing a standalone router against the mechanism on an identical
/// workload. Third-party routers are priority-blind, so they get ONE's
/// drop-oldest default *explicitly*: comparisons must not silently inherit
/// whatever default the kernel builder happens to carry.
///
/// # Panics
///
/// Panics if the scenario fails validation.
#[must_use]
pub fn build_with_protocol<P: Protocol>(
    scenario: &Scenario,
    seed: u64,
    make: impl FnOnce(&Population, &[ScheduledMessage]) -> P,
) -> Simulation<P> {
    world(
        scenario,
        seed,
        DropPolicy::DropOldest,
        None,
        None,
        false,
        make,
    )
}

/// CEDO on the workload: CEDO is pull-based, so each expected (message,
/// destination) pair becomes a keyword request issued at creation time.
fn cedo(population: &Population, schedule: &[ScheduledMessage]) -> CedoRouter {
    let mut router = CedoRouter::new(population.interests.len());
    for m in schedule {
        for &dest in &m.expected_destinations {
            for &kw in &m.source_tags {
                if population.interests[dest.index()].contains(&kw) {
                    router.schedule_request(m.at, dest, kw, m.ttl_secs);
                }
            }
        }
    }
    router
}

/// The [`Arm`] a given overlay state corresponds to: the overlay axis *is*
/// the paper's arm split, generalized beyond ChitChat.
#[must_use]
pub fn arm_for(overlay: Overlay) -> Arm {
    match overlay {
        Overlay::On => Arm::Incentive,
        Overlay::Off => Arm::ChitChat,
    }
}

/// The result of one cell under one seed.
#[derive(Debug, Clone, PartialEq)]
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

/// Wall-clock performance report for one or more runs: the observability
/// record every later perf change diffs against. Produced by profiled runs
/// ([`run`] with `profile` set, [`compare_perf`]) and serialized by the
/// CLI's `--metrics-out` and `dtn-bench`'s `perf` binary.
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
    pub fn capture<P: Protocol>(sim: &Simulation<P>, wall_secs: f64) -> PerfReport {
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
/// executor's shared worker-pool queue, memoized in its run cache — and
/// averages the summaries. Results are order-stable and identical to a
/// sequential run of the same seeds (each seed's simulation is
/// deterministic and shares no state).
///
/// # Panics
///
/// Panics if `seeds` is empty or a worker thread panics.
#[must_use]
pub fn run_seeds(scenario: &Scenario, arm: Arm, seeds: &[u64]) -> RunSummary {
    RunSummary::mean_of(&crate::sweep::run_arm_seeds(scenario, arm, seeds))
}

/// A paired comparison of overlay on vs off (for ChitChat: the paper's
/// Incentive vs ChitChat arms) on the same scenario and seeds — the row
/// format of every figure in the paper.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The condition name.
    pub name: String,
    /// The Incentive arm's (overlay-on) mean summary.
    pub incentive: RunSummary,
    /// The ChitChat arm's (overlay-off) mean summary.
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

/// Runs overlay-on and overlay-off over `seeds` for one backend as a single
/// sweep plan (every cell on the shared worker pool) and pairs the averaged
/// results. With `BackendKind::ChitChat` this is the paper's Incentive vs
/// ChitChat comparison: [`Cell::backend`] canonicalizes those cells to the
/// arm cells, so they share the arms' cache entries.
///
/// # Panics
///
/// Panics if `seeds` is empty or a worker thread panics.
#[must_use]
pub fn compare(scenario: &Scenario, kind: BackendKind, seeds: &[u64]) -> Comparison {
    let results = crate::sweep::run_cells(&overlay_cells(scenario, kind, seeds));
    pair(scenario, results.into_iter().map(|r| r.summary).collect())
}

/// [`compare`] with profiling: every cell runs sequentially (seeds too), so
/// the returned [`PerfReport`] measures the kernel rather than scheduler
/// contention, and folds the whole comparison's wall-clock, throughput and
/// phase breakdown together. The comparison itself is identical.
///
/// # Panics
///
/// Panics if `seeds` is empty.
#[must_use]
pub fn compare_perf(
    scenario: &Scenario,
    kind: BackendKind,
    seeds: &[u64],
) -> (Comparison, PerfReport) {
    let opts = RunOpts {
        profile: true,
        ..RunOpts::default()
    };
    let mut report: Option<PerfReport> = None;
    let mut summaries = Vec::new();
    for cell in overlay_cells(scenario, kind, seeds) {
        let out = run(&cell, opts);
        let perf = out.perf.expect("profiling was enabled");
        match &mut report {
            Some(r) => r.merge(&perf),
            None => report = Some(perf),
        }
        summaries.push(out.run.summary);
    }
    (
        pair(scenario, summaries),
        report.expect("at least one seed"),
    )
}

/// The overlay-on cells for every seed, then the overlay-off cells.
fn overlay_cells(scenario: &Scenario, kind: BackendKind, seeds: &[u64]) -> Vec<Cell> {
    assert!(!seeds.is_empty(), "need at least one seed");
    Overlay::BOTH
        .iter()
        .flat_map(|&overlay| {
            seeds
                .iter()
                .map(move |&seed| Cell::backend(scenario.clone(), kind, overlay, seed))
        })
        .collect()
}

/// Averages each half of [`overlay_cells`]' summaries into a comparison.
fn pair(scenario: &Scenario, summaries: Vec<RunSummary>) -> Comparison {
    let (on, off) = summaries.split_at(summaries.len() / 2);
    Comparison {
        name: scenario.name.clone(),
        incentive: RunSummary::mean_of(on),
        chitchat: RunSummary::mean_of(off),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    /// One plain run of `(scenario, arm, seed)`.
    fn run_arm(s: &Scenario, arm: Arm, seed: u64) -> ArmRun {
        run(&Cell::arm(s.clone(), arm, seed), RunOpts::default()).run
    }

    /// One audited run of `(scenario, arm, seed)`.
    fn run_audited(s: &Scenario, arm: Arm, seed: u64, every: u64) -> ArmRun {
        let opts = RunOpts {
            check_every: Some(every),
            ..RunOpts::default()
        };
        run(&Cell::arm(s.clone(), arm, seed), opts).run
    }

    /// One profiled run of `(scenario, arm, seed)` and its report.
    fn run_profiled(s: &Scenario, arm: Arm, seed: u64) -> (ArmRun, PerfReport) {
        let opts = RunOpts {
            profile: true,
            ..RunOpts::default()
        };
        let out = run(&Cell::arm(s.clone(), arm, seed), opts);
        (out.run, out.perf.expect("profiling was enabled"))
    }

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
    fn a_run_produces_traffic_and_deliveries() {
        let run = run_arm(&tiny(), Arm::ChitChat, 7);
        assert!(run.summary.created > 0);
        assert!(run.summary.relays_completed > 0, "some forwarding happened");
        assert!(run.summary.delivery_ratio > 0.0, "something was delivered");
        assert!(run.summary.delivery_ratio <= 1.0);
    }

    #[test]
    fn incentive_arm_settles_payments() {
        let run = run_arm(&tiny(), Arm::Incentive, 7);
        assert!(run.protocol.settlements > 0, "deliveries were paid for");
        assert!(run.protocol.tokens_awarded > 0.0);
    }

    #[test]
    fn identical_seed_identical_result() {
        let s = tiny();
        let a = run_arm(&s, Arm::Incentive, 3);
        let b = run_arm(&s, Arm::Incentive, 3);
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
        let inc = run_arm(&s, Arm::Incentive, 1);
        let cc = run_arm(&s, Arm::ChitChat, 1);
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
        let a = run_audited(&s, Arm::Incentive, 5, 30);
        let b = run_audited(&s, Arm::Incentive, 5, 30);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.protocol, b.protocol);
    }

    #[test]
    fn chaos_plan_actually_perturbs_the_run() {
        let s = tiny();
        let mut chaotic = tiny();
        chaotic.chaos = Some("crash=8,crashdown=120,wipe,loss=0.2".parse().unwrap());
        let clean = run_arm(&s, Arm::Incentive, 7);
        let faulty = run_audited(&chaotic, Arm::Incentive, 7, 60);
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
        let sim = build_simulation_opts(&s, Arm::Incentive, 7, None, None, false);
        assert_eq!(sim.recovery_policy(), s.recovery.as_ref());
        let opts = RunOpts {
            check_every: Some(60),
            profile: true,
            ..RunOpts::default()
        };
        let RunOutput { run, perf, .. } = run(&Cell::arm(s.clone(), Arm::Incentive, 7), opts);
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
            build_simulation_opts(&off, Arm::Incentive, 7, None, None, false).recovery_policy(),
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
        let reference = build_simulation_opts(&s, Arm::ChitChat, 3, None, None, false);
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
        let pooled = crate::sweep::run_arm_seeds(&s, Arm::ChitChat, &seeds);
        let sequential: Vec<_> = seeds
            .iter()
            .map(|&seed| run_arm(&s, Arm::ChitChat, seed).summary)
            .collect();
        assert_eq!(pooled, sequential);
        assert_eq!(
            run_seeds(&s, Arm::ChitChat, &seeds),
            RunSummary::mean_of(&sequential)
        );
        assert!(seed_parallelism() >= 1);
    }

    #[test]
    fn compare_routes_both_arms_through_one_plan() {
        let s = tiny();
        crate::sweep::clear_memo();
        let cmp = compare(&s, BackendKind::ChitChat, &[1, 2]);
        assert_eq!(cmp.name, s.name);
        assert_eq!(
            cmp.incentive,
            RunSummary::mean_of(&[
                run_arm(&s, Arm::Incentive, 1).summary,
                run_arm(&s, Arm::Incentive, 2).summary,
            ])
        );
        assert_eq!(
            cmp.chitchat,
            RunSummary::mean_of(&[
                run_arm(&s, Arm::ChitChat, 1).summary,
                run_arm(&s, Arm::ChitChat, 2).summary,
            ])
        );
    }

    #[test]
    fn perf_run_reproduces_unprofiled_results() {
        let s = tiny();
        let plain = run_arm(&s, Arm::Incentive, 7);
        let (profiled, perf) = run_profiled(&s, Arm::Incentive, 7);
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
        let (_, a) = run_profiled(&s, Arm::ChitChat, 1);
        let (_, b) = run_profiled(&s, Arm::ChitChat, 2);
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
        let (cmp, perf) = compare_perf(&s, BackendKind::ChitChat, &[1]);
        assert_eq!(perf.runs, 2, "one run per arm");
        assert!(cmp.incentive != cmp.chitchat);
    }

    #[test]
    fn instrumentation_never_perturbs_any_cell_kind() {
        // Trace, audit and profile are observation only: for the paper arm,
        // a backend cell and CEDO alike, each returns the plain run's
        // results exactly.
        let s = tiny();
        let cells = [
            Cell::arm(s.clone(), Arm::Incentive, 7),
            Cell::backend(s.clone(), BackendKind::Epidemic, Overlay::On, 7),
            Cell::cedo(s.clone(), 7),
        ];
        let instrumented = [
            RunOpts {
                trace_capacity: Some(100_000),
                ..RunOpts::default()
            },
            RunOpts {
                check_every: Some(1),
                ..RunOpts::default()
            },
            RunOpts {
                profile: true,
                ..RunOpts::default()
            },
        ];
        for cell in &cells {
            let plain = run(cell, RunOpts::default());
            assert!(plain.trace.is_none() && plain.perf.is_none());
            for opts in instrumented {
                let out = run(cell, opts);
                assert_eq!(out.run, plain.run, "{:?} under {opts:?}", cell.kind);
                assert_eq!(out.trace.is_some(), opts.trace_capacity.is_some());
                assert_eq!(out.perf.is_some(), opts.profile);
            }
        }
    }

    #[test]
    fn cedo_cells_honour_the_audit_cadence() {
        let s = tiny();
        let cell = Cell::cedo(s.clone(), 4);
        let plain = run(&cell, RunOpts::default()).run;
        let audited = run(
            &cell,
            RunOpts {
                check_every: Some(1),
                ..RunOpts::default()
            },
        )
        .run;
        assert_eq!(plain.summary, audited.summary);
        assert_eq!(plain.protocol, ProtocolStats::default(), "no economy");
        // The scenario's own cadence reaches the CEDO build as well.
        let mut audited_scenario = s;
        audited_scenario.audit_every = Some(60);
        let mut sim = build_with_protocol(&audited_scenario, 4, cedo);
        let _ = sim.run_until(SimTime::from_secs(audited_scenario.duration_secs));
        assert!(sim.invariant_checks_run().expect("audits armed") > 0);
    }
}
