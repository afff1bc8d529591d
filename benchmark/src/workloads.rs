//! The four workloads and the operations they repeat.
//!
//! Every operation drives the program from outside through its public
//! functions, each call wrapped in one of the benchmark's own spans, and
//! checks its output: the run's digest against the pinned table and the
//! invariant audit at the end of every run.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dtn_core::protocol::DcimRouter;
use dtn_sim::faults::FaultPlan;
use dtn_sim::kernel::Simulation;
use dtn_sim::rng::SimRng;
use dtn_sim::stats::RunSummary;
use dtn_sim::time::SimTime;
use dtn_sim::transfer::RecoveryPolicy;
use dtn_workloads::paper::reduced_scenario;
use dtn_workloads::population::Population;
use dtn_workloads::resume::{read_snapshot, resume_simulation, RunMeta, SnapshotDoc};
use dtn_workloads::runner::build_simulation_opts;
use dtn_workloads::scenario::{Arm, Scenario};
use dtn_workloads::sweep::{self, Cell, CellResult};
use dtn_workloads::traffic::generate_schedule;

use crate::measure::{digest, peak_rss_mb};
use crate::trace::Tracer;

/// The worlds runs draw from (see [`Workload::worlds`]); each has a pinned
/// digest per workload.
pub const WORLD_SEEDS: [u64; 4] = [1, 2, 3, 4];

/// Selfish fractions of the miniature Fig 5.1 grid.
const SUITE_SELFISH: [f64; 4] = [0.0, 0.2, 0.4, 0.6];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The reduced paper world over many simulated hours: economy-bound.
    PaperDense,
    /// 20 000 nodes over simulated minutes: contact core and table memory.
    City20k,
    /// 1000 nodes with loss, link cuts, strategies and checkpoint round trips.
    ChaosCheckpoint,
    /// A miniature Fig 5.1 grid through the sweep executor, cold then warm.
    FigureSuite,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperDense,
        Workload::City20k,
        Workload::ChaosCheckpoint,
        Workload::FigureSuite,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDense => "paper-dense",
            Workload::City20k => "city-20k",
            Workload::ChaosCheckpoint => "chaos-checkpoint",
            Workload::FigureSuite => "figure-suite",
        }
    }

    /// The worlds one round of a run with `seed` covers, starting at
    /// world `seed % 4 + 1`: all four pinned worlds, so that every run
    /// measures the same work and the same peak memory whatever its seed,
    /// which then only sets the order. The figure suite covers two
    /// consecutive worlds per round, since each of its operations already
    /// spans three simulation seeds per cell.
    #[must_use]
    pub fn worlds(self, seed: u64) -> Vec<u64> {
        let round_size = match self {
            Workload::FigureSuite => 2,
            _ => WORLD_SEEDS.len() as u64,
        };
        (0..round_size)
            .map(|i| WORLD_SEEDS[((seed + i) % WORLD_SEEDS.len() as u64) as usize])
            .collect()
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// World sizes: the measured ones, or tiny ones for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Seconds-long worlds for the benchmark's own tests.
    Smoke,
}

/// The kernel scenario of a simulation workload (the figure suite's cells
/// come from [`suite_plan`]).
#[must_use]
pub fn scenario(workload: Workload, scale: Scale) -> Scenario {
    let smoke = scale == Scale::Smoke;
    let mut s = reduced_scenario().named(workload.name());
    s.threads = Some(1);
    match workload {
        Workload::PaperDense | Workload::FigureSuite => {
            if smoke {
                (s.nodes, s.area_km2, s.duration_secs) = (30, 0.3, 1200.0);
            } else {
                s.duration_secs = 4.0 * 3600.0;
            }
        }
        Workload::City20k => {
            (s.nodes, s.area_km2, s.duration_secs) = if smoke {
                (1000, 10.0, 120.0)
            } else {
                (20_000, 200.0, 300.0)
            };
            s.message_ttl_secs = s.duration_secs / 2.0;
        }
        Workload::ChaosCheckpoint => {
            (s.nodes, s.area_km2, s.duration_secs) = if smoke {
                (200, 2.0, 600.0)
            } else {
                (1000, 10.0, 1200.0)
            };
            s.message_ttl_secs = s.duration_secs / 2.0;
            s.chaos = Some(FaultPlan {
                transfer_loss_prob: 0.15,
                link_cut_per_hour: 4.0,
                link_cut_secs: 30.0,
                ..FaultPlan::default()
            });
            s.recovery = Some(RecoveryPolicy::default());
            s.strategies = Some(
                "free=0.2,white=0.1,defense"
                    .parse()
                    .expect("strategy spec parses"),
            );
        }
    }
    s
}

/// Simulated seconds between checkpoints on `chaos-checkpoint`.
#[must_use]
pub fn checkpoint_every_secs(scale: Scale) -> f64 {
    match scale {
        Scale::Full => 400.0,
        Scale::Smoke => 300.0,
    }
}

/// The miniature Fig 5.1 grid of `figure-suite` for one world seed:
/// selfish fractions × both arms × three seeds, each cell audited.
#[must_use]
pub fn suite_plan(scale: Scale, world_seed: u64) -> Vec<Cell> {
    let mut base = scenario(Workload::FigureSuite, scale);
    base.duration_secs = if scale == Scale::Smoke { 600.0 } else { 3600.0 };
    base.audit_every = Some(900);
    let fractions: &[f64] = if scale == Scale::Smoke {
        &SUITE_SELFISH[..2]
    } else {
        &SUITE_SELFISH
    };
    let seeds = [world_seed, world_seed + 100, world_seed + 200];
    let mut cells = Vec::new();
    for &selfish in fractions {
        let mut s = base.clone();
        s.selfish_fraction = selfish;
        for arm in Arm::BOTH {
            for &seed in &seeds {
                cells.push(Cell::arm(s.clone(), arm, seed));
            }
        }
    }
    cells
}

/// What one operation measured and checked.
#[derive(Debug, Default)]
pub struct OpOutcome {
    /// The world the operation ran.
    pub world_seed: u64,
    /// Wall seconds of the measured loop: stepping plus checkpoints, or the
    /// cold suite pass.
    pub wall_s: f64,
    /// Simulated seconds covered.
    pub sim_s: f64,
    /// Kernel events processed (0 on the figure suite).
    pub events: u64,
    /// `build_simulation_opts` wall samples.
    pub setup_s: Vec<f64>,
    /// Digest of the run's output.
    pub digest: String,
    /// Sub-operations attempted: runs, checkpoint round trips, cells.
    pub attempted: u64,
    /// Sub-operations that failed a check.
    pub failed: u64,
    /// Why, for each failure.
    pub failures: Vec<String>,
    /// Per-layer numbers of this operation, by metric name.
    pub layer: Vec<(String, f64)>,
    /// The `kernel.threads` gauge of the operation's simulations.
    pub kernel_threads: f64,
}

impl OpOutcome {
    fn put(&mut self, name: &str, value: f64) {
        match self.layer.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += value,
            None => self.layer.push((name.to_owned(), value)),
        }
    }

    fn check(&mut self, ok: bool, count: u64, why: impl FnOnce() -> String) {
        if !ok {
            self.failed += count;
            self.failures.push(why());
        }
    }
}

/// Shared state of one measurement pass.
pub struct Ctx<'a> {
    /// The benchmark's span recorder (enabled on the traced pass).
    pub tracer: Tracer,
    /// World sizes.
    pub scale: Scale,
    /// Scratch directory inside the checkout (snapshots, sweep cache).
    pub out_dir: PathBuf,
    /// Expected digests by world seed.
    pub pins: &'a dyn Fn(u64) -> Option<String>,
    /// Whether checkpoints are taken (off only when pinning digests).
    pub checkpoints: bool,
}

impl Ctx<'_> {
    fn profile(&self) -> bool {
        self.tracer.enabled()
    }

    fn pinned(&self, out: &mut OpOutcome, count: u64) {
        let expected = (self.pins)(out.world_seed);
        let seed = out.world_seed;
        let got = out.digest.clone();
        out.check(expected.as_deref() == Some(got.as_str()), count, || {
            format!(
                "world {seed}: digest {got} != pinned {}",
                expected.unwrap_or_else(|| "(none)".into())
            )
        });
    }
}

/// Runs one operation of `workload` on `world_seed`.
pub fn run_op(ctx: &mut Ctx<'_>, workload: Workload, world_seed: u64) -> OpOutcome {
    match workload {
        Workload::FigureSuite => suite_op(ctx, world_seed),
        w => kernel_op(ctx, w, world_seed),
    }
}

/// Times one `build_simulation_opts` of `workload`'s world (the set-up
/// probe), returning its wall seconds.
pub fn setup_probe(ctx: &mut Ctx<'_>, workload: Workload, world_seed: u64) -> f64 {
    let (scn, arm) = match workload {
        Workload::FigureSuite => {
            let cell = &suite_plan(ctx.scale, world_seed)[0];
            (cell.scenario.clone(), Arm::Incentive)
        }
        w => (scenario(w, ctx.scale), Arm::Incentive),
    };
    let profile = ctx.profile();
    let t0 = Instant::now();
    let sim = ctx.tracer.span("setup.build", |_| {
        build_simulation_opts(&scn, arm, world_seed, None, None, profile)
    });
    let secs = t0.elapsed().as_secs_f64();
    drop(sim);
    secs
}

/// The digest of a finished run: its summary plus the mechanism counters.
fn run_digest(summary: &RunSummary, router: &DcimRouter) -> String {
    let s = router.stats();
    let text = format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
        serde_json::to_string(summary).expect("summary serializes"),
        s.settlements,
        s.tokens_awarded,
        s.prepayments,
        s.refused_broke_destination,
        s.refused_unaffordable_prepay,
        s.refused_distrusted_sender,
        s.strategy_drops,
        s.whitewash_churns,
        s.gossip_replays_rejected,
    );
    digest(text.as_bytes())
}

/// Adds the profiler's phase totals of `sim` to `out`.
fn harvest_phases(out: &mut OpOutcome, sim: &Simulation<DcimRouter>) {
    if sim.profiler().is_enabled() {
        for t in sim.profiler().timings() {
            out.put(&format!("phase.{}_s", t.phase), t.secs);
        }
    }
}

/// One complete run of a simulation workload, checkpointing on
/// `chaos-checkpoint` and continuing from the restored simulation.
fn kernel_op(ctx: &mut Ctx<'_>, workload: Workload, world_seed: u64) -> OpOutcome {
    let scn = scenario(workload, ctx.scale);
    let profile = ctx.profile();
    let mut out = OpOutcome {
        world_seed,
        attempted: 1,
        ..OpOutcome::default()
    };
    if profile {
        // Traced only: the two set-up calls timed alone.
        let rng = SimRng::new(world_seed);
        let t = Instant::now();
        let pop = ctx
            .tracer
            .span("setup.population", |_| Population::synthesize(&scn, &rng));
        out.put("setup.population_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let schedule = ctx
            .tracer
            .span("setup.schedule", |_| generate_schedule(&scn, &pop, &rng));
        out.put("setup.schedule_s", t.elapsed().as_secs_f64());
        drop(schedule);
    }
    let t0 = Instant::now();
    let mut sim = ctx.tracer.span("setup.build", |_| {
        build_simulation_opts(&scn, Arm::Incentive, world_seed, None, None, profile)
    });
    out.setup_s.push(t0.elapsed().as_secs_f64());

    let horizon = SimTime::from_secs(scn.duration_secs);
    let every = (workload == Workload::ChaosCheckpoint && ctx.checkpoints)
        .then(|| checkpoint_every_secs(ctx.scale));
    let mut next_checkpoint = every.map(SimTime::from_secs);
    let meta = RunMeta {
        scenario: scn.clone(),
        arm: Arm::Incentive,
        seed: world_seed,
        trace_capacity: None,
        check_every: None,
    };
    let t0 = Instant::now();
    loop {
        if let Some(at) = next_checkpoint.filter(|at| sim.api().now() >= *at && *at < horizon) {
            out.attempted += 1;
            harvest_phases(&mut out, &sim);
            match checkpoint(ctx, &mut out, sim, &meta, at) {
                Ok(restored) => sim = restored,
                Err(why) => {
                    out.failed += out.attempted;
                    out.failures.push(format!("world {world_seed}: {why}"));
                    return out;
                }
            }
            next_checkpoint = every.map(|e| SimTime::from_secs(at.as_secs() + e));
            continue;
        }
        if sim.api().now() >= horizon {
            break;
        }
        if ctx.tracer.enabled() {
            ctx.tracer.span("sim.step_once", |_| sim.step_once());
        } else {
            sim.step_once();
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.sim_s = scn.duration_secs;

    let violations = ctx
        .tracer
        .span("sim.check_invariants_now", |_| sim.check_invariants_now());
    out.check(violations.is_empty(), 1, || {
        format!(
            "world {world_seed}: {} invariant violations, first: {}",
            violations.len(),
            violations[0]
        )
    });
    harvest_phases(&mut out, &sim);
    let counters = *sim.api().counters();
    let metrics = sim.export_metrics();
    out.kernel_threads = metrics.gauge("kernel.threads").unwrap_or(0.0);
    let nodes = scn.nodes as f64;
    let (router, summary) = ctx.tracer.span("sim.finish", |_| sim.finish());
    out.events = counters.events();
    out.digest = run_digest(&summary, &router);
    ctx.pinned(&mut out, 1);

    let stats = router.stats();
    let gauge = |name: &str| metrics.gauge(name).unwrap_or(0.0);
    let done = counters.transfers_completed as f64;
    let useful = done / (done + counters.transfers_aborted as f64).max(1.0);
    let per_relay = stats.settlements as f64 / (summary.relays_completed as f64).max(1.0);
    for (name, value) in [
        ("kernel.events", counters.events() as f64),
        ("kernel.contacts_up", counters.contacts_up as f64),
        ("kernel.contact_pairs", counters.contact_pairs as f64),
        ("kernel.transfers_completed", done),
        (
            "kernel.transfers_aborted",
            counters.transfers_aborted as f64,
        ),
        (
            "kernel.transfers_retried",
            counters.transfers_retried as f64,
        ),
        (
            "kernel.transfers_resumed",
            counters.transfers_resumed as f64,
        ),
        (
            "kernel.transfer_batch_senders",
            counters.transfer_batch_senders as f64,
        ),
        ("kernel.ttl_expiries", counters.ttl_expiries as f64),
        ("transfers.useful_ratio", useful),
        (
            "arena.interest_bytes_per_node",
            gauge("arena.interest_bytes") / nodes,
        ),
        (
            "arena.reputation_bytes_per_node",
            gauge("arena.reputation_bytes") / nodes,
        ),
        (
            "settlement.watched_pairs",
            gauge("settlement.watched_pairs"),
        ),
        (
            "settlement.wheel_occupancy",
            gauge("settlement.wheel_occupancy"),
        ),
        ("protocol.settlements", stats.settlements as f64),
        ("protocol.prepayments", stats.prepayments as f64),
        (
            "protocol.refused_broke_destination",
            stats.refused_broke_destination as f64,
        ),
        (
            "protocol.refused_unaffordable_prepay",
            stats.refused_unaffordable_prepay as f64,
        ),
        (
            "protocol.refused_distrusted_sender",
            stats.refused_distrusted_sender as f64,
        ),
        (
            "protocol.refused_suspected_dropper",
            stats.refused_suspected_dropper as f64,
        ),
        ("protocol.strategy_drops", stats.strategy_drops as f64),
        ("protocol.whitewash_churns", stats.whitewash_churns as f64),
        (
            "protocol.gossip_replays_rejected",
            stats.gossip_replays_rejected as f64,
        ),
        ("protocol.settle_per_relay", per_relay),
    ] {
        out.put(name, value);
    }
    out
}

/// One checkpoint round trip: capture, save, drop the live simulation,
/// load, restore. The run continues from the returned simulation.
fn checkpoint(
    ctx: &mut Ctx<'_>,
    out: &mut OpOutcome,
    sim: Simulation<DcimRouter>,
    meta: &RunMeta,
    at: SimTime,
) -> Result<Simulation<DcimRouter>, String> {
    let dir = ctx.out_dir.join("snapshots");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.dtnsnap", std::process::id(), at.as_secs()));
    let rss_before = peak_rss_mb();
    let first = !out.layer.iter().any(|(n, _)| n == "snapshot.capture_s");

    let t = Instant::now();
    let world = ctx.tracer.span("sim.snapshot", |_| sim.snapshot());
    let capture = t.elapsed().as_secs_f64();
    let doc = SnapshotDoc {
        meta: meta.clone(),
        world,
    };
    let t = Instant::now();
    let saved = ctx
        .tracer
        .span("snapshot.save", |_| dtn_sim::snapshot::save(&doc, &path));
    let save = t.elapsed().as_secs_f64();
    saved.map_err(|e| format!("save at {}s: {e}", at.as_secs()))?;
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    drop(doc);
    drop(sim);

    let t = Instant::now();
    let loaded = ctx
        .tracer
        .span("resume.read_snapshot", |_| read_snapshot(&path));
    let load = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    let doc = loaded.map_err(|e| format!("load at {}s: {e}", at.as_secs()))?;
    let profile = ctx.profile();
    let t = Instant::now();
    let restored = ctx.tracer.span("resume.resume_simulation", |_| {
        if profile {
            // `resume_simulation` with the phase profiler switched on: the
            // same rebuild and restore, so phases keep being timed.
            let m = &doc.meta;
            let mut sim =
                build_simulation_opts(&m.scenario, m.arm, m.seed, None, m.check_every, true);
            sim.restore(&doc.world).map(|()| sim)
        } else {
            resume_simulation(&doc)
        }
    });
    let restore = t.elapsed().as_secs_f64();
    let sim = restored.map_err(|e| format!("restore at {}s: {e}", at.as_secs()))?;

    for (name, value) in [
        ("snapshot.capture_s", capture),
        ("snapshot.save_s", save),
        ("snapshot.load_s", load),
        ("snapshot.restore_s", restore),
        ("snapshot.checkpoint_s", capture + save),
        ("snapshot.resume_s", load + restore),
        ("snapshot.bytes", bytes as f64),
    ] {
        out.put(name, value);
    }
    if first {
        out.put("snapshot.rss_step_mb", peak_rss_mb() - rss_before);
    }
    Ok(sim)
}

/// Empties (or creates) `dir`, returning whether it is empty afterwards.
pub fn fresh_dir(dir: &Path) -> bool {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).is_ok()
        && std::fs::read_dir(dir).is_ok_and(|mut entries| entries.next().is_none())
}

/// One figure-suite pass: the grid through `run_cells` with a fresh disk
/// cache tier, then again from disk after `clear_memo`.
fn suite_op(ctx: &mut Ctx<'_>, world_seed: u64) -> OpOutcome {
    let plan = suite_plan(ctx.scale, world_seed);
    let cells = plan.len() as u64;
    let mut out = OpOutcome {
        world_seed,
        attempted: cells,
        sim_s: plan.iter().map(|c| c.scenario.duration_secs).sum(),
        ..OpOutcome::default()
    };
    let dir = ctx
        .out_dir
        .join(format!("sweep-cache-{}", std::process::id()));
    out.check(fresh_dir(&dir), cells, || {
        format!("sweep cache dir {} does not start empty", dir.display())
    });
    sweep::set_workers(crate::host::nproc().min(2));

    let t = Instant::now();
    let keys = ctx.tracer.span("sweep.cache_key", |_| {
        plan.iter().map(Cell::cache_key).collect::<Vec<u128>>()
    });
    let key_us = t.elapsed().as_secs_f64() * 1e6 / cells as f64;
    drop(keys);

    ctx.tracer.span("sweep.set_cache_dir", |_| {
        sweep::set_cache_dir(Some(dir.clone()));
    });
    ctx.tracer.span("sweep.clear_memo", |_| sweep::clear_memo());
    let before = ctx.tracer.span("sweep.metrics", |_| sweep::metrics());
    let t = Instant::now();
    let cold = ctx
        .tracer
        .span("sweep.run_cells", |_| sweep::run_cells(&plan));
    out.wall_s = t.elapsed().as_secs_f64();
    let mid = ctx.tracer.span("sweep.metrics", |_| sweep::metrics());

    ctx.tracer.span("sweep.clear_memo", |_| sweep::clear_memo());
    let t = Instant::now();
    let warm = ctx
        .tracer
        .span("sweep.run_cells", |_| sweep::run_cells(&plan));
    let warm_s = t.elapsed().as_secs_f64();
    let after = ctx.tracer.span("sweep.metrics", |_| sweep::metrics());
    sweep::set_cache_dir(None);
    let _ = std::fs::remove_dir_all(&dir);

    let cells_run = mid.cells_run - before.cells_run;
    let cold_disk_hits = mid.disk_hits - before.disk_hits;
    let warm_hits = after.disk_hits - mid.disk_hits;
    let hit_frac = warm_hits as f64 / cells as f64;
    out.check(cold_disk_hits == 0, cells, || {
        format!("cold pass found {cold_disk_hits} cells on disk")
    });
    let mismatched = cold.iter().zip(&warm).filter(|(c, w)| c != w).count() as u64;
    out.check(
        mismatched == 0 && warm.len() == cold.len(),
        mismatched.max(1),
        || format!("{mismatched} warm cells differ from the cold cells"),
    );
    out.check(warm_hits == cells, cells - warm_hits.min(cells), || {
        format!("warm pass served {warm_hits}/{cells} cells from disk")
    });
    out.digest = suite_digest(&cold);
    ctx.pinned(&mut out, cells);

    for (name, value) in [
        ("sweep.cells_run", cells_run as f64),
        ("sweep.cache_key_us", key_us),
        ("sweep.cold_s", out.wall_s),
        ("sweep.warm_s", warm_s),
        ("sweep.warm_hit_frac", hit_frac),
    ] {
        out.put(name, value);
    }
    out
}

/// The digest of a suite pass: every cell result, in plan order.
fn suite_digest(results: &[CellResult]) -> String {
    let text: Vec<String> = results
        .iter()
        .map(|r| serde_json::to_string(r).expect("cell result serializes"))
        .collect();
    digest(text.join("\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_dir_empties_a_used_cache_dir() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-fresh-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("nested")).unwrap();
        std::fs::write(dir.join("stale.entry"), b"old").unwrap();
        assert!(fresh_dir(&dir));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_wrong_pinned_digest_fails_the_operation() {
        // paper-dense takes no checkpoints, so nothing is written here.
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let right = |seed: u64| crate::pinned_digest("smoke/paper-dense", seed);
        let wrong = |_: u64| Some("0".repeat(32));
        let mut failed = Vec::new();
        for pins in [&right as &dyn Fn(u64) -> Option<String>, &wrong] {
            let mut ctx = Ctx {
                tracer: Tracer::new(false),
                scale: Scale::Smoke,
                out_dir: out_dir.clone(),
                pins,
                checkpoints: true,
            };
            let out = run_op(&mut ctx, Workload::PaperDense, 1);
            failed.push((out.attempted, out.failed));
        }
        assert_eq!(failed[0], (1, 0), "the pinned digest holds");
        assert_eq!(failed[1], (1, 1), "a wrong digest fails the run");
    }

    #[test]
    fn every_world_seed_names_a_workload_world() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        let smoke = scenario(Workload::ChaosCheckpoint, Scale::Smoke);
        assert!(smoke.validate().is_ok());
        assert_eq!(suite_plan(Scale::Full, 1).len(), 24);
    }
}
