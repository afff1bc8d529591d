//! The repo benchmark: four closed-loop workloads driven through the
//! simulator's public API, end-to-end metrics from an untraced pass and
//! per-layer metrics from a separate traced pass.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper-dense|city-20k|chaos-checkpoint|figure-suite|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed check makes
//! the exit code 1. See README.md for the workloads and metrics.

mod host;
mod measure;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use host::HostRecord;
use measure::{median, peak_rss_mb, percentile, samples_beyond, tail_percentile};
use trace::Tracer;
use workloads::{run_op, setup_probe, Ctx, OpOutcome, Scale, Workload, WORLD_SEEDS};

/// End-to-end metrics: `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("sim_s_per_s", "s/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, reported with `--trace 1`. A layer a
/// workload does not use reads 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("phase.mobility_s", "s"),
    ("phase.fault_injection_s", "s"),
    ("phase.contact_diff_s", "s"),
    ("phase.protocol_exchange_s", "s"),
    ("phase.message_creation_s", "s"),
    ("phase.transfers_s", "s"),
    ("phase.ttl_sweep_s", "s"),
    ("phase.settlement_tick_s", "s"),
    ("phase.invariant_check_s", "s"),
    ("kernel.step_p50_us", "us"),
    ("kernel.step_tail_us", "us"),
    ("kernel.step_tail_pct", "%"),
    ("kernel.events_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("kernel.events", "count"),
    ("kernel.contacts_up", "count"),
    ("kernel.contact_pairs", "count"),
    ("kernel.transfers_completed", "count"),
    ("kernel.transfers_aborted", "count"),
    ("kernel.transfers_retried", "count"),
    ("kernel.transfers_resumed", "count"),
    ("kernel.transfer_batch_senders", "count"),
    ("kernel.ttl_expiries", "count"),
    ("transfers.useful_ratio", "ratio"),
    ("arena.interest_bytes_per_node", "B"),
    ("arena.reputation_bytes_per_node", "B"),
    ("settlement.watched_pairs", "count"),
    ("settlement.wheel_occupancy", "count"),
    ("protocol.settlements", "count"),
    ("protocol.prepayments", "count"),
    ("protocol.refused_broke_destination", "count"),
    ("protocol.refused_unaffordable_prepay", "count"),
    ("protocol.refused_distrusted_sender", "count"),
    ("protocol.refused_suspected_dropper", "count"),
    ("protocol.strategy_drops", "count"),
    ("protocol.whitewash_churns", "count"),
    ("protocol.gossip_replays_rejected", "count"),
    ("protocol.settle_per_relay", "ratio"),
    ("snapshot.capture_s", "s"),
    ("snapshot.save_s", "s"),
    ("snapshot.load_s", "s"),
    ("snapshot.restore_s", "s"),
    ("snapshot.checkpoint_s", "s"),
    ("snapshot.resume_s", "s"),
    ("snapshot.bytes", "B"),
    ("snapshot.rss_step_mb", "MB"),
    ("snapshot.share", "frac"),
    ("setup.population_s", "s"),
    ("setup.schedule_s", "s"),
    ("setup.build_s", "s"),
    ("sweep.cells_run", "count"),
    ("sweep.cache_key_us", "us"),
    ("sweep.cold_s", "s"),
    ("sweep.warm_s", "s"),
    ("sweep.warm_hit_frac", "frac"),
];

/// `build_simulation_opts` calls timed before each operation of an
/// untraced pass, so `setup_s` is a median over many set-ups.
const SETUP_PROBES: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out_dir: PathBuf,
    pin: bool,
}

fn usage() -> String {
    "usage: dtn-benchmark --workload <paper-dense|city-20k|chaos-checkpoint|figure-suite|all> \
     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>] [--pin]"
        .to_owned()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--smoke" => args.scale = Scale::Smoke,
            "--pin" => args.pin = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let workload = Workload::parse(&args.workload).expect("validated");
    if args.pin {
        return pin(&args, workload);
    }
    run_workload(&args, workload)
}

/// The pinned digest table, `<scale>/<workload> <world seed> <digest>`.
const PINS: &str = include_str!("../pins.txt");

fn pin_key(scale: Scale, workload: Workload) -> String {
    let prefix = if scale == Scale::Smoke { "smoke/" } else { "" };
    format!("{prefix}{}", workload.name())
}

fn pinned_digest(key: &str, seed: u64) -> Option<String> {
    PINS.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?, f.next()?.parse::<u64>().ok()?, f.next()?))
        })
        .find(|(k, s, _)| *k == key && *s == seed)
        .map(|(_, _, d)| d.to_owned())
}

/// Prints the digest of an uninterrupted run of every world, in the
/// format of `pins.txt`.
fn pin(args: &Args, workload: Workload) -> ExitCode {
    let none = |_: u64| None;
    let mut ctx = Ctx {
        tracer: Tracer::new(false),
        scale: args.scale,
        out_dir: args.out_dir.clone(),
        pins: &none,
        checkpoints: false,
    };
    for seed in WORLD_SEEDS {
        let out = run_op(&mut ctx, workload, seed);
        println!("{} {seed} {}", pin_key(args.scale, workload), out.digest);
    }
    ExitCode::SUCCESS
}

/// Every operation of one pass plus its set-up probes.
struct Pass {
    ops: Vec<OpOutcome>,
    probes: Vec<f64>,
    tracer: Tracer,
}

impl Pass {
    /// `work(op)` per wall second of the measured loops, over the pass.
    fn rate(&self, work: impl Fn(&OpOutcome) -> f64) -> f64 {
        let done: f64 = self.ops.iter().map(&work).sum();
        let wall: f64 = self.ops.iter().map(|o| o.wall_s).sum();
        done / wall.max(1e-12)
    }

    fn sim_s_per_s(&self) -> f64 {
        self.rate(|o| o.sim_s)
    }

    fn events_per_s(&self) -> f64 {
        self.rate(|o| o.events as f64)
    }
}

/// Runs rounds of `workload` back to back (closed loop, one simulation at
/// a time) while the next round is expected to end within half a round of
/// `budget_s`; at least one. A round is one operation on each of `worlds`,
/// each after `probes` set-up probes of that world.
fn run_pass(
    args: &Args,
    workload: Workload,
    worlds: &[u64],
    traced: bool,
    budget_s: f64,
    probes: usize,
) -> Pass {
    let key = pin_key(args.scale, workload);
    let pins = move |seed: u64| pinned_digest(&key, seed);
    let mut ctx = Ctx {
        tracer: Tracer::new(traced),
        scale: args.scale,
        out_dir: args.out_dir.clone(),
        pins: &pins,
        checkpoints: true,
    };
    let started = Instant::now();
    let mut pass = Pass {
        ops: Vec::new(),
        probes: Vec::new(),
        tracer: Tracer::new(false),
    };
    loop {
        let round = Instant::now();
        for &world in worlds {
            for _ in 0..probes {
                pass.probes.push(setup_probe(&mut ctx, workload, world));
            }
            ctx.tracer.set_op(pass.ops.len() as u32);
            let span = ctx.tracer.begin("op");
            let outcome = catch_unwind(AssertUnwindSafe(|| run_op(&mut ctx, workload, world)));
            ctx.tracer.end(span);
            pass.ops.push(outcome.unwrap_or_else(|panic| {
                let why = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                    .unwrap_or_default();
                OpOutcome {
                    world_seed: world,
                    attempted: 1,
                    failed: 1,
                    failures: vec![format!("world {world}: panicked: {why}")],
                    ..OpOutcome::default()
                }
            }));
        }
        let round_s = round.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + round_s / 2.0 >= budget_s {
            break;
        }
    }
    pass.tracer = ctx.tracer;
    pass
}

/// Per-layer value of one metric over a pass: timings are per-operation
/// medians, counts are those of the first operation (exact for a seed).
fn layer_value(ops: &[OpOutcome], name: &str) -> f64 {
    let values: Vec<f64> = ops
        .iter()
        .filter_map(|o| o.layer.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
        .collect();
    if name.ends_with("_s") || name.ends_with("_us") {
        median(&values)
    } else {
        values.first().copied().unwrap_or(0.0)
    }
}

fn run_workload(args: &Args, workload: Workload) -> ExitCode {
    let mut host = HostRecord::probe();
    let mut report = String::new();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut mismatched = 0;
    let worlds = workload.worlds(args.seed);
    let passes = if args.trace {
        // Both passes repeat the seed's first world, so that a round is one
        // operation and the run keeps to --seconds. Traced first, so the
        // first checkpoint's memory rise is measured from a process that
        // has not checkpointed yet.
        let first = &worlds[..1];
        let traced = run_pass(args, workload, first, true, args.seconds / 2.0, 0);
        let untraced = run_pass(args, workload, first, false, args.seconds / 2.0, 0);
        // The traced pass must reproduce the untraced pass exactly.
        for t in &traced.ops {
            let twin = untraced.ops.iter().find(|u| u.world_seed == t.world_seed);
            if twin.is_some_and(|u| u.digest != t.digest) {
                mismatched += 1;
            }
        }
        write_trace_report(&mut report, &traced);
        vec![traced, untraced]
    } else {
        let pass = run_pass(args, workload, &worlds, false, args.seconds, SETUP_PROBES);
        let setups: Vec<f64> = pass
            .probes
            .iter()
            .chain(pass.ops.iter().flat_map(|o| o.setup_s.iter()))
            .copied()
            .collect();
        let values = [median(&setups), pass.sim_s_per_s(), peak_rss_mb()];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, v, unit));
        }
        let worlds: Vec<String> = pass
            .ops
            .iter()
            .map(|o| format!("{}:{:.3}s", o.world_seed, o.wall_s))
            .collect();
        let _ = writeln!(
            report,
            "ops: {} (world:wall {}), set-up samples: {}, events/s: {:.1}",
            pass.ops.len(),
            worlds.join(","),
            setups.len(),
            pass.events_per_s()
        );
        vec![pass]
    };
    let ops = || passes.iter().flat_map(|p| p.ops.iter());
    let attempted: u64 = ops().map(|o| o.attempted).sum();
    let failed = ops().map(|o| o.failed).sum::<u64>() + mismatched;
    let mut failures: Vec<String> = ops().flat_map(|o| o.failures.iter().cloned()).collect();
    if mismatched > 0 {
        failures.push(format!(
            "{mismatched} traced runs differ from their untraced runs"
        ));
    }
    host.kernel_threads = ops().map(|o| o.kernel_threads).fold(0.0, f64::max);
    if workload == Workload::FigureSuite {
        host.sweep_workers = dtn_workloads::sweep::workers();
    }
    if let [traced, untraced] = passes.as_slice() {
        let values = per_layer(untraced, traced);
        for ((name, unit), (_, v)) in PER_LAYER.iter().zip(&values) {
            metrics.push((name, *v, unit));
        }
        match write_spans(args, workload, &host, &traced.tracer) {
            Ok(path) => {
                let _ = writeln!(report, "spans written to {}", path.display());
            }
            Err(e) => eprintln!("warning: spans not written: {e}"),
        }
    }

    println!(
        "workload: {}  seed: {}  seconds: {}  trace: {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", host.to_json());
    print!("{report}");
    for (name, value, unit) in &metrics {
        println!("  {name:<38} {value:>16.6} {unit}");
    }
    for f in &failures {
        println!("FAILED: {f}");
    }
    let correct = failed == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-layer numbers of a traced pass, with the untraced pass as the
/// reference for rates and tracing overhead.
fn per_layer<'a>(untraced: &Pass, traced: &Pass) -> Vec<(&'a str, f64)> {
    let mut values: Vec<(&str, f64)> = PER_LAYER
        .iter()
        .map(|(name, _)| (*name, layer_value(&traced.ops, name)))
        .collect();
    let steps_us: Vec<f64> = traced
        .tracer
        .durations("sim.step_once")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let tail = tail_percentile(steps_us.len());
    set(&mut values, "kernel.step_p50_us", median(&steps_us));
    set(&mut values, "kernel.step_tail_pct", tail.unwrap_or(0.0));
    set(
        &mut values,
        "kernel.step_tail_us",
        tail.map_or(0.0, |p| percentile(&steps_us, p)),
    );
    set(&mut values, "kernel.events_per_s", untraced.events_per_s());
    set(
        &mut values,
        "trace.overhead_frac",
        traced.sim_s_per_s() / untraced.sim_s_per_s().max(1e-12) - 1.0,
    );
    let builds = traced.tracer.durations("setup.build");
    set(&mut values, "setup.build_s", median(&builds));
    let checkpoint_share: Vec<f64> = traced
        .ops
        .iter()
        .map(|o| {
            let secs: f64 = o
                .layer
                .iter()
                .filter(|(k, _)| k == "snapshot.checkpoint_s" || k == "snapshot.resume_s")
                .map(|(_, v)| v)
                .sum();
            secs / o.wall_s.max(1e-12)
        })
        .collect();
    set(&mut values, "snapshot.share", median(&checkpoint_share));
    values
}

/// Overwrites the value of metric `name` in `values`.
fn set(values: &mut [(&str, f64)], name: &str, v: f64) {
    if let Some(slot) = values.iter_mut().find(|(n, _)| *n == name) {
        slot.1 = v;
    }
}

/// The phase-share table and the span summary (count, total, self time).
fn write_trace_report(report: &mut String, traced: &Pass) {
    let phases: Vec<(String, f64)> = PER_LAYER
        .iter()
        .filter(|(n, _)| n.starts_with("phase."))
        .map(|(n, _)| ((*n).to_owned(), layer_value(&traced.ops, n)))
        .collect();
    let total: f64 = phases.iter().map(|(_, v)| v).sum();
    if total > 0.0 {
        let _ = writeln!(report, "phase shares (median per operation):");
        for (name, v) in &phases {
            let _ = writeln!(report, "  {name:<30} {:>6.1}%", 100.0 * v / total);
        }
    }
    let _ = writeln!(report, "spans: name, count, total s, self s");
    for (name, count, total, own) in traced.tracer.summary() {
        let _ = writeln!(report, "  {name:<30} {count:>8} {total:>12.6} {own:>12.6}");
    }
    let n = traced.tracer.durations("sim.step_once").len();
    if let Some(p) = tail_percentile(n) {
        let _ = writeln!(
            report,
            "step tail: p{p} of {n} steps ({} beyond)",
            samples_beyond(n, p)
        );
    }
}

/// Writes the traced pass's spans, after a host line, under the out dir.
fn write_spans(
    args: &Args,
    workload: Workload,
    host: &HostRecord,
    tracer: &Tracer,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&args.out_dir)?;
    let path = args
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", workload.name(), args.seed));
    let body = format!(
        "{{\"workload\":{:?},\"seed\":{},\"host\":{}}}\n{}",
        workload.name(),
        args.seed,
        host.to_json(),
        tracer.to_jsonl()
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

/// The result line: `{"correct","attempted","failed","metrics"}`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite number as JSON, with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Runs every workload, each in its own process so each has its own peak
/// memory, and folds their result lines into one.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    for workload in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&args.out_dir);
        if args.scale == Scale::Smoke {
            cmd.arg("--smoke");
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: cannot run: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let Some(result) = stdout
            .lines()
            .last()
            .and_then(|l| serde_json::from_str::<serde_json::Value>(l).ok())
        else {
            eprintln!("{}: no result line", workload.name());
            return ExitCode::FAILURE;
        };
        let num = |v: Option<&serde_json::Value>| match v {
            Some(serde_json::Value::U64(n)) => *n as f64,
            Some(serde_json::Value::I64(n)) => *n as f64,
            Some(serde_json::Value::F64(x)) => *x,
            _ => 0.0,
        };
        correct &= matches!(result.get("correct"), Some(serde_json::Value::Bool(true)));
        attempted += num(result.get("attempted")) as u64;
        failed += num(result.get("failed")) as u64;
        for (name, m) in result
            .get("metrics")
            .and_then(|m| m.as_map())
            .unwrap_or(&[])
        {
            let unit = match m.get("unit") {
                Some(serde_json::Value::Str(u)) => u.clone(),
                _ => String::new(),
            };
            metrics.push((
                format!("{}.{name}", workload.name()),
                num(m.get("value")),
                unit,
            ));
        }
    }
    let borrowed: Vec<(&str, f64, &str)> = metrics
        .iter()
        .map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
        .collect();
    let correct = correct && failed == 0;
    println!("{}", result_line(correct, attempted, failed, &borrowed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        let field = |m: &serde_json::Value, k: &str| match m.get(k) {
            Some(serde_json::Value::Str(s)) => s.clone(),
            other => panic!("{key}.{k}: {other:?}"),
        };
        doc.get(key)
            .and_then(serde_json::Value::as_seq)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(serde_json::Value::as_seq)
            .unwrap()
            .iter()
            .map(|w| match w.get("name") {
                Some(serde_json::Value::Str(s)) => s.clone(),
                _ => panic!("workload without a name"),
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn pinned_digests_cover_every_world_of_every_workload() {
        for scale in [Scale::Full, Scale::Smoke] {
            for w in Workload::ALL {
                for seed in WORLD_SEEDS {
                    let key = pin_key(scale, w);
                    let pin = pinned_digest(&key, seed).expect("pinned");
                    assert_eq!(pin.len(), 32);
                }
            }
        }
    }

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let line = result_line(true, 3, 0, &[("setup_s", 0.123_456_789_012_3, "s")]);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("0.1234567890123"));
    }
}
