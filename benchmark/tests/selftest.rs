//! Self-tests of the benchmark binary on the smoke-scale worlds.

use std::path::PathBuf;
use std::process::Command;

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the benchmark on smoke worlds; returns the exit code, the whole
/// standard output and the parsed result line.
fn run(dir: &PathBuf, args: &[&str]) -> (i32, String, serde_json::Value) {
    let output = Command::new(env!("CARGO_BIN_EXE_dtn-benchmark"))
        .args(["--smoke", "--seed", "1", "--seconds", "1"])
        .args(args)
        .arg("--out-dir")
        .arg(dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line").to_owned();
    let result = serde_json::from_str(&last).expect("the last line is JSON");
    (output.status.code().unwrap_or(-1), stdout, result)
}

fn metric(result: &serde_json::Value, name: &str) -> f64 {
    match result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
    {
        Some(serde_json::Value::F64(v)) => *v,
        Some(serde_json::Value::U64(v)) => *v as f64,
        other => panic!("metric {name} missing: {other:?}"),
    }
}

fn count(result: &serde_json::Value, key: &str) -> u64 {
    match result.get(key) {
        Some(serde_json::Value::U64(v)) => *v,
        other => panic!("{key} missing: {other:?}"),
    }
}

#[test]
fn every_workload_passes_its_checks_untraced_and_traced() {
    let dir = out_dir("all");
    for trace in ["0", "1"] {
        let (code, stdout, result) = run(&dir, &["--workload", "all", "--trace", trace]);
        assert_eq!(code, 0, "{stdout}");
        assert_eq!(result.get("correct"), Some(&serde_json::Value::Bool(true)));
        assert_eq!(count(&result, "failed"), 0);
        assert!(count(&result, "attempted") >= 4);
    }
}

#[test]
fn peak_memory_is_measured_per_workload() {
    // `all` runs the workloads in order in one command. The figure suite
    // comes last and holds far less than the 1000-node city or the
    // checkpointing world; a peak read per process would carry theirs over.
    let dir = out_dir("rss");
    let (code, stdout, result) = run(&dir, &["--workload", "all", "--trace", "0"]);
    assert_eq!(code, 0, "{stdout}");
    let suite = metric(&result, "figure-suite.peak_rss_mb");
    let city = metric(&result, "city-20k.peak_rss_mb");
    let chaos = metric(&result, "chaos-checkpoint.peak_rss_mb");
    assert!(suite > 0.0);
    assert!(
        suite < city.max(chaos),
        "suite {suite} MB, city {city} MB, chaos {chaos} MB"
    );
}

#[test]
fn the_figure_suite_cache_starts_empty_on_every_run() {
    // Each pass checks that its cold run found nothing on disk and that
    // its warm run found every cell there; two runs in the same out dir
    // must both pass, so nothing leaks from the first into the second.
    let dir = out_dir("suite");
    for _ in 0..2 {
        let (code, stdout, result) = run(&dir, &["--workload", "figure-suite", "--trace", "1"]);
        assert_eq!(code, 0, "{stdout}");
        assert_eq!(metric(&result, "sweep.warm_hit_frac"), 1.0);
        assert!(metric(&result, "sweep.cells_run") > 0.0);
    }
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("sweep-cache"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "cache dirs left behind: {leftovers:?}"
    );
}

#[test]
fn spans_touch_only_the_layers_a_workload_uses() {
    let dir = out_dir("spans");
    for (workload, snapshots, sweeps) in [
        ("paper-dense", false, false),
        ("city-20k", false, false),
        ("chaos-checkpoint", true, false),
        ("figure-suite", false, true),
    ] {
        let (code, stdout, _) = run(&dir, &["--workload", workload, "--trace", "1"]);
        assert_eq!(code, 0, "{stdout}");
        let spans =
            std::fs::read_to_string(dir.join(format!("spans-{workload}-seed1.jsonl"))).unwrap();
        let has = |prefix: &str| spans.contains(&format!("\"name\":\"{prefix}"));
        assert_eq!(has("snapshot.") || has("resume."), snapshots, "{workload}");
        assert_eq!(has("sweep."), sweeps, "{workload}");
        assert_eq!(has("sim.step_once"), !sweeps, "{workload}");
    }
}
