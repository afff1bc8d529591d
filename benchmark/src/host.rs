//! The host and build record stamped on every result.

use std::path::Path;

/// Core count of the host the committed reference numbers were taken on
/// (see README.md). Results from a host with another count are labelled.
pub const REFERENCE_NPROC: usize = 2;

/// Where and how a result was produced.
pub struct HostRecord {
    /// Available parallelism.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Commit of the checkout, when it is a git checkout.
    pub git_commit: String,
    /// `release` or `debug`.
    pub build_profile: &'static str,
    /// `kernel.threads` gauge of the workload's simulations (0 when the
    /// workload runs none directly).
    pub kernel_threads: f64,
    /// Sweep executor pool size (0 when the workload runs no sweep).
    pub sweep_workers: usize,
}

impl HostRecord {
    /// Probes the host; the two gauges are filled in by the workload.
    #[must_use]
    pub fn probe() -> Self {
        HostRecord {
            nproc: nproc(),
            cpu_model: cpu_model(),
            git_commit: git_commit(Path::new(".")),
            build_profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            kernel_threads: 0.0,
            sweep_workers: 0,
        }
    }

    /// `reference`, or why this host's numbers must not be compared with
    /// the reference numbers.
    #[must_use]
    pub fn host_class(&self) -> String {
        if self.nproc == REFERENCE_NPROC {
            "reference".to_owned()
        } else {
            format!(
                "differs: nproc {} vs reference {REFERENCE_NPROC}; do not compare with reference numbers",
                self.nproc
            )
        }
    }

    /// The record as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{:?},\"git_commit\":{:?},\"build_profile\":{:?},\
             \"kernel_threads\":{},\"sweep_workers\":{},\"host_class\":{:?}}}",
            self.nproc,
            self.cpu_model,
            self.git_commit,
            self.build_profile,
            self.kernel_threads,
            self.sweep_workers,
            self.host_class()
        )
    }
}

/// Available parallelism, at least 1.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit `root/.git` points at, read from the files rather than by
/// running git, so nothing outside the checkout is consulted.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none (not a git checkout)".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_owned())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| format!("unresolved ({reference})"))
}
