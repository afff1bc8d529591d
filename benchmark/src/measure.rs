//! Small measurement helpers: order statistics, the tail-percentile rule,
//! peak resident memory and the output digest.

/// Percentiles tried for the tail figure, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0–100) of `samples` by nearest rank; `0.0` when
/// empty.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// The median of `samples`; `0.0` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest percentile of the ladder that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median does not (fewer than 20 samples).
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| samples_beyond(n, *p) >= TAIL_MIN_BEYOND)
}

/// How many of `n` nearest-rank-sorted samples lie strictly above the
/// `p`-th percentile's rank.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// Peak resident set size of this process (`VmHWM`), in MB. Each workload
/// runs in its own process, so this is the workload's own peak.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 128-bit FNV-1a over `bytes`, as 32 hex digits: the output digest the
/// pinned table records.
#[must_use]
pub fn digest(bytes: &[u8]) -> String {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut state = OFFSET;
    for &b in bytes {
        state ^= u128::from(b);
        state = state.wrapping_mul(PRIME);
    }
    format!("{state:032x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(43_200), Some(99.9));
        assert_eq!(tail_percentile(10_000_000), Some(99.999));
        for n in [20, 100, 1_000, 43_200, 123_457] {
            let p = tail_percentile(n).unwrap();
            assert!(samples_beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn tail_percentile_reports_the_value_with_ten_beyond() {
        let samples: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let p = tail_percentile(samples.len()).unwrap();
        let value = percentile(&samples, p);
        assert_eq!(value, 990.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);
    }

    #[test]
    fn median_and_percentile_by_nearest_rank() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 100.0), 5.0);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.0), 1.0);
    }

    #[test]
    fn peak_rss_is_read_from_procfs() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(digest(b""), "6c62272e07bb014262b821756295c58d");
        assert_ne!(digest(b"a"), digest(b"b"));
    }
}
