//! Order statistics over timing samples.
//!
//! Every reported timing is a median or a nearest-rank percentile of the
//! raw samples of one run; nothing is averaged away. A percentile is only
//! reported when at least [`MIN_TAIL`] samples lie beyond it, so a "p95"
//! read from twenty samples can never pass for a measured tail.

/// Samples that must lie strictly beyond a percentile before it is
/// reported.
pub const MIN_TAIL: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count). Panics on an
/// empty slice: every caller measures at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The arithmetic mean. Panics on an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The `p`-th percentile by nearest rank, refused (with the reason) when
/// fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("p{p} of no samples"));
    }
    let k = rank(p, samples.len());
    let beyond = samples.len() - k;
    if beyond < MIN_TAIL {
        return Err(format!(
            "p{p} of {} samples has {beyond} beyond it (need {MIN_TAIL})",
            samples.len()
        ));
    }
    Ok(sorted(samples)[k - 1])
}
