//! Order statistics the benchmark reports: medians, quartiles (the
//! rule Python's `statistics.quantiles(values, n=4)` uses), and the
//! tail-percentile rule (report the highest percentile that still has
//! at least ten samples beyond it).

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The percentiles the tail rule chooses from, lowest first.
pub const PERCENTILE_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// `values` sorted ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`. A single value is its own
/// quartiles; NaNs when empty.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    if m == 0 {
        return (f64::NAN, f64::NAN);
    }
    if m == 1 {
        return (v[0], v[0]);
    }
    let n = 4usize;
    let cut = |i: usize| {
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = nearest_rank(sorted.len(), p);
    sorted[rank - 1]
}

fn nearest_rank(n: usize, p: f64) -> usize {
    // The tolerance keeps 99.9% of 10000 at rank 9990, not 9991.
    let exact = p / 100.0 * n as f64;
    ((exact - 1e-9 * exact.max(1.0)).ceil() as usize).clamp(1, n)
}

/// Does percentile `p` of `n` samples have at least [`TAIL_SAMPLES`]
/// samples beyond it?
pub fn has_tail(n: usize, p: f64) -> bool {
    n > 0 && n - nearest_rank(n, p) >= TAIL_SAMPLES
}

/// The highest percentile of [`PERCENTILE_LADDER`] that `n` samples can
/// report with at least ten samples beyond it; `None` below 20 samples.
pub fn reportable_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| has_tail(n, p))
}

/// Median, quartiles and the tail rule of one sample set, for the
/// human-readable tables.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// The highest reportable percentile and its value, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `values`.
    pub fn of(values: &[f64]) -> Self {
        let v = sorted(values);
        let (q1, q3) = quartiles(&v);
        Summary {
            n: v.len(),
            median: median(&v),
            q1,
            q3,
            tail: reportable_percentile(v.len()).map(|p| (p, percentile(&v, p))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
