//! Order statistics, and the rule by which a metric's bound flags a
//! regression.

/// Sort a copy of `samples` ascending (NaN-free input assumed: every
/// sample is a measured time, rate or count).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); `None` for
/// no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// The nearest-rank `p`-th percentile of `samples`, reported only when
/// at least ten samples lie beyond it — a tail estimate resting on
/// fewer is noise. `p` is in (0, 100).
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    if rank == 0 || n.saturating_sub(rank) < 10 {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// Which direction of a metric is an improvement.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Times, memory, overheads.
    Lower,
    /// Rates.
    Higher,
}

/// The regression rule the benchmark's bounds are enforced with: the
/// change regressed when its median is worse than the parent's median
/// by more than `bound`, a share of the parent's median.
#[cfg(test)]
pub fn regressed(parent: &[f64], change: &[f64], better: Better, bound: f64) -> bool {
    let (Some(p), Some(c)) = (median(parent), median(change)) else {
        return false;
    };
    let worse_by = match better {
        Better::Lower => (c - p) / p,
        Better::Higher => (p - c) / p,
    };
    worse_by > bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten beyond.
        assert_eq!(tail_percentile(&hundred, 90.0), Some(90.0));
        // p99 of 100 samples would rest on one sample.
        assert_eq!(tail_percentile(&hundred, 99.0), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&thousand[..999], 99.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn regression_rule_respects_direction_and_bound() {
        let parent = [10.0, 10.0, 10.0];
        assert!(regressed(&parent, &[13.0; 3], Better::Lower, 0.25));
        assert!(!regressed(&parent, &[12.0; 3], Better::Lower, 0.25));
        assert!(!regressed(&parent, &[7.0; 3], Better::Lower, 0.25));
        assert!(regressed(&parent, &[7.0; 3], Better::Higher, 0.25));
        assert!(!regressed(&parent, &[13.0; 3], Better::Higher, 0.25));
    }
}
