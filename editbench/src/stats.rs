//! Exact order statistics over raw per-event samples.
//!
//! Every percentile the benchmark reports is read off the sorted sample
//! vector itself (nearest rank), never interpolated and never taken from a
//! bucketed histogram, so two runs with equal samples report equal numbers.

/// How many samples must lie beyond the tail statistic.
pub const TAIL_BEYOND: usize = 10;

/// A sorted set of latency samples, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<u64>,
}

/// The tail statistic: the highest percentile that still leaves
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub nanos: u64,
    /// The percentile the value sits at, in `(0, 100]`.
    pub percentile: f64,
    /// Samples strictly above the value's rank (`TAIL_BEYOND`, or 0 when
    /// there are too few samples and the maximum is reported instead).
    pub beyond: usize,
}

impl Samples {
    pub fn new(mut nanos: Vec<u64>) -> Samples {
        nanos.sort_unstable();
        Samples { sorted: nanos }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank percentile: the smallest sample with at least `p`
    /// percent of the samples at or below it.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(self.sorted[rank.clamp(1, n) - 1])
    }

    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// The sample with exactly [`TAIL_BEYOND`] samples ranked above it. When
    /// that sample would rank no higher than the median (fewer than
    /// `2 * TAIL_BEYOND + 2` samples) the set is too small for a tail, and
    /// the maximum is reported with `beyond = 0`.
    pub fn tail(&self) -> Option<Tail> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        if n < 2 * TAIL_BEYOND + 2 {
            return Some(Tail {
                nanos: self.sorted[n - 1],
                percentile: 100.0,
                beyond: 0,
            });
        }
        let rank = n - TAIL_BEYOND;
        Some(Tail {
            nanos: self.sorted[rank - 1],
            percentile: 100.0 * rank as f64 / n as f64,
            beyond: TAIL_BEYOND,
        })
    }
}

/// The median of a few measurements (set-up repetitions); the mean of the
/// middle two for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Per-event minima over several passes of one trace: element `i` is the
/// smallest of the passes' `i`-th samples. Every pass does the same work
/// from a fresh engine, so the spread between them is the machine's, not
/// the program's; the minimum is the estimate of an event's cost least
/// affected by other load on the host. `None` when the passes recorded
/// different numbers of samples.
pub fn per_event_min(passes: &[&[u64]]) -> Option<Vec<u64>> {
    let len = passes.first()?.len();
    if passes.iter().any(|p| p.len() != len) {
        return None;
    }
    let minima = (0..len)
        .map(|i| {
            passes
                .iter()
                .map(|p| p[i])
                .min()
                .expect("at least one pass")
        })
        .collect();
    Some(minima)
}

pub fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shuffled(n: u64) -> Vec<u64> {
        // A fixed permutation of 1..=n (multiplication by a unit mod n+1
        // when n+1 is prime), so the input is not pre-sorted.
        (1..=n).map(|i| (i * 37) % (n + 1)).collect()
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let s = Samples::new(shuffled(100));
        assert_eq!(s.len(), 100);
        assert_eq!(s.p50(), Some(50));
        assert_eq!(s.percentile(90.0), Some(90));
        assert_eq!(s.percentile(99.0), Some(99));
        assert_eq!(s.percentile(100.0), Some(100));
        assert_eq!(s.percentile(0.0), Some(1));
        assert_eq!(
            s.tail(),
            Some(Tail {
                nanos: 90,
                percentile: 90.0,
                beyond: 10
            })
        );
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond_it() {
        let s = Samples::new(shuffled(400));
        let tail = s.tail().unwrap();
        assert_eq!(tail.nanos, 390);
        assert_eq!(tail.percentile, 97.5);
        assert_eq!(s.sorted.iter().filter(|&&v| v > tail.nanos).count(), 10);

        // Odd counts: the median is the middle sample, not an average.
        let odd = Samples::new(vec![7, 1, 5, 3, 9]);
        assert_eq!(odd.p50(), Some(5));
        assert_eq!(Samples::new(vec![4, 1, 3, 2]).p50(), Some(2));
    }

    #[test]
    fn short_sample_sets_report_the_maximum_as_tail() {
        let s = Samples::new(vec![5, 3, 8, 1]);
        assert_eq!(
            s.tail(),
            Some(Tail {
                nanos: 8,
                percentile: 100.0,
                beyond: 0
            })
        );
        // Below 22 samples the sample with 10 beyond it would not rank
        // above the median.
        let twelve = Samples::new((1..=12).collect());
        assert_eq!(twelve.tail().unwrap().nanos, 12);
        assert_eq!(twelve.tail().unwrap().beyond, 0);
        let small = Samples::new((1..=21).collect());
        assert_eq!(small.tail().unwrap().nanos, 21);
        let enough = Samples::new((1..=22).collect());
        assert_eq!(enough.tail().unwrap().nanos, 12);
        assert!(enough.tail().unwrap().nanos > enough.p50().unwrap());
        assert_eq!(enough.tail().unwrap().beyond, 10);
        assert!(Samples::default().tail().is_none());
        assert!(Samples::default().p50().is_none());
    }

    #[test]
    fn per_event_minima_drop_slow_passes() {
        let a = [10, 20, 30];
        let b = [11, 90, 29];
        let c = [12, 21, 31];
        assert_eq!(per_event_min(&[&a, &b, &c]), Some(vec![10, 20, 29]));
        assert_eq!(per_event_min(&[&a]), Some(a.to_vec()));
        assert_eq!(per_event_min(&[&b, &c]), Some(vec![11, 21, 29]));
        assert_eq!(per_event_min(&[&a, &b[..2]]), None);
        assert_eq!(per_event_min(&[]), None);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
