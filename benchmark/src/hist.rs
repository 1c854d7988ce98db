//! A zero-allocation log-bucketed histogram for wall-clock latencies.
//!
//! `netsim::stats::Histogram` is fixed-width and keyed on simulation
//! time; latencies measured here span five orders of magnitude (a 3 µs
//! burst next to a 30 ms scheduler stall), so buckets are laid out the
//! HDR way: values below `SUB` get one bucket each, and every octave
//! above is cut into `SUB` equal sub-buckets. A bucket is therefore never
//! wider than `1/SUB` of its lower bound, and reporting the bucket
//! midpoint bounds the relative error at `1/(2·SUB)` — 0.8 %, well inside
//! the 3 % the benchmark promises.
//!
//! The table is a fixed array: `record`, `merge`, `clear` and
//! `percentile` never touch the allocator, so a histogram can be fed from
//! inside the allocation-counted window.

/// Sub-buckets per octave.
const SUB: u64 = 64;
const SUB_BITS: u32 = 6;
/// Octaves above the linear range: covers values up to 2^(6+36) ns ≈ 73
/// minutes; anything larger lands in the last bucket.
const OCTAVES: usize = 36;
const BUCKETS: usize = (OCTAVES + 1) * SUB as usize;

/// Largest relative distance between a recorded value and the value its
/// bucket reports.
#[cfg(test)]
const MAX_REL_ERROR: f64 = 1.0 / (2 * SUB) as f64;

/// Log-bucketed counts of `u64` samples (nanoseconds, by convention).
#[derive(Clone)]
pub struct LogHist {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let idx = (shift as usize + 1) * SUB as usize + ((v >> shift) & (SUB - 1)) as usize;
    idx.min(BUCKETS - 1)
}

/// A bucket's lower bound and width.
fn span_of(idx: usize) -> (u64, u64) {
    if idx < SUB as usize {
        return (idx as u64, 1);
    }
    let shift = (idx / SUB as usize - 1) as u32;
    ((SUB + (idx as u64 % SUB)) << shift, 1u64 << shift)
}

/// The value a bucket reports for a lone sample: exact in the linear
/// range, the midpoint above it.
#[cfg(test)]
fn value_of(idx: usize) -> u64 {
    let (lower, width) = span_of(idx);
    lower + width / 2
}

impl LogHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            total: 0,
        }
    }

    /// Count one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Add every sample of `other` to this histogram.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Forget every sample.
    pub fn clear(&mut self) {
        self.counts = [0; BUCKETS];
        self.total = 0;
    }

    /// The value at percentile `p` (0–100) together with the number of
    /// samples it was read from, or `None` when empty. The rank is the
    /// nearest-rank one (the smallest value with at least `p` % of the
    /// samples at or below it); inside the bucket holding that rank the
    /// samples are taken as evenly spread, so the value moves with the
    /// counts instead of jumping from bucket midpoint to bucket midpoint.
    pub fn percentile(&self, p: f64) -> Option<(f64, u64)> {
        if self.total == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lower, width) = span_of(idx);
                let value = if width == 1 {
                    lower as f64
                } else {
                    let into = (rank - seen) as f64 - 0.5;
                    lower as f64 + width as f64 * into / c as f64
                };
                return Some((value, self.total));
            }
            seen += c;
        }
        unreachable!("the counts add up to the total")
    }

    /// `percentile` in microseconds, 0.0 when empty.
    pub fn percentile_us(&self, p: f64) -> f64 {
        self.percentile(p).map_or(0.0, |(ns, _)| ns / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHist::new();
        for v in 0..SUB {
            h.record(v);
        }
        assert_eq!(h.count(), SUB);
        assert_eq!(h.percentile(100.0), Some(((SUB - 1) as f64, SUB)));
        assert_eq!(h.percentile(0.0), Some((0.0, SUB)));
    }

    #[test]
    fn bucket_error_stays_under_three_percent() {
        // Walk a geometric ladder across the whole range plus the values
        // either side of every power of two.
        let mut probes = Vec::new();
        let mut v = 1u64;
        while v < 1u64 << 40 {
            probes.extend([v.saturating_sub(1), v, v + 1, v + v / 3, v + v / 2]);
            v *= 2;
        }
        for v in probes {
            let got = value_of(bucket_of(v));
            let err = (got as f64 - v as f64).abs() / (v.max(1)) as f64;
            assert!(err <= MAX_REL_ERROR + 1e-12, "{v} reported as {got}");
            assert!(err < 0.03);
        }
    }

    #[test]
    fn buckets_are_monotone() {
        let mut last = 0;
        for v in (0..1u64 << 20).step_by(7) {
            let b = bucket_of(v);
            assert!(b >= last, "bucket order broke at {v}");
            last = b;
        }
    }

    #[test]
    fn percentiles_follow_nearest_rank() {
        let mut h = LogHist::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let within = |p: f64, want: f64| {
            let (got, n) = h.percentile(p).unwrap();
            assert_eq!(n, 1000);
            assert!((got - want).abs() / want < 0.03, "p{p}: {got} vs {want}");
        };
        within(50.0, 500_000.0);
        within(90.0, 900_000.0);
        within(99.0, 990_000.0);
    }

    /// Within a bucket the reported value follows the rank, so nearby
    /// distributions read differently instead of snapping to a midpoint.
    #[test]
    fn percentiles_interpolate_inside_a_bucket() {
        // A hundred samples spread evenly over the one bucket that holds
        // 50 000 ns.
        let (lower, width) = span_of(bucket_of(50_000));
        let mut h = LogHist::new();
        for i in 0..100 {
            h.record(lower + i * width / 100);
        }
        let (p25, _) = h.percentile(25.0).unwrap();
        let (p75, _) = h.percentile(75.0).unwrap();
        assert!(p25 < p75);
        assert!((p25 - (lower as f64 + 0.245 * width as f64)).abs() < 1.0);
        assert!((p75 - (lower as f64 + 0.745 * width as f64)).abs() < 1.0);
        // A lone sample still reads as the bucket midpoint.
        let mut one = LogHist::new();
        one.record(50_000);
        assert_eq!(
            one.percentile(50.0).unwrap().0,
            value_of(bucket_of(50_000)) as f64
        );
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (LogHist::new(), LogHist::new(), LogHist::new());
        for v in 0..5000u64 {
            let x = v * v + 17;
            if v % 3 == 0 { &mut a } else { &mut b }.record(x);
            both.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        for p in [1.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), both.percentile(p));
        }
        a.clear();
        assert_eq!(a.count(), 0);
        assert_eq!(a.percentile(50.0), None);
    }

    #[test]
    fn oversized_values_clamp_to_the_last_bucket() {
        let mut h = LogHist::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.percentile(50.0).unwrap().0 >= (1u64 << 41) as f64);
    }
}
