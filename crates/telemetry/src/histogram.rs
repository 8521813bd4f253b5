//! Lock-free log-binned histograms with quantile extraction.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bins per decade. 16 gives a bin width of ×10^(1/16) ≈ ×1.155, i.e.
/// quantiles are resolved to better than ±8 % — ample for latency and
/// iteration-count distributions.
const SUB_BINS: usize = 16;
/// Smallest binnable magnitude (10^MIN_EXP). Values at or below this (and
/// all non-positive values) saturate into the underflow bin.
const MIN_EXP: i32 = -18;
/// One past the largest binnable magnitude (10^MAX_EXP); larger values
/// saturate into the overflow bin.
const MAX_EXP: i32 = 12;
/// Number of regular bins.
const BIN_COUNT: usize = ((MAX_EXP - MIN_EXP) as usize) * SUB_BINS;

/// A histogram of non-negative magnitudes on a logarithmic grid.
///
/// Recording is wait-free: one relaxed `fetch_add` on the bin plus relaxed
/// CAS loops for the running min/max/sum. Negative values are recorded by
/// magnitude-zero convention (clamped into the underflow bin) and counted
/// separately so a report can flag them.
#[derive(Debug)]
pub struct Histogram {
    bins: Box<[AtomicU64; BIN_COUNT]>,
    underflow: AtomicU64,
    overflow: AtomicU64,
    count: AtomicU64,
    negatives: AtomicU64,
    /// Sum, min and max as f64 bit patterns.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not Copy; build the array through a Vec.
        let bins: Vec<AtomicU64> = (0..BIN_COUNT).map(|_| AtomicU64::new(0)).collect();
        let bins: Box<[AtomicU64; BIN_COUNT]> = bins
            .into_boxed_slice()
            .try_into()
            .expect("vec sized to BIN_COUNT");
        Histogram {
            bins,
            underflow: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            negatives: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// The lower edge of regular bin `i`.
    fn bin_lo(i: usize) -> f64 {
        10f64.powf(MIN_EXP as f64 + i as f64 / SUB_BINS as f64)
    }

    /// Records one value. Non-finite values are dropped (and counted as
    /// negatives so they surface in reports rather than poisoning sums).
    pub fn record(&self, value: f64) {
        if !value.is_finite() {
            self.negatives.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if value < 0.0 {
            self.negatives.fetch_add(1, Ordering::Relaxed);
        }
        let magnitude = value.max(0.0);
        let lo_edge = 10f64.powi(MIN_EXP);
        if magnitude <= lo_edge {
            self.underflow.fetch_add(1, Ordering::Relaxed);
        } else {
            let pos = (magnitude.log10() - MIN_EXP as f64) * SUB_BINS as f64;
            if pos >= BIN_COUNT as f64 {
                self.overflow.fetch_add(1, Ordering::Relaxed);
            } else {
                self.bins[pos as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        Self::atomic_f64_add(&self.sum_bits, value);
        Self::atomic_f64_min(&self.min_bits, value);
        Self::atomic_f64_max(&self.max_bits, value);
    }

    fn atomic_f64_add(cell: &AtomicU64, x: f64) {
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + x).to_bits();
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    fn atomic_f64_min(cell: &AtomicU64, x: f64) {
        let mut cur = cell.load(Ordering::Relaxed);
        while x < f64::from_bits(cur) {
            match cell.compare_exchange_weak(cur, x.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    fn atomic_f64_max(cell: &AtomicU64, x: f64) {
        let mut cur = cell.load(Ordering::Relaxed);
        while x > f64::from_bits(cur) {
            match cell.compare_exchange_weak(cur, x.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy for reporting. (Bins are read
    /// individually; a snapshot taken while writers are active may be off
    /// by in-flight records, which is fine for statistics.)
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let bins: Vec<u64> = self
            .bins
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let underflow = self.underflow.load(Ordering::Relaxed);
        let overflow = self.overflow.load(Ordering::Relaxed);
        let (min, max) = if count == 0 {
            (f64::NAN, f64::NAN)
        } else {
            (
                f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
                f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            )
        };
        HistogramSnapshot {
            name: name.to_string(),
            count,
            negatives: self.negatives.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min,
            max,
            underflow,
            overflow,
            bins,
        }
    }
}

/// Point-in-time copy of a [`Histogram`], with quantile extraction.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Values that were negative or non-finite at record time.
    pub negatives: u64,
    /// Sum of all recorded values.
    pub sum: f64,
    /// Smallest recorded value (NaN when empty).
    pub min: f64,
    /// Largest recorded value (NaN when empty).
    pub max: f64,
    /// Records below the binnable range.
    pub underflow: u64,
    /// Records above the binnable range.
    pub overflow: u64,
    /// Regular bin occupancies.
    pub bins: Vec<u64>,
}

impl HistogramSnapshot {
    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), geometric interpolation within
    /// the landing bin, clamped to the observed `[min, max]`. `None` when
    /// the histogram is empty or `q` is out of range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Rank in 1..=count of the order statistic closest to q.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.underflow;
        if rank <= seen {
            return Some(self.min);
        }
        for (i, &c) in self.bins.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank <= seen + c {
                let lo = Histogram::bin_lo(i);
                let hi = Histogram::bin_lo(i + 1);
                let frac = (rank - seen) as f64 / c as f64;
                let v = lo * (hi / lo).powf(frac);
                return Some(v.clamp(self.min, self.max));
            }
            seen += c;
        }
        Some(self.max)
    }

    /// Convenience: median, p90 and p99 as a tuple (all `None` when
    /// empty).
    pub fn p50_p90_p99(&self) -> (Option<f64>, Option<f64>, Option<f64>) {
        (self.quantile(0.5), self.quantile(0.9), self.quantile(0.99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        let s = h.snapshot("t");
        assert_eq!(s.count, 0);
        assert!(s.quantile(0.5).is_none());
        assert!(s.mean().is_none());
        assert!(s.min.is_nan() && s.max.is_nan());
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let h = Histogram::new();
        h.record(3.7e-6);
        let s = h.snapshot("t");
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let v = s.quantile(q).unwrap();
            assert!((v - 3.7e-6).abs() < 1e-18, "q{q} = {v}");
        }
        assert!((s.mean().unwrap() - 3.7e-6).abs() < 1e-18);
    }

    #[test]
    fn quantiles_track_a_uniform_grid() {
        let h = Histogram::new();
        // 1..=1000 µs uniform.
        for k in 1..=1000 {
            h.record(k as f64 * 1e-6);
        }
        let s = h.snapshot("t");
        let p50 = s.quantile(0.5).unwrap();
        let p90 = s.quantile(0.9).unwrap();
        assert!((p50 / 500e-6 - 1.0).abs() < 0.12, "p50 = {p50:e}");
        assert!((p90 / 900e-6 - 1.0).abs() < 0.12, "p90 = {p90:e}");
        assert!(s.quantile(0.0).unwrap() >= s.min);
        assert_eq!(s.quantile(1.0).unwrap(), s.max);
    }

    #[test]
    fn saturating_values_land_in_edge_bins() {
        let h = Histogram::new();
        h.record(0.0); // at/below the underflow edge
        h.record(1e-30); // below the underflow edge
        h.record(1e30); // above the overflow edge
        h.record(1.0);
        let s = h.snapshot("t");
        assert_eq!(s.count, 4);
        assert_eq!(s.underflow, 2);
        assert_eq!(s.overflow, 1);
        // Quantiles remain finite and clamped to the observed range.
        let p99 = s.quantile(0.99).unwrap();
        assert!(p99 <= s.max && p99.is_finite());
        assert_eq!(s.quantile(0.01).unwrap(), s.min);
    }

    #[test]
    fn negative_and_nonfinite_values_are_flagged() {
        let h = Histogram::new();
        h.record(-1.0);
        h.record(f64::NAN);
        h.record(2.0);
        let s = h.snapshot("t");
        assert_eq!(s.negatives, 2);
        assert_eq!(s.count, 2); // NaN dropped, -1 recorded as underflow
        assert_eq!(s.min, -1.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for k in 0..5_000 {
                        h.record((t * 5_000 + k) as f64 * 1e-9 + 1e-9);
                    }
                });
            }
        });
        let s = h.snapshot("t");
        assert_eq!(s.count, 40_000);
        let total: u64 = s.bins.iter().sum::<u64>() + s.underflow + s.overflow;
        assert_eq!(total, 40_000);
    }

    #[test]
    fn mean_matches_sum_over_count() {
        let h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        let s = h.snapshot("t");
        assert!((s.mean().unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }
}
