//! The harness's one timing core: every timed figure the `flap-bench`
//! binaries print or write comes from here.
//!
//! [`time`] makes one warm-up call, then `iters` timed calls. Each
//! result passes through [`black_box`] before the clock stops, so the
//! optimizer cannot drop the work, and is dropped outside the timed
//! span; callers pass each call's input through [`black_box`] too.
//! [`time_once`] is the single-call form, for measurements whose
//! every call needs its own set-up (an edit before each incremental
//! re-parse). [`Timing`] summarizes the samples as a median with the
//! quartiles as its spread.

use std::hint::black_box;
use std::time::Instant;

/// The median and quartiles of a set of timed calls, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// First quartile.
    pub q1: f64,
    /// Median: the reported figure.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Timing {
    /// Summarizes samples in seconds, interpolating linearly between
    /// ranks.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn of(mut samples: Vec<f64>) -> Timing {
        assert!(!samples.is_empty(), "no samples to summarize");
        samples.sort_by(f64::total_cmp);
        let quantile = |p: f64| {
            let x = p * (samples.len() - 1) as f64;
            let lo = x.floor() as usize;
            let hi = x.ceil() as usize;
            samples[lo] + (samples[hi] - samples[lo]) * (x - lo as f64)
        };
        Timing {
            q1: quantile(0.25),
            median: quantile(0.5),
            q3: quantile(0.75),
        }
    }

    /// The median in microseconds.
    pub fn us(&self) -> f64 {
        self.median * 1e6
    }

    /// Throughput at the median, in MB/s, of a call that processes
    /// `bytes`.
    pub fn mbps(&self, bytes: usize) -> f64 {
        bytes as f64 / self.median / 1e6
    }

    /// The interquartile range relative to the median: `0.05` means
    /// the middle half of the calls spanned 5% of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// The widest [`Timing::spread`] among `timings`, as a percentage: the
/// spread column of the binaries' tables.
pub fn worst_spread_pct<'a>(timings: impl IntoIterator<Item = &'a Timing>) -> f64 {
    100.0 * timings.into_iter().map(Timing::spread).fold(0.0, f64::max)
}

/// Times `f`: one warm-up call, then `iters` timed calls.
///
/// # Panics
///
/// Panics if `iters` is zero.
pub fn time<T>(iters: usize, mut f: impl FnMut() -> T) -> Timing {
    black_box(f());
    Timing::of((0..iters).map(|_| time_once(&mut f).0).collect())
}

/// Times one call of `f`, returning its seconds and its result.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = black_box(f());
    (t0.elapsed().as_secs_f64(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let t = Timing::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((t.q1, t.median, t.q3), (2.0, 3.0, 4.0));
        let t = Timing::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!((t.q1, t.median, t.q3), (1.75, 2.5, 3.25));
        assert_eq!(Timing::of(vec![2.0]).spread(), 0.0);
        assert!((t.spread() - 0.6).abs() < 1e-12);
        assert_eq!(t.mbps(5_000_000), 2.0);
    }

    #[test]
    fn time_warms_up_once_then_takes_iters_samples() {
        let mut calls = 0;
        let t = time(4, || calls += 1);
        assert_eq!(calls, 5);
        assert!(t.q1 <= t.median && t.median <= t.q3);
        let (secs, v) = time_once(|| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
    }
}
