//! Order statistics, a seeded generator and the process's memory
//! high-water mark.

/// The `q`-quantile of `xs` (nearest rank on the sorted samples).
///
/// # Panics
///
/// Panics if `xs` is empty: every metric is taken over at least one
/// sample, so an empty set is a bug in the caller.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample set");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank]
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The geometric mean of positive `xs`.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A fixed-size uniform sample of a stream (reservoir sampling), so
/// that the memory a run uses for its latency samples does not grow
/// with the number of ops it completes.
pub struct Reservoir {
    samples: Vec<f64>,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    /// Keeps up to 2^16 samples.
    const CAPACITY: usize = 1 << 16;

    /// An empty reservoir.
    pub fn new() -> Reservoir {
        Reservoir {
            samples: Vec::with_capacity(Self::CAPACITY),
            seen: 0,
            rng: Rng::new(Self::CAPACITY as u64),
        }
    }

    /// Offers one sample.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < Self::CAPACITY {
            self.samples.push(x);
        } else {
            let slot = (self.rng.next_u64() % self.seen) as usize;
            if slot < Self::CAPACITY {
                self.samples[slot] = x;
            }
        }
    }

    /// The `q`-quantile of the samples kept.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.samples, q)
    }
}

/// The calibration kernel's time on the reference machine (a 2-core
/// x86-64 Linux VM in a quiet minute).
pub const REFERENCE_CALIBRATION_S: f64 = 0.004;

/// A fixed kernel timed once per round alongside the workload, to
/// follow the machine's speed: a byte-class lexer, like the parser's
/// front end, over 1 MiB of fixed text-like bytes, recording each run
/// of one class in a reused buffer. It is the benchmark's own code
/// with its own fixed input, so only the machine moves it.
///
/// On a shared 2-core VM the speed of identical code drifted by up to
/// a third between runs minutes apart, and the kernel drifted with it:
/// scaling by the kernel cut the run-to-run spread of bulk-parse's
/// `mb_per_s` from 8.5% to 2.4% of the median.
pub struct Calibration {
    input: Vec<u8>,
    class: [u8; 256],
    lengths: Vec<u32>,
    samples: Vec<f64>,
}

impl Calibration {
    /// The kernel's fixed input.
    pub fn new() -> Calibration {
        let mut rng = Rng::new(0xca11b);
        let mut input = Vec::with_capacity((1 << 20) + 16);
        while input.len() < 1 << 20 {
            let (first, span) = match rng.below(3) {
                0 => (b'a', 26),
                1 => (b'0', 10),
                _ => (b' ', 1),
            };
            for _ in 0..1 + rng.below(8) {
                input.push(first + rng.below(span) as u8);
            }
            input.push(b",\n()"[rng.below(4)]);
        }
        let mut class = [3u8; 256];
        class[b'a' as usize..=b'z' as usize].fill(0);
        class[b'0' as usize..=b'9' as usize].fill(1);
        class[b' ' as usize] = 2;
        Calibration {
            input,
            class,
            lengths: Vec::with_capacity(1 << 20),
            samples: Vec::new(),
        }
    }

    /// Runs the kernel once and records its seconds.
    pub fn sample(&mut self) {
        let t0 = std::time::Instant::now();
        let input = std::hint::black_box(&self.input[..]);
        self.lengths.clear();
        let mut i = 0;
        while i < input.len() {
            let c = self.class[input[i] as usize];
            let start = i;
            while i < input.len() && self.class[input[i] as usize] == c {
                i += 1;
            }
            self.lengths.push((i - start) as u32);
        }
        std::hint::black_box(&self.lengths);
        self.samples.push(t0.elapsed().as_secs_f64());
    }

    /// How many times slower than the reference machine this run's
    /// machine was: the median kernel time over the reference time.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples) / REFERENCE_CALIBRATION_S
    }
}

/// SplitMix64: a small, fast, seedable generator. All benchmark
/// inputs derive from `--seed` through it, so a seed fixes the inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from neighbouring seeds.
    pub fn new(seed: u64) -> Rng {
        let mut r = Rng(seed);
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seed for sub-stream `stream` of `seed`, so that each input
/// (grammar document, request, edit script) has its own sequence.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// The process's resident-set high-water mark, in MB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mb() -> f64 {
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    // `struct rusage` on 64-bit Linux is two `timeval`s (four longs)
    // followed by fourteen longs, the first of which is `ru_maxrss`
    // in KiB.
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is 18 longs, exactly `sizeof(struct rusage)` on
    // 64-bit Linux, so the kernel writes only inside the array.
    let rc = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage[4] as f64 / 1024.0
}

/// Fixes glibc's mmap threshold at its default of 128 KiB.
///
/// glibc otherwise raises the threshold each time a large block is
/// freed, after which large blocks come from the heap, where holes
/// accumulate: the resident high-water mark of edit-session then grew
/// with the number of rounds a run completed (38–43 MB for one seed).
/// With the threshold fixed, large blocks are mapped and unmapped as
/// they come and go, and the high-water mark tracks live memory.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only changes allocator tuning; it is called
    // at the start of `main`, before any other thread exists.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.9), 5.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| r.below(10) < 10 && r.unit() < 1.0));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
