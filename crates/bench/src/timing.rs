//! Minimal wall-clock micro-benchmark harness for the `benches/` targets.
//!
//! Replaces the former Criterion dev-dependency (unavailable offline).
//! Deliberately simple: warmup runs, then a fixed number of timed
//! iterations, reporting mean and standard deviation.

use std::time::Instant;

/// Summary statistics of one benchmarked closure.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub mean_s: f64,
    pub std_s: f64,
    pub iters: usize,
}

/// Runs `f` `warmup` times untimed, then `iters` timed iterations.
///
/// # Panics
///
/// Panics if `iters == 0`.
pub fn bench<F: FnMut()>(warmup: usize, iters: usize, mut f: F) -> Timing {
    assert!(iters > 0, "need at least one timed iteration");
    for _ in 0..warmup {
        f();
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    let mean_s = samples.iter().sum::<f64>() / iters as f64;
    let var = samples
        .iter()
        .map(|s| (s - mean_s) * (s - mean_s))
        .sum::<f64>()
        / iters as f64;
    Timing {
        mean_s,
        std_s: var.sqrt(),
        iters,
    }
}

/// Keeps a value (and the work that produced it) observable to the
/// optimizer — re-export of [`std::hint::black_box`] under the name the
/// bench targets use.
pub use std::hint::black_box;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_plausible_stats() {
        let t = bench(1, 5, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert_eq!(t.iters, 5);
        assert!(t.mean_s >= 0.002);
        assert!(t.std_s >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one timed iteration")]
    fn zero_iters_panics() {
        let _ = bench(0, 0, || {});
    }
}
