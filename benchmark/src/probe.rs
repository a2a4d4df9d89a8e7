//! The host-speed probe: a fixed piece of benchmark-owned work, timed
//! before every set-up and pass, by which a run's times are scaled to a
//! reference host speed.
//!
//! Other tenants of a shared host slow the same work by up to two times,
//! for minutes at a time: longer than a run, so no choice among a run's
//! passes escapes it. The probe slows with them. It runs only the standard
//! library, never a simulator crate, so a change to the simulator moves
//! the scaled figures by its own factor while the host's state cancels.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

use crate::grid::WORKERS;
use crate::report::median;

/// The reference probe time, seconds: about the probe's median on a 2-vCPU
/// Intel Xeon VM at 2.0 GHz. Scaled figures read as host time on a host
/// where the probe takes this long.
pub const REFERENCE_S: f64 = 0.040;

/// Seconds one thread takes for generic library work with a large code
/// footprint and data-dependent branches: ordered-map inserts and lookups,
/// an unstable sort, and float formatting and parsing, on values seeded by
/// `seed`.
fn library_work(seed: u64) -> f64 {
    let t0 = Instant::now();
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut map = BTreeMap::new();
    for _ in 0..80_000 {
        map.insert(next() % 200_000, next());
    }
    let mut acc = 0u64;
    for _ in 0..80_000 {
        acc ^= map.get(&(next() % 200_000)).copied().unwrap_or(1);
    }
    let mut v: Vec<u64> = (0..200_000).map(|_| next()).collect();
    v.sort_unstable();
    acc ^= v[v.len() / 2];
    let mut text = String::new();
    for _ in 0..12_000 {
        text.clear();
        let _ = write!(text, "{:.6}", (next() % 1_000_000) as f64 / 7.0);
        acc ^= text.parse::<f64>().map_or(0, f64::to_bits);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Probe times of one run.
#[derive(Debug, Clone, Default)]
pub struct Speed {
    samples: RefCell<Vec<f64>>,
}

impl Speed {
    /// Times one probe: the library work on each of [`WORKERS`] threads at
    /// once, the mean of the threads' own times. Returns it, seconds.
    pub fn sample(&self) -> f64 {
        let secs: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..WORKERS).map(|k| s.spawn(move || library_work(k as u64 + 7))).collect();
            handles.into_iter().map(|h| h.join().expect("probe thread panicked")).collect()
        });
        let mean = secs.iter().sum::<f64>() / secs.len() as f64;
        self.samples.borrow_mut().push(mean);
        mean
    }

    /// The run's median probe time, seconds.
    #[must_use]
    pub fn probe_s(&self) -> f64 {
        median(&self.samples.borrow())
    }

    /// Reference probe time ÷ the run's median probe time: a host time
    /// times this factor is the time at the reference speed.
    #[must_use]
    pub fn factor(&self) -> f64 {
        let p = self.probe_s();
        if p > 0.0 {
            REFERENCE_S / p
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_the_reference_over_the_median_probe() {
        let speed = Speed::default();
        assert_eq!(speed.factor(), 1.0, "no probe yet");
        speed.samples.borrow_mut().extend([0.08, 0.04, 0.10]);
        assert!((speed.factor() - REFERENCE_S / 0.08).abs() < 1e-12);
        assert!(speed.sample() > 0.0);
        assert_eq!(speed.samples.borrow().len(), 4);
    }
}
