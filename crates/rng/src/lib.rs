//! Seedable, algorithm-pinned PRNG for the chainiq workspace.
//!
//! The simulator's synthetic workloads must be a *pure function of
//! (profile, seed)* — the paper's experiments (and every directional CI
//! band derived from them) depend on instruction streams that never
//! change under the repo's feet. External `rand` cannot promise that:
//! `StdRng`'s algorithm is explicitly unstable across versions. This
//! crate pins the generator forever:
//!
//! * seeding: **SplitMix64** expands a 64-bit seed into the 256-bit
//!   state (the initialization recommended by the xoshiro authors);
//! * stream: **xoshiro256\*\*** (Blackman & Vigna), a small, fast,
//!   well-tested generator whose reference algorithm is public domain.
//!
//! Golden-value tests pin the exact output stream; any change to the
//! algorithm is a deliberate, test-visible event.
//!
//! # Examples
//!
//! ```
//! use chainiq_rng::Rng;
//!
//! let mut a = Rng::seed_from_u64(42);
//! let mut b = Rng::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!(a.gen_range(10..20) >= 10);
//! let _coin: bool = a.gen_bool(0.5);
//! ```

#![deny(missing_docs)]

use std::ops::Range;

/// One step of the SplitMix64 sequence: advances `state` and returns the
/// next output. Used for state expansion and anywhere a one-shot 64-bit
/// mix of a seed is needed (e.g. decorrelating per-test-case seeds).
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The xoshiro256\*\* generator, seeded from a single `u64`.
///
/// The API mirrors the subset of `rand` the workload layer used
/// (`seed_from_u64`, `gen_range`, `gen_bool`), so swapping the backend
/// was a type change, not a rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator by expanding `seed` with SplitMix64, as the
    /// xoshiro reference code recommends. Any seed (including 0) yields
    /// a good state.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)],
        }
    }

    /// The next raw 64-bit output.
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)`, using the top 53 bits of one output.
    #[must_use]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform value in `range`, by Lemire's multiply-shift reduction
    /// of one output (bias is O(width / 2^64) — irrelevant for the
    /// simulator's ranges, and the fixed mapping is part of the pinned
    /// stream).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[must_use]
    pub fn gen_range(&mut self, range: Range<u64>) -> u64 {
        #[expect(clippy::expect_used, reason = "documented panic on an inverted range")]
        let width = range.end.checked_sub(range.start).expect("gen_range: end < start");
        assert!(width > 0, "gen_range: empty range");
        let hi = ((u128::from(self.next_u64()) * u128::from(width)) >> 64) as u64;
        range.start + hi
    }

    /// `true` with probability `p`, by comparing one `f64` draw against
    /// `p`. `p <= 0.0` is always `false`; `p >= 1.0` always `true`
    /// (one output is consumed either way).
    #[must_use]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

impl chainiq_ckpt::Pack for Rng {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.s.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        Ok(Rng { s: <[u64; 4]>::unpack(r)? })
    }
}

impl chainiq_ckpt::Snapshot for Rng {
    const COMPONENT: &'static str = "rng";
    const VERSION: u16 = 1;

    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        chainiq_ckpt::Pack::pack(self, w);
    }

    fn restore(&mut self, r: &mut chainiq_ckpt::Reader<'_>) -> Result<(), chainiq_ckpt::CkptError> {
        *self = chainiq_ckpt::Pack::unpack(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the SplitMix64 sequence to the reference implementation's
    /// output for seed 0 (values cross-checked against the published C
    /// code).
    #[test]
    fn splitmix64_golden_stream() {
        let mut s = 0u64;
        let got: Vec<u64> = (0..4).map(|_| splitmix64(&mut s)).collect();
        assert_eq!(
            got,
            vec![
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F,
                0xF88B_B8A8_724C_81EC,
            ]
        );
    }

    /// Pins the seeded xoshiro256** stream forever. If this test trips,
    /// every workload fingerprint and directional band in the repo moves
    /// with it: re-pin only as a deliberate, documented decision.
    #[test]
    fn xoshiro_golden_stream_seed_1() {
        let mut rng = Rng::seed_from_u64(1);
        let got: Vec<u64> = (0..6).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                0xB3F2_AF6D_0FC7_10C5,
                0x853B_5596_4736_4CEA,
                0x92F8_9756_082A_4514,
                0x642E_1C7B_C266_A3A7,
                0xB27A_48E2_9A23_3673,
                0x24C1_2312_6FFD_A722,
            ]
        );
    }

    /// Same pin for the experiment seed every `chainiq-bench` binary
    /// uses (`DEFAULT_SEED = 20020525`).
    #[test]
    fn xoshiro_golden_stream_experiment_seed() {
        let mut rng = Rng::seed_from_u64(20_020_525);
        let got: Vec<u64> = (0..6).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                0x0ECE_E5AF_1029_F34E,
                0x6BAA_2F2F_313A_B0EA,
                0x2572_88E4_C921_2AB3,
                0xA757_C48A_4CF7_3550,
                0x98B6_E122_4DF8_4376,
                0x9754_BA84_40B9_431C,
            ]
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(0xDEAD_BEEF);
        let mut b = Rng::seed_from_u64(0xDEAD_BEEF);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "adjacent seeds must decorrelate after SplitMix64 expansion");
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10..17);
            assert!((10..17).contains(&v));
        }
    }

    #[test]
    fn gen_range_covers_small_ranges() {
        let mut rng = Rng::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0..8) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "1000 draws must cover 0..8");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_empty() {
        let _ = Rng::seed_from_u64(0).gen_range(5..5);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes_and_rate() {
        let mut rng = Rng::seed_from_u64(13);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "p=0.25 rate off: {hits}/10000");
    }

    #[test]
    fn snapshot_restores_the_exact_stream() {
        use chainiq_ckpt::{Reader, Snapshot, Writer};
        let mut a = Rng::seed_from_u64(5);
        for _ in 0..17 {
            let _ = a.next_u64();
        }
        let mut w = Writer::new();
        a.save(&mut w);
        let bytes = w.into_bytes();
        let mut b = Rng::seed_from_u64(0);
        b.restore(&mut Reader::new(&bytes)).unwrap();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn clone_forks_the_stream() {
        let mut a = Rng::seed_from_u64(3);
        let _ = a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
