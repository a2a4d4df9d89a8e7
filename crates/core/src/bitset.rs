//! Fixed-width multi-word bitsets over slab slot indices.
//!
//! The v3 kernel keeps one of these per segment, marking the slab slots
//! whose entries are *promotion-eligible* (delay value below the
//! destination threshold). A whole-segment `any()` check skips idle
//! segments outright, and the age-list walk probes single bits instead
//! of re-deriving eligibility; the masks are updated incrementally at
//! every delay mutation (see DESIGN.md §9).

/// A growable `[u64; W]` bitset indexed by slab slot number.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub(crate) fn new() -> Self {
        BitSet { words: Vec::new() }
    }

    /// Grows the word array to cover bit `nbits - 1` (never shrinks).
    pub(crate) fn ensure(&mut self, nbits: usize) {
        let need = nbits.div_ceil(64);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
    }

    /// Sets bit `i`; the caller must have `ensure`d capacity.
    #[inline]
    pub(crate) fn set(&mut self, i: u32) {
        self.words[(i >> 6) as usize] |= 1u64 << (i & 63);
    }

    /// Clears bit `i` (out-of-range indices are untouched by
    /// construction: a bit can only have been set within capacity).
    #[inline]
    pub(crate) fn clear(&mut self, i: u32) {
        if let Some(w) = self.words.get_mut((i >> 6) as usize) {
            *w &= !(1u64 << (i & 63));
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: u32) -> bool {
        self.words.get((i >> 6) as usize).is_some_and(|w| w & (1u64 << (i & 63)) != 0)
    }

    pub(crate) fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Whether any bit is set.
    #[inline]
    pub(crate) fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Calls `f` for every set bit, in ascending index order (test
    /// support: the promotion path walks the segment age list and probes
    /// bits individually, so full iteration only backs the reference
    /// model).
    #[cfg(test)]
    pub(crate) fn for_each(&self, mut f: impl FnMut(u32)) {
        for (wi, &w) in self.words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                let b = w.trailing_zeros();
                f((wi as u32) << 6 | b);
                w &= w - 1;
            }
        }
    }

    /// Number of set bits (test support).
    #[cfg(test)]
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainiq_devtest::{prop_assert, prop_assert_eq, prop_check};

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = BitSet::new();
        b.ensure(130);
        for &i in &[0u32, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i));
        }
        b.clear(64);
        assert!(!b.get(64) && b.get(63) && b.get(65));
        b.clear_all();
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn clear_beyond_capacity_is_noop() {
        let mut b = BitSet::new();
        b.ensure(10);
        b.clear(1000);
        assert_eq!(b.count(), 0);
    }

    prop_check! {
        /// The bitset agrees with a reference `Vec<bool>` under random
        /// set/clear traffic, across word boundaries — including widths
        /// that are not multiples of 64 and the 512-entry window.
        fn matches_reference_model(g, cases = 64) {
            const WIDTHS: [usize; 9] = [1, 7, 63, 64, 65, 100, 511, 512, 513];
            let width = WIDTHS[g.pick(WIDTHS.len())];
            let mut b = BitSet::new();
            b.ensure(width);
            let mut model = vec![false; width];
            for _ in 0..400 {
                let i = g.usize(0..width) as u32;
                if g.bool() {
                    b.set(i);
                    model[i as usize] = true;
                } else {
                    b.clear(i);
                    model[i as usize] = false;
                }
            }
            let mut seen = Vec::new();
            b.for_each(|i| seen.push(i as usize));
            let want: Vec<usize> =
                model.iter().enumerate().filter(|(_, &v)| v).map(|(i, _)| i).collect();
            prop_assert_eq!(seen, want, "iteration must be exactly the set bits, ascending");
            for (i, &v) in model.iter().enumerate() {
                prop_assert!(b.get(i as u32) == v, "bit {i} disagrees");
            }
        }
    }
}
