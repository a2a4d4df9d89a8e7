//! The cache hit/miss predictor of §4.4.

use crate::counter::SaturatingCounter;

/// Accuracy and coverage counters for the HMP.
///
/// The paper reports two figures (§6.1): *hit-prediction accuracy* — the
/// fraction of hit predictions that were actually hits, "over 98%" — and
/// *hit coverage* — the fraction of actual hits that were predicted as
/// hits, "over 83%".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HmpStats {
    /// Predictions made.
    pub predictions: u64,
    /// Times a hit was predicted.
    pub predicted_hit: u64,
    /// Times a hit was predicted and the access did hit.
    pub predicted_hit_was_hit: u64,
    /// Actual hits observed.
    pub actual_hits: u64,
}

impl HmpStats {
    /// Fraction of hit predictions that were correct (1.0 if none made).
    #[must_use]
    pub fn hit_accuracy(&self) -> f64 {
        if self.predicted_hit == 0 {
            1.0
        } else {
            self.predicted_hit_was_hit as f64 / self.predicted_hit as f64
        }
    }

    /// Fraction of actual hits that were predicted as hits (1.0 if there
    /// were no hits).
    #[must_use]
    pub fn hit_coverage(&self) -> f64 {
        if self.actual_hits == 0 {
            1.0
        } else {
            self.predicted_hit_was_hit as f64 / self.actual_hits as f64
        }
    }
}

/// The §4.4 hit/miss predictor: a PC-indexed table of 4-bit saturating
/// counters, incremented on a hit, *cleared to zero* on a miss, predicting
/// a hit only when the counter exceeds 13.
///
/// The asymmetric update rule encodes the asymmetric cost: predicting a
/// miss as a hit floods segment 0 with unready instructions, so a hit is
/// predicted only with very high confidence. Delayed hits count as misses
/// (see [`chainiq_mem::ServicedBy::is_l1_hit`]).
///
/// The paper does not state the table size; we use 4K direct-mapped
/// entries (documented in `DESIGN.md`).
///
/// [`chainiq_mem::ServicedBy::is_l1_hit`]:
///     https://docs.rs/chainiq-mem
#[derive(Debug, Clone)]
pub struct HitMissPredictor {
    table: Vec<SaturatingCounter>,
    threshold: u8,
    mask: usize,
    stats: HmpStats,
    wrong_by_pc: std::collections::BTreeMap<u64, u64>,
}

impl Default for HitMissPredictor {
    /// 4K entries, predict hit when counter > 13.
    fn default() -> Self {
        Self::new(4096, 13)
    }
}

impl HitMissPredictor {
    /// Initial counter: 4-bit, no confidence.
    const INITIAL: SaturatingCounter = SaturatingCounter::new(4, 0);

    /// Creates a predictor with `entries` 4-bit counters and the given
    /// predict-hit threshold (`counter > threshold`).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `threshold >= 15`.
    #[must_use]
    pub fn new(entries: usize, threshold: u8) -> Self {
        assert!(entries.is_power_of_two(), "table size must be a power of two");
        assert!(threshold < 15, "threshold must be below the 4-bit maximum");
        HitMissPredictor {
            table: vec![Self::INITIAL; entries],
            threshold,
            mask: entries - 1,
            stats: HmpStats::default(),
            wrong_by_pc: std::collections::BTreeMap::new(),
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & self.mask
    }

    /// Predicts whether the load at `pc` will hit in the L1, and records
    /// the prediction for the accuracy statistics. Callers that want a
    /// side-effect-free peek can use [`HitMissPredictor::peek`].
    pub fn predict_hit(&mut self, pc: u64) -> bool {
        let hit = self.peek(pc);
        self.stats.predictions += 1;
        if hit {
            self.stats.predicted_hit += 1;
        }
        hit
    }

    /// Reads the current prediction without recording it.
    #[must_use]
    pub fn peek(&self, pc: u64) -> bool {
        self.table[self.index(pc)].value() > self.threshold
    }

    /// Trains with the resolved outcome of the load at `pc`.
    ///
    /// Statistics for accuracy/coverage are recorded by
    /// [`HitMissPredictor::record_outcome`], which pairs each dynamic
    /// load's outcome with the prediction it actually dispatched under
    /// (many dynamic instances of one PC can be in flight at once).
    pub fn update(&mut self, pc: u64, was_hit: bool) {
        if !was_hit && self.peek(pc) {
            *self.wrong_by_pc.entry(pc).or_default() += 1;
        }
        let idx = self.index(pc);
        if was_hit {
            self.table[idx].inc();
        } else {
            self.table[idx].clear();
        }
    }

    /// Credits the outcome of one dynamic load against the prediction it
    /// was dispatched with.
    pub fn record_outcome(&mut self, predicted_hit: bool, was_hit: bool) {
        if was_hit {
            self.stats.actual_hits += 1;
            if predicted_hit {
                self.stats.predicted_hit_was_hit += 1;
            }
        }
    }

    /// Wrong hit-predictions per load PC, most offended first (diagnostic
    /// aid for workload calibration).
    #[must_use]
    pub fn wrong_hit_predictions_by_pc(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.wrong_by_pc.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
        v
    }

    /// Accumulated accuracy/coverage counters.
    #[must_use]
    pub fn stats(&self) -> &HmpStats {
        &self.stats
    }
}

impl chainiq_ckpt::Pack for HmpStats {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.predictions.pack(w);
        self.predicted_hit.pack(w);
        self.predicted_hit_was_hit.pack(w);
        self.actual_hits.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        Ok(HmpStats {
            predictions: Pack::unpack(r)?,
            predicted_hit: Pack::unpack(r)?,
            predicted_hit_was_hit: Pack::unpack(r)?,
            actual_hits: Pack::unpack(r)?,
        })
    }
}

impl chainiq_ckpt::Snapshot for HitMissPredictor {
    const COMPONENT: &'static str = "predict.hmp";
    const VERSION: u16 = 2;

    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::Pack;
        chainiq_ckpt::save_sparse(w, &self.table, &Self::INITIAL);
        self.threshold.pack(w);
        self.stats.pack(w);
        self.wrong_by_pc.pack(w);
    }

    fn restore(&mut self, r: &mut chainiq_ckpt::Reader<'_>) -> Result<(), chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        chainiq_ckpt::restore_sparse(r, &mut self.table, &Self::INITIAL, "HMP table")?;
        let threshold: u8 = Pack::unpack(r)?;
        if threshold != self.threshold {
            return Err(chainiq_ckpt::CkptError::Corrupt {
                context: format!("HMP threshold {threshold}, this machine uses {}", self.threshold),
            });
        }
        self.stats = Pack::unpack(r)?;
        self.wrong_by_pc = Pack::unpack(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_fourteen_hits_to_predict_hit() {
        let mut hmp = HitMissPredictor::default();
        for i in 0..14 {
            assert!(!hmp.peek(0x40), "after {i} hits the counter is {i} <= 13");
            hmp.update(0x40, true);
        }
        assert!(hmp.peek(0x40));
    }

    #[test]
    fn one_miss_clears_confidence() {
        let mut hmp = HitMissPredictor::default();
        for _ in 0..15 {
            hmp.update(0x40, true);
        }
        assert!(hmp.peek(0x40));
        hmp.update(0x40, false);
        assert!(!hmp.peek(0x40));
        // And it takes another 14 hits to recover.
        for _ in 0..13 {
            hmp.update(0x40, true);
        }
        assert!(!hmp.peek(0x40));
        hmp.update(0x40, true);
        assert!(hmp.peek(0x40));
    }

    #[test]
    fn counter_saturates_at_fifteen() {
        let mut hmp = HitMissPredictor::default();
        for _ in 0..100 {
            hmp.update(0x40, true);
        }
        assert!(hmp.peek(0x40));
    }

    #[test]
    fn accuracy_on_a_pure_hit_stream_is_one() {
        let mut hmp = HitMissPredictor::default();
        for _ in 0..100 {
            let p = hmp.predict_hit(0x80);
            hmp.record_outcome(p, true);
            hmp.update(0x80, true);
        }
        assert_eq!(hmp.stats().hit_accuracy(), 1.0);
        // 14 warm-up accesses are not covered.
        let cov = hmp.stats().hit_coverage();
        assert!((cov - 86.0 / 100.0).abs() < 1e-9, "coverage {cov}");
    }

    #[test]
    fn always_missing_load_never_predicts_hit() {
        let mut hmp = HitMissPredictor::default();
        for _ in 0..50 {
            let p = hmp.predict_hit(0xC0);
            assert!(!p);
            hmp.record_outcome(p, false);
            hmp.update(0xC0, false);
        }
        assert_eq!(hmp.stats().predicted_hit, 0);
        assert_eq!(hmp.stats().hit_accuracy(), 1.0);
    }

    #[test]
    fn distinct_pcs_do_not_interfere() {
        let mut hmp = HitMissPredictor::default();
        for _ in 0..20 {
            hmp.update(0x40, true);
        }
        // A different PC in a different slot is untrained.
        assert!(!hmp.peek(0x44));
        assert!(hmp.peek(0x40));
    }

    #[test]
    fn aliased_pcs_share_a_counter() {
        let mut hmp = HitMissPredictor::new(16, 13);
        // pc >> 2 masked to 4 bits: 0x0 and 0x100 alias (0x100>>2 = 0x40, &0xF = 0).
        for _ in 0..20 {
            hmp.update(0x0, true);
        }
        assert!(hmp.peek(0x100));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_table_panics() {
        let _ = HitMissPredictor::new(1000, 13);
    }

    #[test]
    fn stats_empty_defaults() {
        let s = HmpStats::default();
        assert_eq!(s.hit_accuracy(), 1.0);
        assert_eq!(s.hit_coverage(), 1.0);
    }
}
