//! The left/right operand predictor of §4.3.

use crate::counter::SaturatingCounter;

/// Which source operand of a two-operand instruction is meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// The first (left) source operand.
    Left,
    /// The second (right) source operand.
    Right,
}

impl Operand {
    /// The other operand.
    #[must_use]
    pub fn other(self) -> Operand {
        match self {
            Operand::Left => Operand::Right,
            Operand::Right => Operand::Left,
        }
    }
}

/// Accuracy counters for the LRP.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LrpStats {
    /// Predictions made.
    pub predictions: u64,
    /// Predictions that named the operand that actually arrived later.
    pub correct: u64,
}

impl LrpStats {
    /// Prediction accuracy in `[0, 1]` (1.0 when nothing was predicted).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            1.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }
}

/// The §4.3 left/right operand predictor: a PC-indexed table of 2-bit
/// counters predicting which of an instruction's two source operands will
/// be available *later* (the critical one). Assigning the instruction to
/// that operand's chain alone halves the chain-tracking hardware and
/// avoids allocating a new chain for every two-operand instruction.
///
/// Counter convention: low values predict [`Operand::Left`], high values
/// predict [`Operand::Right`]; training moves the counter toward the
/// operand that actually arrived later. A similar predictor was proposed
/// by Stark et al. (§4.3 cites it).
///
/// The paper does not state the table size; we use 4K direct-mapped
/// entries (documented in `DESIGN.md`).
///
/// # Examples
///
/// ```
/// use chainiq_predict::{LeftRightPredictor, Operand};
///
/// let mut lrp = LeftRightPredictor::default();
/// // Teach it that the right operand of this PC is critical.
/// lrp.update(0x40, Operand::Right);
/// lrp.update(0x40, Operand::Right);
/// assert_eq!(lrp.predict(0x40), Operand::Right);
/// ```
#[derive(Debug, Clone)]
pub struct LeftRightPredictor {
    table: Vec<SaturatingCounter>,
    mask: usize,
    stats: LrpStats,
}

impl Default for LeftRightPredictor {
    /// 4K entries, initialized to weakly-left.
    fn default() -> Self {
        Self::new(4096)
    }
}

impl LeftRightPredictor {
    /// Initial counter: 2-bit, weakly left.
    const INITIAL: SaturatingCounter = SaturatingCounter::new(2, 1);

    /// Creates a predictor with `entries` 2-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "table size must be a power of two");
        LeftRightPredictor {
            table: vec![Self::INITIAL; entries],
            mask: entries - 1,
            stats: LrpStats::default(),
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & self.mask
    }

    /// Predicts which operand of the instruction at `pc` arrives later,
    /// recording the prediction in the statistics.
    pub fn predict(&mut self, pc: u64) -> Operand {
        self.stats.predictions += 1;
        self.peek(pc)
    }

    /// Reads the current prediction without recording it.
    #[must_use]
    pub fn peek(&self, pc: u64) -> Operand {
        if self.table[self.index(pc)].is_high() {
            Operand::Right
        } else {
            Operand::Left
        }
    }

    /// Trains with the operand that actually arrived later, crediting the
    /// most recent prediction for this PC.
    pub fn update(&mut self, pc: u64, later: Operand) {
        if self.peek(pc) == later {
            self.stats.correct = self.stats.correct.saturating_add(1);
        }
        let idx = self.index(pc);
        match later {
            Operand::Right => self.table[idx].inc(),
            Operand::Left => self.table[idx].dec(),
        }
    }

    /// Accumulated accuracy counters.
    ///
    /// `correct` can exceed `predictions` when `update` is called more
    /// often than `predict` (e.g. operands resolved for instructions that
    /// never consulted the predictor); accuracy saturates at 1.0.
    #[must_use]
    pub fn stats(&self) -> LrpStats {
        LrpStats {
            predictions: self.stats.predictions,
            correct: self.stats.correct.min(self.stats.predictions),
        }
    }
}

impl chainiq_ckpt::Pack for LrpStats {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.predictions.pack(w);
        self.correct.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        Ok(LrpStats { predictions: Pack::unpack(r)?, correct: Pack::unpack(r)? })
    }
}

impl chainiq_ckpt::Snapshot for LeftRightPredictor {
    const COMPONENT: &'static str = "predict.lrp";
    const VERSION: u16 = 2;

    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::Pack;
        chainiq_ckpt::save_sparse(w, &self.table, &Self::INITIAL);
        self.stats.pack(w);
    }

    fn restore(&mut self, r: &mut chainiq_ckpt::Reader<'_>) -> Result<(), chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        chainiq_ckpt::restore_sparse(r, &mut self.table, &Self::INITIAL, "LRP table")?;
        self.stats = Pack::unpack(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_to_left() {
        let lrp = LeftRightPredictor::default();
        assert_eq!(lrp.peek(0x0), Operand::Left);
    }

    #[test]
    fn learns_right_after_two_updates() {
        let mut lrp = LeftRightPredictor::default();
        lrp.update(0x40, Operand::Right); // 1 -> 2
        assert_eq!(lrp.peek(0x40), Operand::Right);
        lrp.update(0x40, Operand::Right); // 2 -> 3
        assert_eq!(lrp.peek(0x40), Operand::Right);
    }

    #[test]
    fn hysteresis_resists_single_flip() {
        let mut lrp = LeftRightPredictor::default();
        for _ in 0..4 {
            lrp.update(0x40, Operand::Right);
        }
        lrp.update(0x40, Operand::Left); // 3 -> 2, still Right
        assert_eq!(lrp.peek(0x40), Operand::Right);
        lrp.update(0x40, Operand::Left); // 2 -> 1, flips
        assert_eq!(lrp.peek(0x40), Operand::Left);
    }

    #[test]
    fn accuracy_tracks_stable_behaviour() {
        let mut lrp = LeftRightPredictor::default();
        for _ in 0..100 {
            lrp.predict(0x80);
            lrp.update(0x80, Operand::Right);
        }
        // Only the first prediction or two are wrong.
        assert!(lrp.stats().accuracy() > 0.95);
    }

    #[test]
    fn operand_other_swaps() {
        assert_eq!(Operand::Left.other(), Operand::Right);
        assert_eq!(Operand::Right.other(), Operand::Left);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_table_size_panics() {
        let _ = LeftRightPredictor::new(3);
    }

    #[test]
    fn stats_never_exceed_one() {
        let mut lrp = LeftRightPredictor::default();
        // Updates without predictions must not push accuracy above 1.
        for _ in 0..10 {
            lrp.update(0x10, Operand::Left);
        }
        lrp.predict(0x10);
        assert!(lrp.stats().accuracy() <= 1.0);
    }
}
