//! The Table 1 front-end branch predictor: an Alpha 21264-style hybrid
//! (tournament) predictor plus a branch target buffer.

use crate::counter::SaturatingCounter;

/// Configuration of the hybrid predictor; defaults reproduce Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchPredictorConfig {
    /// Global history bits (and log2 of the global PHT size).
    pub global_history_bits: u32,
    /// Number of local history registers (power of two).
    pub local_histories: usize,
    /// Bits per local history register (and log2 of the local PHT size).
    pub local_history_bits: u32,
    /// BTB entries (power of two).
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_assoc: usize,
}

impl Default for BranchPredictorConfig {
    /// Table 1: global 13-bit history / 8K PHT; local 2K × 11-bit
    /// histories / 2K PHT; choice 13-bit global history / 8K PHT;
    /// BTB 4K entries, 4-way set associative.
    fn default() -> Self {
        BranchPredictorConfig {
            global_history_bits: 13,
            local_histories: 2048,
            local_history_bits: 11,
            btb_entries: 4096,
            btb_assoc: 4,
        }
    }
}

/// A direction + target prediction for one fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchPrediction {
    /// Predicted direction.
    pub taken: bool,
    /// Predicted target from the BTB, if it had an entry for this PC.
    pub target: Option<u64>,
}

impl BranchPrediction {
    /// Whether this prediction turns out correct for a branch that
    /// resolved `(taken, target)`. A taken branch with no (or a wrong)
    /// BTB target is a misprediction even if the direction matched: the
    /// front end fetched from the wrong place.
    #[must_use]
    pub fn is_correct(&self, taken: bool, target: u64) -> bool {
        if self.taken != taken {
            return false;
        }
        !taken || self.target == Some(target)
    }
}

/// A tagged, set-associative branch target buffer.
#[derive(Debug, Clone)]
pub struct Btb {
    /// Every entry, set-major: way `w` of set `s` is `entries[s * assoc + w]`.
    entries: Vec<BtbEntry>,
    assoc: usize,
    set_mask: u64,
    use_clock: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BtbEntry {
    pc: u64,
    target: u64,
    last_use: u64,
    valid: bool,
}

impl BtbEntry {
    /// The state every entry starts in.
    const EMPTY: BtbEntry = BtbEntry { pc: 0, target: 0, last_use: 0, valid: false };
}

impl Btb {
    /// Creates an empty BTB with `entries` total entries and the given
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a positive multiple of `assoc` and the
    /// set count is a power of two.
    #[must_use]
    pub fn new(entries: usize, assoc: usize) -> Self {
        assert!(assoc > 0 && entries > 0 && entries.is_multiple_of(assoc), "bad BTB geometry");
        let num_sets = entries / assoc;
        assert!(num_sets.is_power_of_two(), "BTB set count must be a power of two");
        Btb {
            entries: vec![BtbEntry::EMPTY; entries],
            assoc,
            set_mask: (num_sets - 1) as u64,
            use_clock: 0,
        }
    }

    /// The ways of the set `pc` maps to.
    fn set_mut(&mut self, pc: u64) -> &mut [BtbEntry] {
        // Instructions are 4-byte aligned; drop the offset bits.
        let start = ((pc >> 2) & self.set_mask) as usize * self.assoc;
        &mut self.entries[start..start + self.assoc]
    }

    /// Looks up the target for `pc`, updating recency on a hit.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        self.use_clock += 1;
        let clock = self.use_clock;
        self.set_mut(pc).iter_mut().find(|e| e.valid && e.pc == pc).map(|e| {
            e.last_use = clock;
            e.target
        })
    }

    /// Installs or updates the target for `pc`, evicting LRU on conflict.
    pub fn install(&mut self, pc: u64, target: u64) {
        self.use_clock += 1;
        let clock = self.use_clock;
        let set = self.set_mut(pc);
        if let Some(e) = set.iter_mut().find(|e| e.valid && e.pc == pc) {
            e.target = target;
            e.last_use = clock;
            return;
        }
        #[expect(clippy::expect_used, reason = "BTB sets are non-empty")]
        let victim = set
            .iter_mut()
            .min_by_key(|e| if e.valid { e.last_use } else { 0 })
            .expect("BTB sets are non-empty");
        *victim = BtbEntry { pc, target, last_use: clock, valid: true };
    }
}

/// Running accuracy counters for the branch predictor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional-branch direction lookups.
    pub lookups: u64,
    /// Predictions that were fully correct (direction and target).
    pub correct: u64,
}

impl BranchStats {
    /// Prediction accuracy in `[0, 1]`; 1.0 when nothing was predicted.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.lookups == 0 {
            1.0
        } else {
            self.correct as f64 / self.lookups as f64
        }
    }
}

/// The hybrid local/global (tournament) predictor of Table 1.
///
/// The *local* component indexes 2K 11-bit per-branch history registers by
/// PC and uses each history to index a 2K-entry PHT of 3-bit counters (as
/// in the 21264). The *global* component indexes an 8K-entry PHT of 2-bit
/// counters with a 13-bit global history. A *choice* PHT of 2-bit
/// counters, indexed by the same global history, arbitrates.
///
/// The model trains predictor state at prediction time with the resolved
/// outcome (oracle history update) — a standard trace-driven
/// simplification that the surrounding pipeline compensates for by
/// charging the full in-flight resolution latency for every misprediction.
///
/// # Examples
///
/// ```
/// use chainiq_predict::HybridBranchPredictor;
///
/// let mut bp = HybridBranchPredictor::default();
/// // A loop branch: taken 100 times, then falls through.
/// for _ in 0..100 {
///     bp.predict_and_train(0x40, true, 0x10);
/// }
/// let last = bp.predict_and_train(0x40, true, 0x10);
/// assert!(last.is_correct(true, 0x10));
/// ```
#[derive(Debug, Clone)]
pub struct HybridBranchPredictor {
    config: BranchPredictorConfig,
    global_history: u64,
    global_pht: Vec<SaturatingCounter>,
    choice_pht: Vec<SaturatingCounter>,
    local_histories: Vec<u16>,
    local_pht: Vec<SaturatingCounter>,
    btb: Btb,
    stats: BranchStats,
}

impl Default for HybridBranchPredictor {
    fn default() -> Self {
        Self::new(BranchPredictorConfig::default())
    }
}

impl HybridBranchPredictor {
    /// Initial global and choice counter: 2-bit, weakly not-taken.
    const GLOBAL_INIT: SaturatingCounter = SaturatingCounter::new(2, 1);
    /// Initial local counter: 3-bit, weakly not-taken.
    const LOCAL_INIT: SaturatingCounter = SaturatingCounter::new(3, 3);

    /// Creates a predictor with all counters weakly not-taken and empty
    /// histories.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (non-power-of-two table sizes,
    /// zero history widths).
    #[must_use]
    pub fn new(config: BranchPredictorConfig) -> Self {
        assert!(config.global_history_bits > 0 && config.global_history_bits <= 20);
        assert!(config.local_history_bits > 0 && config.local_history_bits <= 16);
        assert!(config.local_histories.is_power_of_two());
        let global_entries = 1usize << config.global_history_bits;
        let local_entries = 1usize << config.local_history_bits;
        HybridBranchPredictor {
            config,
            global_history: 0,
            global_pht: vec![Self::GLOBAL_INIT; global_entries],
            choice_pht: vec![Self::GLOBAL_INIT; global_entries],
            local_histories: vec![0; config.local_histories],
            local_pht: vec![Self::LOCAL_INIT; local_entries],
            btb: Btb::new(config.btb_entries, config.btb_assoc),
            stats: BranchStats::default(),
        }
    }

    /// Accumulated accuracy counters.
    #[must_use]
    pub fn stats(&self) -> &BranchStats {
        &self.stats
    }

    fn global_index(&self) -> usize {
        (self.global_history & ((1 << self.config.global_history_bits) - 1)) as usize
    }

    fn local_slot(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.config.local_histories - 1)
    }

    fn local_index(&self, pc: u64) -> usize {
        (self.local_histories[self.local_slot(pc)] as usize)
            & ((1usize << self.config.local_history_bits) - 1)
    }

    /// Predicts the conditional branch at `pc`, then trains all tables
    /// with the resolved outcome `(taken, target)`. Returns the
    /// prediction that the front end acted on.
    pub fn predict_and_train(&mut self, pc: u64, taken: bool, target: u64) -> BranchPrediction {
        let gi = self.global_index();
        let li = self.local_index(pc);
        let global_pred = self.global_pht[gi].is_high();
        let local_pred = self.local_pht[li].is_high();
        let use_global = self.choice_pht[gi].is_high();
        let dir = if use_global { global_pred } else { local_pred };
        let btb_target = self.btb.lookup(pc);
        let prediction = BranchPrediction { taken: dir, target: btb_target };

        self.stats.lookups += 1;
        if prediction.is_correct(taken, target) {
            self.stats.correct += 1;
        }

        // Train direction tables.
        if taken {
            self.global_pht[gi].inc();
            self.local_pht[li].inc();
        } else {
            self.global_pht[gi].dec();
            self.local_pht[li].dec();
        }
        // Train the choice table toward whichever component was right,
        // when they disagree.
        if global_pred != local_pred {
            if global_pred == taken {
                self.choice_pht[gi].inc();
            } else {
                self.choice_pht[gi].dec();
            }
        }
        // Update histories.
        self.global_history = (self.global_history << 1) | u64::from(taken);
        let slot = self.local_slot(pc);
        self.local_histories[slot] = (self.local_histories[slot] << 1) | u16::from(taken);
        // Train the BTB with taken targets.
        if taken {
            self.btb.install(pc, target);
        }
        prediction
    }

    /// Predicts an *unconditional* transfer at `pc` (always taken; only
    /// the target can be wrong), trains the BTB, and returns whether the
    /// front end followed the correct path.
    pub fn predict_and_train_unconditional(&mut self, pc: u64, target: u64) -> BranchPrediction {
        let btb_target = self.btb.lookup(pc);
        let prediction = BranchPrediction { taken: true, target: btb_target };
        self.stats.lookups += 1;
        if prediction.is_correct(true, target) {
            self.stats.correct += 1;
        }
        self.btb.install(pc, target);
        prediction
    }
}

chainiq_ckpt::pack_fields!(BranchPredictorConfig {
    global_history_bits,
    local_histories,
    local_history_bits,
    btb_entries,
    btb_assoc
});

chainiq_ckpt::pack_fields!(BranchStats { lookups, correct });

chainiq_ckpt::pack_fields!(BtbEntry { pc, target, last_use, valid });

impl chainiq_ckpt::Snapshot for HybridBranchPredictor {
    const COMPONENT: &'static str = "predict.branch";
    const VERSION: u16 = 2;

    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::{save_sparse, Pack};
        self.config.pack(w);
        self.global_history.pack(w);
        save_sparse(w, &self.global_pht, &Self::GLOBAL_INIT);
        save_sparse(w, &self.choice_pht, &Self::GLOBAL_INIT);
        save_sparse(w, &self.local_histories, &0);
        save_sparse(w, &self.local_pht, &Self::LOCAL_INIT);
        save_sparse(w, &self.btb.entries, &BtbEntry::EMPTY);
        self.btb.use_clock.pack(w);
        self.stats.pack(w);
    }

    fn restore(&mut self, r: &mut chainiq_ckpt::Reader<'_>) -> Result<(), chainiq_ckpt::CkptError> {
        use chainiq_ckpt::{restore_sparse, Pack};
        let config = BranchPredictorConfig::unpack(r)?;
        if config != self.config {
            return Err(chainiq_ckpt::CkptError::Corrupt {
                context: "branch predictor config differs from the running one".to_string(),
            });
        }
        self.global_history = Pack::unpack(r)?;
        restore_sparse(r, &mut self.global_pht, &Self::GLOBAL_INIT, "global PHT")?;
        restore_sparse(r, &mut self.choice_pht, &Self::GLOBAL_INIT, "choice PHT")?;
        restore_sparse(r, &mut self.local_histories, &0, "local histories")?;
        restore_sparse(r, &mut self.local_pht, &Self::LOCAL_INIT, "local PHT")?;
        restore_sparse(r, &mut self.btb.entries, &BtbEntry::EMPTY, "BTB")?;
        self.btb.use_clock = Pack::unpack(r)?;
        self.stats = Pack::unpack(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_taken_branch_becomes_predictable() {
        let mut bp = HybridBranchPredictor::default();
        let mut last_correct = false;
        // The histories take ~13 iterations to stabilize to all-ones, and
        // each intermediate history indexes a fresh untrained PHT entry.
        for _ in 0..256 {
            last_correct = bp.predict_and_train(0x100, true, 0x40).is_correct(true, 0x40);
        }
        assert!(last_correct);
        assert!(bp.stats().accuracy() > 0.9);
    }

    #[test]
    fn alternating_branch_is_learned_by_local_history() {
        let mut bp = HybridBranchPredictor::default();
        let mut t = false;
        // Warm up: a strict alternation is a classic local-history pattern.
        for _ in 0..200 {
            bp.predict_and_train(0x200, t, 0x40);
            t = !t;
        }
        let mut correct = 0;
        for _ in 0..100 {
            if bp.predict_and_train(0x200, t, 0x40).is_correct(t, 0x40) {
                correct += 1;
            }
            t = !t;
        }
        assert!(correct > 95, "local component should nail alternation, got {correct}/100");
    }

    #[test]
    fn taken_branch_without_btb_entry_is_wrong() {
        let p = BranchPrediction { taken: true, target: None };
        assert!(!p.is_correct(true, 0x40));
        let p = BranchPrediction { taken: true, target: Some(0x44) };
        assert!(!p.is_correct(true, 0x40));
        let p = BranchPrediction { taken: true, target: Some(0x40) };
        assert!(p.is_correct(true, 0x40));
    }

    #[test]
    fn not_taken_needs_no_target() {
        let p = BranchPrediction { taken: false, target: None };
        assert!(p.is_correct(false, 0xDEAD));
        assert!(!p.is_correct(true, 0x40));
    }

    #[test]
    fn btb_learns_and_evicts_lru() {
        let mut btb = Btb::new(8, 2); // 4 sets x 2 ways
        btb.install(0x00, 1);
        btb.install(0x40, 2); // same set as 0x00 (pc>>2 & 3: 0x00->0, 0x40->0)
        assert_eq!(btb.lookup(0x00), Some(1));
        btb.install(0x80, 3); // third PC in set 0 evicts LRU (0x40)
        assert_eq!(btb.lookup(0x40), None);
        assert_eq!(btb.lookup(0x00), Some(1));
        assert_eq!(btb.lookup(0x80), Some(3));
    }

    #[test]
    fn btb_updates_existing_target() {
        let mut btb = Btb::new(8, 2);
        btb.install(0x00, 1);
        btb.install(0x00, 9);
        assert_eq!(btb.lookup(0x00), Some(9));
    }

    #[test]
    fn unconditional_is_correct_once_btb_trained() {
        let mut bp = HybridBranchPredictor::default();
        let first = bp.predict_and_train_unconditional(0x300, 0x500);
        assert!(!first.is_correct(true, 0x500), "cold BTB cannot supply a target");
        let second = bp.predict_and_train_unconditional(0x300, 0x500);
        assert!(second.is_correct(true, 0x500));
    }

    #[test]
    fn random_branches_are_hard() {
        // A pseudo-random direction stream should hover near 50-60%.
        let mut bp = HybridBranchPredictor::default();
        let mut x = 0x12345678u64;
        let mut correct = 0;
        let n = 2000;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let taken = (x >> 33) & 1 == 1;
            if bp.predict_and_train(0x400, taken, 0x40).is_correct(taken, 0x40) {
                correct += 1;
            }
        }
        let acc = correct as f64 / n as f64;
        assert!(acc < 0.7, "random stream should not be predictable, got {acc}");
    }

    #[test]
    fn default_config_matches_table1() {
        let c = BranchPredictorConfig::default();
        assert_eq!(c.global_history_bits, 13);
        assert_eq!(1 << c.global_history_bits, 8192);
        assert_eq!(c.local_histories, 2048);
        assert_eq!(c.local_history_bits, 11);
        assert_eq!(1 << c.local_history_bits, 2048);
        assert_eq!(c.btb_entries, 4096);
        assert_eq!(c.btb_assoc, 4);
    }

    #[test]
    fn stats_accuracy_empty_is_one() {
        assert_eq!(BranchStats::default().accuracy(), 1.0);
    }
}
