//! End-of-run statistics.

use chainiq_core::IqStats;
use chainiq_mem::MemStats;
use chainiq_predict::{HmpStats, LrpStats};

/// Everything a simulation run reports.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Instructions dispatched into the queue.
    pub dispatched: u64,
    /// Instructions fetched.
    pub fetched: u64,
    /// Branch-direction lookups and correct predictions.
    pub branch_lookups: u64,
    /// Correct (direction and target) branch predictions.
    pub branch_correct: u64,
    /// Hit/miss predictor counters (§4.4).
    pub hmp: HmpStats,
    /// Left/right predictor counters (§4.3).
    pub lrp: LrpStats,
    /// Memory hierarchy counters.
    pub mem: MemStats,
    /// Common instruction-queue counters.
    pub iq: IqStats,
    /// Mean reorder-buffer occupancy.
    pub rob_mean_occupancy: f64,
    /// Loads issued by the LSQ.
    pub loads_issued: u64,
    /// Stores written to the cache.
    pub stores_written: u64,
    /// Store-to-load forwards.
    pub store_forwards: u64,
    /// Cycles fetch stalled behind mispredictions.
    pub mispredict_stall_cycles: u64,
    /// The run hit the no-progress guard (a modelling bug if true).
    pub hung: bool,
}

impl SimStats {
    /// Committed instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Branch prediction accuracy in `[0, 1]`.
    #[must_use]
    pub fn branch_accuracy(&self) -> f64 {
        if self.branch_lookups == 0 {
            1.0
        } else {
            self.branch_correct as f64 / self.branch_lookups as f64
        }
    }

    /// L1 data-cache miss ratio, counting delayed hits as misses.
    #[must_use]
    pub fn l1d_miss_ratio(&self) -> f64 {
        self.mem.l1d.miss_ratio()
    }
}

chainiq_ckpt::pack_fields!(SimStats {
    cycles,
    committed,
    dispatched,
    fetched,
    branch_lookups,
    branch_correct,
    hmp,
    lrp,
    mem,
    iq,
    rob_mean_occupancy,
    loads_issued,
    stores_written,
    store_forwards,
    mispredict_stall_cycles,
    hung
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_divides() {
        let s = SimStats { cycles: 100, committed: 150, ..SimStats::default() };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.branch_accuracy(), 1.0);
    }
}
