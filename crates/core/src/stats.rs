//! Statistics specific to the segmented queue.

use crate::chain::ChainStats;
use crate::queue::IqStats;

/// Counters the segmented IQ maintains beyond the common [`IqStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentedStats {
    /// The common queue counters.
    pub iq: IqStats,
    /// Chain allocator counters (Table 2's averages and peaks).
    pub chains: ChainStats,
    /// Normal (chain/threshold-driven) inter-segment promotions.
    pub promotions: u64,
    /// Promotions of otherwise-ineligible instructions via the §4.1
    /// pushdown mechanism.
    pub pushdowns: u64,
    /// Dispatched instructions that bypassed at least one empty segment
    /// (§4.2).
    pub bypassed_dispatches: u64,
    /// Sum over bypassed dispatches of segments skipped.
    pub segments_bypassed: u64,
    /// Cycles in which the §4.5 deadlock recovery was active.
    pub deadlock_cycles: u64,
    /// Instructions force-promoted by deadlock recovery.
    pub recovery_promotions: u64,
    /// Instructions recycled from segment 0 to the top by recovery.
    pub recovery_recycles: u64,
    /// Dispatched instructions with two outstanding operands produced in
    /// different chains (§4.3 reports ~35% in the base configuration).
    pub dual_dep_dispatches: u64,
    /// Dispatched instructions with two source operands (denominator
    /// context for `dual_dep_dispatches`).
    pub two_src_dispatches: u64,
    /// Sum over cycles of data-ready instructions in segment 0.
    pub ready_in_seg0_accum: u64,
    /// Sum over cycles of data-ready instructions anywhere in the queue.
    pub ready_total_accum: u64,
    /// Sum over cycles of segment-0 occupancy.
    pub seg0_occupancy_accum: u64,
    /// Sum over cycles of the number of *empty* segments — segments a
    /// §7-style power manager could have clock-gated that cycle.
    pub empty_segment_cycles: u64,
    /// Chain-wire activity: total segment-hops travelled by wire signals
    /// (one hop = one segment's worth of wire driven for one cycle).
    pub wire_signal_hops: u64,
    /// Number of segments (denominator for the gating fraction).
    pub num_segments: usize,
}

impl SegmentedStats {
    /// Mean number of ready instructions resident in segment 0.
    #[must_use]
    pub fn mean_ready_in_seg0(&self) -> f64 {
        if self.iq.cycles == 0 {
            0.0
        } else {
            self.ready_in_seg0_accum as f64 / self.iq.cycles as f64
        }
    }

    /// Fraction of all ready instructions that sit in segment 0 (the
    /// paper quotes >25% for mgrid, >33% for vortex/twolf).
    #[must_use]
    pub fn ready_in_seg0_frac(&self) -> f64 {
        if self.ready_total_accum == 0 {
            0.0
        } else {
            self.ready_in_seg0_accum as f64 / self.ready_total_accum as f64
        }
    }

    /// Fraction of two-source instructions whose operands were
    /// outstanding in different chains.
    #[must_use]
    pub fn dual_dep_frac(&self) -> f64 {
        if self.iq.dispatched == 0 {
            0.0
        } else {
            self.dual_dep_dispatches as f64 / self.iq.dispatched as f64
        }
    }

    /// Fraction of cycles spent in deadlock recovery (§4.5 reports
    /// ~0.05%).
    #[must_use]
    pub fn deadlock_cycle_frac(&self) -> f64 {
        if self.iq.cycles == 0 {
            0.0
        } else {
            self.deadlock_cycles as f64 / self.iq.cycles as f64
        }
    }

    /// Fraction of segment-cycles that were empty — an upper bound on
    /// the §7 clock-gating opportunity ("the segmented structure lends
    /// itself naturally to dynamic resizing by gating clocks and/or
    /// power on a segment granularity").
    #[must_use]
    pub fn gateable_segment_frac(&self) -> f64 {
        let total = self.iq.cycles * self.num_segments as u64;
        if total == 0 {
            0.0
        } else {
            self.empty_segment_cycles as f64 / total as f64
        }
    }
}

chainiq_ckpt::pack_fields!(SegmentedStats {
    iq,
    chains,
    promotions,
    pushdowns,
    bypassed_dispatches,
    segments_bypassed,
    deadlock_cycles,
    recovery_promotions,
    recovery_recycles,
    dual_dep_dispatches,
    two_src_dispatches,
    ready_in_seg0_accum,
    ready_total_accum,
    seg0_occupancy_accum,
    empty_segment_cycles,
    wire_signal_hops,
    num_segments
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty() {
        let s = SegmentedStats::default();
        assert_eq!(s.mean_ready_in_seg0(), 0.0);
        assert_eq!(s.ready_in_seg0_frac(), 0.0);
        assert_eq!(s.dual_dep_frac(), 0.0);
        assert_eq!(s.deadlock_cycle_frac(), 0.0);
    }

    #[test]
    fn gating_fraction() {
        let mut s = SegmentedStats::default();
        s.iq.cycles = 10;
        s.num_segments = 4;
        s.empty_segment_cycles = 20; // half of 40 segment-cycles
        assert!((s.gateable_segment_frac() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ratios_divide() {
        let mut s = SegmentedStats::default();
        s.iq.cycles = 10;
        s.iq.dispatched = 20;
        s.ready_in_seg0_accum = 30;
        s.ready_total_accum = 60;
        s.dual_dep_dispatches = 5;
        s.deadlock_cycles = 1;
        assert_eq!(s.mean_ready_in_seg0(), 3.0);
        assert_eq!(s.ready_in_seg0_frac(), 0.5);
        assert_eq!(s.dual_dep_frac(), 0.25);
        assert_eq!(s.deadlock_cycle_frac(), 0.1);
    }
}
