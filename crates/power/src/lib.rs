//! Event-based dynamic-energy accounting for the instruction-queue
//! designs — the §7 question, quantified.
//!
//! The paper's §7: *"Copying an instruction from segment to segment
//! consumes more dynamic power than keeping the instruction in a single
//! storage location between dispatch and issue; whether the performance
//! benefit of the segmented IQ justifies this power consumption will
//! depend on the detailed design."* This crate makes that trade
//! explicit. Each design's activity counters (from the simulator's
//! statistics) are multiplied by per-event energy coefficients:
//!
//! * **entry writes** — dispatch into the queue, and (for the segmented
//!   design) every promotion/pushdown copies the entry into the next
//!   segment, the cost §7 worries about;
//! * **CAM search** — each cycle, the broadcast tags are compared
//!   against every *occupied searchable* row. This is where the
//!   segmented design wins: only segment 0 is searched associatively,
//!   while a monolithic queue searches its whole occupancy. Upper
//!   segments perform a cheaper local delay-compare;
//! * **selection** — per select operation over the searched rows;
//! * **chain wires** — per segment-hop of signal propagation;
//! * **idle clock** — per occupied-entry-cycle of latch clocking, which
//!   the §7 segment-granularity clock gating (tracked by
//!   `SegmentedStats::gateable_segment_frac`) can remove for empty
//!   segments.
//!
//! The coefficients are synthetic (relative magnitudes follow standard
//! CAM-vs-SRAM reasoning: an associative search of a row costs more than
//! a local compare, a copy costs a read plus a write); see `DESIGN.md`.
//!
//! # Examples
//!
//! ```
//! use chainiq_power::EnergyModel;
//!
//! let model = EnergyModel::default();
//! // A monolithic 512-entry queue burning full-occupancy CAM searches:
//! let mono = model.monolithic_energy(512, 1_000_000, 400_000_000, 900_000);
//! assert!(mono.total_pj() > 0.0);
//! ```

#![deny(missing_docs)]

use chainiq_core::{IqStats, SegmentedStats};

/// Per-event energy coefficients in picojoules. Synthetic values; the
/// *ratios* carry the meaning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Writing one instruction into a queue entry (dispatch or
    /// segment-to-segment copy: read + write).
    pub entry_write_pj: f64,
    /// Comparing one broadcast tag set against one occupied CAM row.
    pub cam_row_search_pj: f64,
    /// One local delay-threshold compare (upper-segment promotion
    /// eligibility; no tag broadcast).
    pub delay_compare_pj: f64,
    /// One selection operation over a 32-entry arbiter tree.
    pub select_pj: f64,
    /// Driving a chain-wire signal across one segment for one cycle.
    pub wire_hop_pj: f64,
    /// Clocking one occupied entry's latches for one cycle.
    pub entry_clock_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            entry_write_pj: 6.0,
            cam_row_search_pj: 1.2,
            delay_compare_pj: 0.25,
            select_pj: 8.0,
            wire_hop_pj: 0.4,
            entry_clock_pj: 0.05,
        }
    }
}

/// Where the energy went, in picojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Dispatch writes.
    pub dispatch_pj: f64,
    /// Segment-to-segment copies (promotions + pushdowns + recoveries).
    pub copies_pj: f64,
    /// Associative wakeup searches.
    pub cam_pj: f64,
    /// Upper-segment delay compares.
    pub delay_compare_pj: f64,
    /// Selection trees.
    pub select_pj: f64,
    /// Chain-wire propagation.
    pub wires_pj: f64,
    /// Entry latch clocking.
    pub clock_pj: f64,
}

impl EnergyBreakdown {
    /// Total dynamic energy.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.dispatch_pj
            + self.copies_pj
            + self.cam_pj
            + self.delay_compare_pj
            + self.select_pj
            + self.wires_pj
            + self.clock_pj
    }

    /// Energy per committed instruction.
    #[must_use]
    pub fn per_instruction_pj(&self, committed: u64) -> f64 {
        if committed == 0 {
            0.0
        } else {
            self.total_pj() / committed as f64
        }
    }
}

impl EnergyModel {
    /// Energy of a monolithic conventional queue: every occupied row is
    /// CAM-searched every cycle; one select per cycle; no copies.
    ///
    /// `occupancy_accum` is the sum of occupancy over cycles
    /// (`IqStats::occupancy_accum`).
    #[must_use]
    pub fn monolithic_energy(
        &self,
        _entries: usize,
        dispatched: u64,
        occupancy_accum: u64,
        cycles: u64,
    ) -> EnergyBreakdown {
        EnergyBreakdown {
            dispatch_pj: self.entry_write_pj * dispatched as f64,
            copies_pj: 0.0,
            cam_pj: self.cam_row_search_pj * occupancy_accum as f64,
            delay_compare_pj: 0.0,
            select_pj: self.select_pj * cycles as f64,
            wires_pj: 0.0,
            clock_pj: self.entry_clock_pj * occupancy_accum as f64,
        }
    }

    /// Convenience wrapper over [`IqStats`].
    #[must_use]
    pub fn monolithic_energy_from_stats(&self, entries: usize, s: &IqStats) -> EnergyBreakdown {
        self.monolithic_energy(entries, s.dispatched, s.occupancy_accum, s.cycles)
    }

    /// Energy of the segmented queue: CAM search only over segment 0's
    /// occupancy; delay compares over the rest; copies for every
    /// promotion; per-segment selects (issue select in segment 0 plus a
    /// promotion select per non-empty boundary, approximated by the
    /// non-empty-segment count); chain-wire hops.
    #[must_use]
    pub fn segmented_energy(&self, s: &SegmentedStats) -> EnergyBreakdown {
        let copies = s.promotions + s.pushdowns + s.recovery_promotions + s.recovery_recycles;
        let upper_occ_accum = s.iq.occupancy_accum.saturating_sub(s.seg0_occupancy_accum);
        let total_segment_cycles = s.iq.cycles * s.num_segments as u64;
        let active_segment_cycles = total_segment_cycles.saturating_sub(s.empty_segment_cycles);
        EnergyBreakdown {
            dispatch_pj: self.entry_write_pj * s.iq.dispatched as f64,
            copies_pj: self.entry_write_pj * copies as f64,
            cam_pj: self.cam_row_search_pj * s.seg0_occupancy_accum as f64,
            delay_compare_pj: self.delay_compare_pj * upper_occ_accum as f64,
            select_pj: self.select_pj * active_segment_cycles as f64,
            wires_pj: self.wire_hop_pj * s.wire_signal_hops as f64,
            clock_pj: self.entry_clock_pj * s.iq.occupancy_accum as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg_stats(cycles: u64) -> SegmentedStats {
        let mut s = SegmentedStats::default();
        s.iq.cycles = cycles;
        s.iq.dispatched = 1000;
        s.iq.occupancy_accum = cycles * 300;
        s.seg0_occupancy_accum = cycles * 20;
        s.num_segments = 16;
        s.empty_segment_cycles = cycles * 4;
        s.promotions = 12_000;
        s.wire_signal_hops = 5_000;
        s
    }

    #[test]
    fn totals_sum_components() {
        let m = EnergyModel::default();
        let b = m.segmented_energy(&seg_stats(1000));
        let manual = b.dispatch_pj
            + b.copies_pj
            + b.cam_pj
            + b.delay_compare_pj
            + b.select_pj
            + b.wires_pj
            + b.clock_pj;
        assert!((b.total_pj() - manual).abs() < 1e-9);
    }

    #[test]
    fn segmented_cam_energy_beats_monolithic_at_equal_occupancy() {
        // Same total occupancy, same cycles: the monolithic design
        // searches the full 300-entry occupancy, the segmented design
        // only segment 0's 20.
        let m = EnergyModel::default();
        let seg = m.segmented_energy(&seg_stats(1000));
        let mono = m.monolithic_energy(512, 1000, 1000 * 300, 1000);
        assert!(seg.cam_pj < 0.1 * mono.cam_pj, "{} vs {}", seg.cam_pj, mono.cam_pj);
    }

    #[test]
    fn copies_are_the_segmented_design_cost() {
        let m = EnergyModel::default();
        let seg = m.segmented_energy(&seg_stats(1000));
        assert!(seg.copies_pj > 0.0);
        let mono = m.monolithic_energy(512, 1000, 1000 * 300, 1000);
        assert_eq!(mono.copies_pj, 0.0);
    }

    #[test]
    fn per_instruction_handles_zero() {
        assert_eq!(EnergyBreakdown::default().per_instruction_pj(0), 0.0);
        let b = EnergyBreakdown { dispatch_pj: 100.0, ..EnergyBreakdown::default() };
        assert!((b.per_instruction_pj(50) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gating_reduces_select_energy() {
        let m = EnergyModel::default();
        let mut gated = seg_stats(1000);
        gated.empty_segment_cycles = 1000 * 12; // 12 of 16 segments gated
        let busy = m.segmented_energy(&seg_stats(1000));
        let idle = m.segmented_energy(&gated);
        assert!(idle.select_pj < busy.select_pj);
    }
}
