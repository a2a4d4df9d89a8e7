//! Wakeup/select circuit-delay model, after Palacharla, Jouppi & Smith
//! ("Complexity-Effective Superscalar Processors", ISCA 1996) — the
//! analysis the paper's §1 builds on: *"The latency of wakeup logic ...
//! increases quadratically with both issue width and instruction queue
//! size."*
//!
//! The IPC experiments in `chainiq-bench` compare designs at equal clock;
//! this crate supplies the other half of the paper's argument. A
//! monolithic queue's wakeup/select path grows quadratically with its
//! size, while the segmented design's critical path is set by one
//! 32-entry segment regardless of total capacity. Multiplying each
//! design's IPC by its achievable clock turns Figure 3's IPC curves into
//! the throughput (BIPS) comparison the paper argues for in prose.
//!
//! # Model
//!
//! * **Wakeup** — an issue-width set of result tags is driven down a CAM
//!   column of `entries` rows; each row compares and ORs its match lines.
//!   Tag-drive delay is RC-quadratic in wire length (∝ entries) and the
//!   driven load grows with issue width, giving the
//!   `c₀ + c₁·W·E + c₂·W²·E²` shape of Palacharla's fitted curves.
//! * **Select** — a tree of arbiters with fan-in 4: delay ∝ ⌈log₄ E⌉.
//! * **Segmented queue** — wakeup+select span one segment; the promotion
//!   select of an upper segment has identical structure, so the critical
//!   path is that of a conventional queue of *segment* size (§3: "the
//!   latency of this critical path is determined by the size of each
//!   segment, not the overall queue size"), plus a small constant for
//!   the chain-wire receive latch.
//!
//! The technology constants are *synthetic*: chosen so the relative
//! scaling reproduces Palacharla's published shape (documented in
//! `DESIGN.md`), because the paper makes only a relative claim. Absolute
//! picoseconds should not be quoted.
//!
//! # Examples
//!
//! ```
//! use chainiq_circuit::{QueueGeometry, Technology};
//!
//! let tech = Technology::default();
//! let small = tech.cycle_time(QueueGeometry::monolithic(32, 8));
//! let large = tech.cycle_time(QueueGeometry::monolithic(512, 8));
//! let segmented = tech.cycle_time(QueueGeometry::segmented(512, 32, 8));
//! assert!(large > 2.0 * small, "a 512-entry CAM is far slower");
//! assert!(segmented < 1.2 * small, "segments clock like small queues");
//! ```

#![deny(missing_docs)]

/// Geometry of the scheduling structure whose critical path is modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueGeometry {
    /// Entries searched by one wakeup/select operation.
    pub searched_entries: usize,
    /// Result tags broadcast per cycle (issue width).
    pub issue_width: usize,
    /// Extra latch/mux stages on the critical path (0 for a monolithic
    /// queue; 1 for the segmented queue's chain-wire receive and
    /// promotion mux).
    pub extra_stages: usize,
}

impl QueueGeometry {
    /// A conventional monolithic queue: every entry searched each cycle.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    #[must_use]
    pub fn monolithic(entries: usize, issue_width: usize) -> Self {
        assert!(entries > 0 && issue_width > 0);
        QueueGeometry { searched_entries: entries, issue_width, extra_stages: 0 }
    }

    /// A segmented queue: wakeup/select only ever touch one segment; one
    /// extra stage accounts for the chain-wire receive latch and the
    /// two-input bypass mux of §4.2.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero or the segment exceeds the total.
    #[must_use]
    pub fn segmented(total_entries: usize, segment_size: usize, issue_width: usize) -> Self {
        assert!(total_entries > 0 && segment_size > 0 && issue_width > 0);
        assert!(segment_size <= total_entries);
        QueueGeometry { searched_entries: segment_size, issue_width, extra_stages: 1 }
    }

    /// A prescheduling queue: only the associative issue buffer is
    /// searched; the array shift adds one stage.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    #[must_use]
    pub fn prescheduled(issue_buffer: usize, issue_width: usize) -> Self {
        assert!(issue_buffer > 0 && issue_width > 0);
        QueueGeometry { searched_entries: issue_buffer, issue_width, extra_stages: 1 }
    }
}

/// Synthetic technology constants (see the crate docs for why synthetic).
///
/// The default corresponds loosely to the paper's era (a 0.18 µm-class
/// process): a 32-entry, 8-wide wakeup+select fits in roughly a 1 GHz+
/// cycle, and a 512-entry CAM does not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Technology {
    /// Fixed overhead per wakeup (precharge, sense) in picoseconds.
    pub wakeup_base_ps: f64,
    /// Linear tag-drive coefficient, ps per (issue-width × entry).
    pub wakeup_linear_ps: f64,
    /// Quadratic wire-RC coefficient, ps per (issue-width × entry)².
    pub wakeup_quadratic_ps: f64,
    /// Delay per level of the fan-in-4 selection tree, ps.
    pub select_per_level_ps: f64,
    /// Fixed selection overhead (request generation, grant fan-out), ps.
    pub select_base_ps: f64,
    /// Cost of one extra latch/mux stage, ps.
    pub stage_ps: f64,
}

impl Default for Technology {
    fn default() -> Self {
        Technology {
            wakeup_base_ps: 120.0,
            wakeup_linear_ps: 0.9,
            wakeup_quadratic_ps: 0.000_45,
            select_per_level_ps: 60.0,
            select_base_ps: 60.0,
            stage_ps: 30.0,
        }
    }
}

impl Technology {
    /// Wakeup-logic delay in picoseconds: tag drive across
    /// `searched_entries` rows with `issue_width` tag buses, plus match.
    #[must_use]
    pub fn wakeup_delay_ps(&self, g: QueueGeometry) -> f64 {
        let we = (g.issue_width * g.searched_entries) as f64;
        self.wakeup_base_ps + self.wakeup_linear_ps * we + self.wakeup_quadratic_ps * we * we
    }

    /// Selection-logic delay in picoseconds: a fan-in-4 arbiter tree over
    /// the searched entries.
    #[must_use]
    pub fn select_delay_ps(&self, g: QueueGeometry) -> f64 {
        let levels = levels_of_4(g.searched_entries);
        self.select_base_ps + self.select_per_level_ps * levels as f64
    }

    /// The wakeup+select critical path in picoseconds — the cycle-time
    /// floor imposed by the scheduling structure (wakeup and select form
    /// an atomic loop, §1).
    #[must_use]
    pub fn cycle_time(&self, g: QueueGeometry) -> f64 {
        self.wakeup_delay_ps(g) + self.select_delay_ps(g) + self.stage_ps * g.extra_stages as f64
    }

    /// Achievable scheduler-limited clock in GHz.
    #[must_use]
    pub fn clock_ghz(&self, g: QueueGeometry) -> f64 {
        1000.0 / self.cycle_time(g)
    }

    /// Billions of instructions per second for a design with the given
    /// per-cycle IPC: the combined metric the paper argues about in
    /// prose (IPC from simulation × clock from this model).
    #[must_use]
    pub fn bips(&self, g: QueueGeometry, ipc: f64) -> f64 {
        ipc * self.clock_ghz(g)
    }
}

/// Levels of a fan-in-4 tree covering `n` leaves.
fn levels_of_4(n: usize) -> u32 {
    let mut levels = 0;
    let mut covered = 1usize;
    while covered < n {
        covered *= 4;
        levels += 1;
    }
    levels.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wakeup_grows_quadratically_with_window() {
        let t = Technology::default();
        let d32 = t.wakeup_delay_ps(QueueGeometry::monolithic(32, 8));
        let d128 = t.wakeup_delay_ps(QueueGeometry::monolithic(128, 8));
        let d512 = t.wakeup_delay_ps(QueueGeometry::monolithic(512, 8));
        assert!(d128 > 2.0 * d32, "4x entries must cost over 2x: {d32} -> {d128}");
        assert!(d512 > 3.0 * d128, "the quadratic term dominates at 512: {d128} -> {d512}");
    }

    #[test]
    fn wakeup_grows_with_issue_width() {
        let t = Technology::default();
        let w4 = t.wakeup_delay_ps(QueueGeometry::monolithic(128, 4));
        let w8 = t.wakeup_delay_ps(QueueGeometry::monolithic(128, 8));
        assert!(w8 > 1.5 * w4);
    }

    #[test]
    fn select_grows_logarithmically() {
        let t = Technology::default();
        let s16 = t.select_delay_ps(QueueGeometry::monolithic(16, 8));
        let s64 = t.select_delay_ps(QueueGeometry::monolithic(64, 8));
        let s256 = t.select_delay_ps(QueueGeometry::monolithic(256, 8));
        assert_eq!(s64 - s16, s256 - s64, "one level per 4x leaves");
    }

    #[test]
    fn segmented_cycle_time_is_size_independent() {
        let t = Technology::default();
        let s128 = t.cycle_time(QueueGeometry::segmented(128, 32, 8));
        let s512 = t.cycle_time(QueueGeometry::segmented(512, 32, 8));
        assert_eq!(s128, s512, "only the segment size matters");
    }

    #[test]
    fn segmented_512_clocks_near_monolithic_32() {
        let t = Technology::default();
        let seg = t.cycle_time(QueueGeometry::segmented(512, 32, 8));
        let small = t.cycle_time(QueueGeometry::monolithic(32, 8));
        let big = t.cycle_time(QueueGeometry::monolithic(512, 8));
        assert!(seg < 1.2 * small, "segment-local critical path: {seg} vs {small}");
        assert!(big > 3.0 * seg, "the monolithic 512 is several times slower: {big} vs {seg}");
    }

    #[test]
    fn bips_combines_ipc_and_clock() {
        let t = Technology::default();
        // The paper's trade: 81% of the IPC at (much) higher clock wins.
        let ideal512 = QueueGeometry::monolithic(512, 8);
        let seg512 = QueueGeometry::segmented(512, 32, 8);
        let ideal_bips = t.bips(ideal512, 1.0);
        let seg_bips = t.bips(seg512, 0.81);
        assert!(seg_bips > ideal_bips, "{seg_bips} vs {ideal_bips}");
    }

    #[test]
    fn default_clock_is_plausible_for_the_era() {
        let t = Technology::default();
        let ghz = t.clock_ghz(QueueGeometry::monolithic(32, 8));
        assert!((1.0..4.0).contains(&ghz), "32-entry queue near 1-4 GHz: {ghz}");
    }

    #[test]
    fn levels_of_4_table() {
        assert_eq!(levels_of_4(1), 1);
        assert_eq!(levels_of_4(4), 1);
        assert_eq!(levels_of_4(5), 2);
        assert_eq!(levels_of_4(16), 2);
        assert_eq!(levels_of_4(32), 3);
        assert_eq!(levels_of_4(64), 3);
        assert_eq!(levels_of_4(65), 4);
    }

    #[test]
    #[should_panic]
    fn zero_entries_panics() {
        let _ = QueueGeometry::monolithic(0, 8);
    }

    #[test]
    #[should_panic]
    fn oversized_segment_panics() {
        let _ = QueueGeometry::segmented(32, 64, 8);
    }
}
