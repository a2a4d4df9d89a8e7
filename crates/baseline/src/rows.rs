//! The scheduling array the prescheduled and distance queues share.
//!
//! A scheduling array's rows are future issue cycles of `line_width`
//! slots, at most `num_lines` cycles ahead of an instruction's placement.

use chainiq_core::TagMap;
use chainiq_isa::{Cycle, OpClass};

/// Row occupancy and the two placement rules of a scheduling array.
#[derive(Debug, Clone)]
pub(crate) struct Rows {
    num_lines: u64,
    line_width: u32,
    /// The latency a load is predicted to produce its value in.
    load_latency: u64,
    /// Entries counted in each populated row, keyed by row cycle.
    counts: TagMap<u32>,
}

impl Rows {
    pub(crate) fn new(num_lines: usize, line_width: usize, load_latency: u64) -> Self {
        let (num_lines, line_width) = (num_lines as u64, line_width as u32);
        Rows { num_lines, line_width, load_latency, counts: TagMap::new() }
    }

    /// The last row an instruction placed at `now` may take.
    pub(crate) fn horizon(&self, now: Cycle) -> Cycle {
        now + self.num_lines
    }

    /// The booking rule: counts an instruction ready at `ready` into the
    /// first row with space at or after it, within `now + 1 ..=
    /// horizon(now)`; `None` when every such row is full.
    pub(crate) fn book(&mut self, ready: Cycle, now: Cycle) -> Option<Cycle> {
        let horizon = self.horizon(now);
        let row = (ready.clamp(now + 1, horizon)..=horizon).find(|&r| !self.is_full(r))?;
        self.add(row);
        Some(row)
    }

    /// The produce-latency rule: cycles from an instruction's row to the
    /// row its consumers are predicted ready in.
    pub(crate) fn produce_latency(&self, op: OpClass) -> u64 {
        if op == OpClass::Load {
            self.load_latency
        } else {
            u64::from(op.exec_latency())
        }
    }

    pub(crate) fn count(&self, row: Cycle) -> u32 {
        self.counts.get(row).unwrap_or(0)
    }

    /// Whether `row` has no slot left for a booking.
    pub(crate) fn is_full(&self, row: Cycle) -> bool {
        self.count(row) >= self.line_width
    }

    /// Counts one more entry in `row`, space or not.
    pub(crate) fn add(&mut self, row: Cycle) {
        self.counts.insert(row, self.count(row) + 1);
    }

    /// Counts one entry out of `row`, forgetting the row once empty.
    pub(crate) fn remove(&mut self, row: Cycle) {
        let n = self.count(row);
        debug_assert!(n > 0, "row count must track its entries");
        if n <= 1 {
            self.counts.remove(row);
        } else {
            self.counts.insert(row, n - 1);
        }
    }

    pub(crate) fn clear(&mut self) {
        self.counts.clear();
    }
}
