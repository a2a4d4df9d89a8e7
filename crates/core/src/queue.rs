//! The scheduling contract every instruction-queue design implements.

use chainiq_isa::{Cycle, OpClass};

use crate::fu::FuPool;
use crate::tag::{DispatchInfo, DispatchStall, InstTag};

/// A cycle in which nothing outside the queue changed: no timing event
/// was delivered, nothing issued, dispatched, committed or fetched, and
/// no memory access resolved. The pipeline hands one to
/// [`IssueQueue::next_event`] and [`IssueQueue::skip_quiet`] to jump over
/// the cycles that would repeat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuietCycle {
    /// The cycle just stepped.
    pub now: Cycle,
    /// The `execution_idle` its [`tick`](IssueQueue::tick) saw; it holds
    /// for every repeat, since no event is delivered or scheduled.
    pub execution_idle: bool,
    /// The stall of the one dispatch the queue refused this cycle, if an
    /// instruction was waiting at dispatch. Each repeat retries it.
    pub refused: Option<DispatchStall>,
}

/// An instruction selected for issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssuedInst {
    /// Identity of the issued instruction.
    pub tag: InstTag,
    /// Its op class (so the pipeline can route loads/stores to the LSQ).
    pub op: OpClass,
}

/// Counters every queue design reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IqStats {
    /// Instructions accepted at dispatch.
    pub dispatched: u64,
    /// Instructions issued to function units.
    pub issued: u64,
    /// Dispatch attempts rejected because the queue was full.
    pub stalls_full: u64,
    /// Dispatch attempts rejected because no chain wire was free.
    pub stalls_no_chain: u64,
    /// Sum over cycles of queue occupancy (divide by cycles for the mean).
    pub occupancy_accum: u64,
    /// Cycles observed (tick count).
    pub cycles: u64,
}

impl IqStats {
    /// Mean queue occupancy over the observed cycles.
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.occupancy_accum as f64 / self.cycles as f64
        }
    }
}

/// A dynamically scheduled instruction queue.
///
/// The pipeline drives every design through the same five-step cycle:
///
/// 1. [`tick`](IssueQueue::tick) — advance internal state (segment
///    promotion, chain-wire propagation, prescheduling-array shift, …).
/// 2. [`select_issue_into`](IssueQueue::select_issue_into) — pick ready
///    instructions, bounded by the function-unit pool. Selected entries
///    leave the queue.
/// 3. [`announce_ready`](IssueQueue::announce_ready) — the pipeline
///    reports when each issued instruction's result will be available,
///    waking dependents (the wakeup broadcast).
/// 4. [`dispatch`](IssueQueue::dispatch) — insert newly renamed
///    instructions, which may stall.
/// 5. [`on_writeback`](IssueQueue::on_writeback) plus the load hooks —
///    lifecycle notifications that the segmented design uses for chain
///    release and the suspend/resume signals of §3.4.
///
/// After a [`QuietCycle`] the pipeline asks
/// [`next_event`](IssueQueue::next_event) how long the queue would stay
/// quiet, and accounts the cycles before that with one
/// [`skip_quiet`](IssueQueue::skip_quiet) instead of stepping them.
///
/// Implementors: [`SegmentedIq`](crate::SegmentedIq) here, and the ideal
/// monolithic, prescheduling and distance queues in `chainiq-baseline`.
pub trait IssueQueue {
    /// Total instruction slots.
    fn capacity(&self) -> usize;

    /// Instructions currently buffered.
    fn occupancy(&self) -> usize;

    /// Whether the queue holds no instructions.
    fn is_empty(&self) -> bool {
        self.occupancy() == 0
    }

    /// Advances one cycle. `execution_idle` is true when no instruction
    /// is currently executing in the backend — an input to the deadlock
    /// detector of §4.5 (other designs may ignore it).
    fn tick(&mut self, now: Cycle, execution_idle: bool);

    /// Attempts to insert one renamed instruction.
    ///
    /// # Errors
    ///
    /// Returns the stall reason without accepting the instruction; the
    /// dispatch stage retries next cycle.
    fn dispatch(&mut self, now: Cycle, info: DispatchInfo) -> Result<(), DispatchStall>;

    /// Selects ready instructions for issue at `now`, claiming function
    /// units from `fus`, and returns them in a fresh vector. Selected
    /// entries are removed from the queue.
    ///
    /// The pipeline calls [`IssueQueue::select_issue_into`]; this
    /// allocating form remains only because the benchmark package's
    /// `Timed<Q>` wrapper implements it. Each of the two defaults calls
    /// the other, so an implementation overrides at least one.
    fn select_issue(&mut self, now: Cycle, fus: &mut FuPool) -> Vec<IssuedInst> {
        let mut issued = Vec::new();
        self.select_issue_into(now, fus, &mut issued);
        issued
    }

    /// [`select_issue`](IssueQueue::select_issue) into a caller-owned
    /// buffer: the selected instructions are appended to `out`. Every
    /// queue in the workspace overrides it so an issuing cycle allocates
    /// nothing.
    fn select_issue_into(&mut self, now: Cycle, fus: &mut FuPool, out: &mut Vec<IssuedInst>) {
        out.extend(self.select_issue(now, fus));
    }

    /// Reports that `producer`'s result will be usable by consumers
    /// issuing at `ready_at` or later.
    fn announce_ready(&mut self, producer: InstTag, ready_at: Cycle);

    /// A chain-head load was found to miss the L1 (suspends its chain's
    /// self-timing, §3.4). Default: ignored.
    fn on_load_miss(&mut self, _tag: InstTag) {}

    /// A previously missing load's fill arrived (resumes the chain).
    /// Default: ignored.
    fn on_load_fill(&mut self, _tag: InstTag) {}

    /// `tag` wrote its result back — chains headed by it are released.
    /// Default: ignored.
    fn on_writeback(&mut self, _tag: InstTag) {}

    /// Removes every buffered instruction (pipeline squash).
    fn flush(&mut self);

    /// Common statistics.
    fn stats(&self) -> IqStats;

    /// The earliest cycle after `quiet.now` at which this queue could act
    /// on its own — issue, promote, move a chain signal, recover from
    /// deadlock, or answer the refused dispatch differently — if nothing
    /// outside it changes meanwhile. Every cycle before that would repeat
    /// `quiet` exactly, up to its counters. The default, the next cycle,
    /// keeps the pipeline stepping every cycle.
    fn next_event(&self, quiet: &QuietCycle) -> Cycle {
        quiet.now + 1
    }

    /// Accounts `k` repeats of `quiet` at once — the cycles `quiet.now +
    /// 1 ..= quiet.now + k`, every one before
    /// [`next_event`](IssueQueue::next_event) — leaving the queue as `k`
    /// ticks, empty selections and refused dispatches would. The default
    /// does nothing: it is never called while `next_event` keeps the
    /// default.
    fn skip_quiet(&mut self, _quiet: &QuietCycle, _k: u64) {}
}

chainiq_ckpt::pack_fields!(IssuedInst { tag, op });

chainiq_ckpt::pack_fields!(IqStats {
    dispatched,
    issued,
    stalls_full,
    stalls_no_chain,
    occupancy_accum,
    cycles
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_occupancy_handles_zero_cycles() {
        assert_eq!(IqStats::default().mean_occupancy(), 0.0);
    }

    #[test]
    fn mean_occupancy_divides() {
        let s = IqStats { occupancy_accum: 100, cycles: 25, ..IqStats::default() };
        assert_eq!(s.mean_occupancy(), 4.0);
    }
}
