//! Simultaneous multithreading — the study §7 proposes.
//!
//! *"By scheduling across multiple threads, an SMT processor may obtain
//! even larger benefits out of increased IQ sizes. Unlike other
//! prescheduling schemes, the dynamic inter-chain scheduling of our
//! segmented IQ should allow chains from independent threads to exploit
//! thread-level parallelism effectively."*
//!
//! [`SmtPipeline`] is the one [`Pipeline`] core with one hardware thread
//! per workload; see [`Pipeline`] for what the threads share. Tags are
//! allocated globally, so chains from independent threads interleave
//! freely in the queue — exactly the §7 hypothesis under test in
//! `cargo run -p chainiq-bench --bin smt`.

use chainiq_core::IssueQueue;
use chainiq_isa::Inst;

use crate::config::SimConfig;
use crate::pipeline::Pipeline;
use crate::stats::SimStats;

/// An SMT processor: `N` threads sharing one instruction queue.
///
/// SMT runs report `rob_mean_occupancy` as 0, the value the benchmark
/// digest pins.
#[derive(Debug)]
pub struct SmtPipeline<Q, W>(Pipeline<Q, W>);

impl<Q: IssueQueue, W: Iterator<Item = Inst>> SmtPipeline<Q, W> {
    /// Builds an SMT machine over `iq` with one context per workload.
    /// The ROB capacity (`config.rob_size`) is partitioned statically and
    /// equally among the threads.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty or has more than 255 entries.
    #[must_use]
    pub fn new(config: SimConfig, iq: Q, workloads: Vec<W>) -> Self {
        SmtPipeline(Pipeline::with_threads(config, iq, workloads))
    }

    /// Runs until the *total* committed count reaches `max_insts` (or the
    /// no-progress guard trips) and returns aggregate statistics; use
    /// [`SmtPipeline::committed_of`] for the per-thread split.
    pub fn run(&mut self, max_insts: u64) -> SimStats {
        let mut s = self.0.run(max_insts);
        s.rob_mean_occupancy = 0.0;
        s
    }

    /// The shared queue under test.
    #[must_use]
    pub fn iq(&self) -> &Q {
        self.0.iq()
    }

    /// Instructions committed by thread `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn committed_of(&self, t: usize) -> u64 {
        self.0.committed_of(t)
    }
}

impl<Q, W> chainiq_ckpt::Snapshot for SmtPipeline<Q, W>
where
    Q: IssueQueue + chainiq_ckpt::Snapshot,
    W: Iterator<Item = Inst> + chainiq_ckpt::Snapshot,
{
    const COMPONENT: &'static str = <Pipeline<Q, W> as chainiq_ckpt::Snapshot>::COMPONENT;
    const VERSION: u16 = <Pipeline<Q, W> as chainiq_ckpt::Snapshot>::VERSION;

    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        self.0.save(w);
    }

    fn restore(&mut self, r: &mut chainiq_ckpt::Reader<'_>) -> Result<(), chainiq_ckpt::CkptError> {
        self.0.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainiq_baseline::IdealIq;
    use chainiq_core::{SegmentedIq, SegmentedIqConfig};
    use chainiq_workload::{AddressSpace, Bench, SyntheticWorkload};

    // Not a multiple of any predictor-table size, so thread contexts do not
    // alias exactly onto the same PHT/BTB/HMP slots.
    const STRIDE: u64 = (1 << 40) | 0x94_530;

    fn threads(n: usize, bench: Bench) -> Vec<AddressSpace<SyntheticWorkload>> {
        (0..n as u64)
            .map(|t| {
                AddressSpace::new(
                    SyntheticWorkload::from_profile(bench.profile(), 100 + t),
                    t * STRIDE,
                    t * STRIDE,
                )
            })
            .collect()
    }

    #[test]
    fn two_threads_both_make_progress() {
        let cfg = SimConfig::default().rob_for_iq(128);
        let mut smt = SmtPipeline::new(cfg, IdealIq::new(128), threads(2, Bench::Vortex));
        let s = smt.run(6_000);
        assert!(!s.hung);
        assert!(s.committed >= 6_000);
        for t in 0..2 {
            assert!(smt.committed_of(t) > 1_000, "thread {t} starved: {}", smt.committed_of(t));
        }
    }

    #[test]
    fn smt_on_segmented_queue_interleaves_chains() {
        let mut cfg = SimConfig::default().rob_for_iq(256).with_extra_dispatch_cycle();
        cfg.use_hmp = true;
        let qc = SegmentedIqConfig::paper(256, Some(128));
        let mut smt = SmtPipeline::new(cfg, SegmentedIq::new(qc), threads(2, Bench::Swim));
        let s = smt.run(6_000);
        assert!(!s.hung);
        let seg = smt.iq().full_stats();
        assert!(seg.chains.allocations > 0);
        // Both threads' loads created chains; neither thread starved.
        assert!(smt.committed_of(0) > 1_000);
        assert!(smt.committed_of(1) > 1_000);
    }

    #[test]
    fn smt_throughput_exceeds_single_thread_on_latency_bound_code() {
        // gcc spends most of its cycles stalled behind mispredictions;
        // a second context fills those holes. (Bandwidth-bound pairs
        // like equake+equake gain nothing — the 8 B/cycle memory bus is
        // already saturated by one thread — which is itself a correct
        // and useful result.)
        let cfg = SimConfig::default().rob_for_iq(256);
        let mut single = SmtPipeline::new(cfg, IdealIq::new(256), threads(1, Bench::Gcc));
        let s1 = single.run(5_000);
        let mut dual = SmtPipeline::new(cfg, IdealIq::new(256), threads(2, Bench::Gcc));
        let s2 = dual.run(5_000);
        assert!(
            s2.ipc() > 1.3 * s1.ipc(),
            "a second gcc context should fill mispredict holes: {} vs {}",
            s2.ipc(),
            s1.ipc()
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let w: Vec<AddressSpace<SyntheticWorkload>> = vec![];
        let _ = SmtPipeline::new(SimConfig::default(), IdealIq::new(64), w);
    }
}
